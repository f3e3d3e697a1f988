import dataclasses
import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from veneroni import checks
from veneroni import exactla as la
from veneroni import lattice, maps, projgeo
from veneroni.checks import CHECK_ORDER
from veneroni.mpoly import Poly
from veneroni.projgeo import (
    Flat,
    FlatsInstance,
    LineParam,
    ProjPoint,
    meeting_param,
    random_general_flats,
    transversal_through,
)
from veneroni.scalar import FieldCtx

from oracles import (
    apply_map,
    coefficient_rows,
    det_by_poly_ops,
    div_var,
    double_at_pair_points,
    factorization_entries,
    flat_contains,
    flat_intersection,
    is_homogeneous,
    line_restrict,
    matrix_C,
    sample_off_locus,
    sample_off_q_locus,
    vanishing_on_line,
)

QQ = FieldCtx.rationals()
M61 = 2305843009213693951  # Mersenne prime 2^61 - 1


def by_name(report):
    return {c.name: c for c in report.checks}


def record(inst, vmap, inv):
    """A fresh proof record for the checks that read one, as a report has."""
    return checks.ProofRecord(inst, vmap, inv, inst.seed)


@pytest.fixture(scope="module")
def suite3():
    inst = random_general_flats(3, 1, QQ)
    return inst, checks.run_suite(inst)


@pytest.fixture(scope="module")
def suite4():
    inst = random_general_flats(4, 3, QQ)
    return inst, checks.run_suite(inst)


@pytest.fixture(scope="module")
def suite5():
    inst = random_general_flats(5, 1, QQ)
    return inst, checks.run_suite(inst)


def test_check_order_is_fixed(suite3):
    _, report = suite3
    assert [c.name for c in report.checks] == list(CHECK_ORDER)
    assert len(CHECK_ORDER) == 13


def test_suite_n2_statuses():
    inst = random_general_flats(2, 1, QQ)
    report = checks.run_suite(inst)
    assert report.ok
    res = by_name(report)
    assert res["transversal-sample"].status == "skip"
    assert res["multiplicity"].status == "skip"
    assert res["demos"].status == "skip"
    passing = [n for n in CHECK_ORDER if res[n].status == "pass"]
    assert len(passing) == 10
    assert report.summary == "10 passed, 0 failed, 3 skipped"


def test_suite_n3(suite3):
    _, report = suite3
    assert report.ok
    res = by_name(report)
    assert res["multiplicity"].status == "skip"
    assert res["composition"].witness["mode"] == "factorization"
    tw = res["transversal-sample"].witness
    assert tw["mode"] == "family"
    assert tw["transversal_count"] == 2
    assert res["demos"].status == "pass"
    assert res["demos"].witness["count"] == 2


def test_suite_n4(suite4):
    _, report = suite4
    assert report.ok
    assert report.summary == "13 passed, 0 failed, 0 skipped"
    res = by_name(report)
    assert res["composition"].witness["mode"] == "factorization"
    # C(5,2) pairs, each meeting in a point
    assert res["multiplicity"].witness == {
        "pairs": 10,
        "mode": "ideal product",
        "control": "nonzero gradient",
    }
    assert res["transversal-sample"].witness["mode"] == "pair-point"
    assert res["demos"].witness["example"] == "residual plane point"


def test_suite_n5_samples_composition(suite5):
    _, report = suite5
    assert report.ok
    res = by_name(report)
    # n=5 is proved, not sampled: all 36 entries of C(v) and 6 minors of B;
    # v∘w is the dual instance's composition, cited
    assert res["composition"].witness == {
        "mode": "factorization",
        "entries": 36,
        "minors": 6,
        "inverse": "v∘w = y·∏Q'_i by the dual instance",
    }
    assert res["demos"].status == "skip"


def test_fast_level_skips_demos_and_sampling(suite4):
    inst, full = suite4
    report = checks.run_suite(inst, level="fast")
    assert report.ok
    res = by_name(report)
    assert res["demos"].status == "skip"
    # fast skips the demos only; composition is the same proof at both levels
    assert res["composition"].to_dict() == by_name(full)["composition"].to_dict()
    assert res["composition"].witness["mode"] == "factorization"


def test_fp_instance_lifts_composition():
    # the factorization proof is a ring identity: F_p needs no rational lift
    ctx = FieldCtx.prime(M61)
    inst = random_general_flats(3, 2, ctx)
    report = checks.run_suite(inst)
    assert report.ok
    res = by_name(report)
    assert res["composition"].status == "pass"
    assert res["composition"].witness["mode"] == "factorization"
    assert "field" not in res["composition"].witness


def test_timings_flag():
    inst = random_general_flats(2, 1, QQ)
    timed = checks.run_suite(inst, timings=True)
    assert all(c.ms is not None for c in timed.checks)
    plain = checks.run_suite(inst)
    assert all(c.ms is None for c in plain.checks)


def test_report_is_deterministic():
    inst = random_general_flats(2, 5, QQ)
    a = json.dumps(checks.run_suite(inst).to_dict(), sort_keys=True)
    b = json.dumps(checks.run_suite(inst).to_dict(), sort_keys=True)
    assert a == b


def test_report_dict_is_the_dataclass_tree(suite3):
    # `to_dict` builds the dicts by hand; the stdlib's deep copy of the
    # dataclasses is the reference, for passing, failing and timed reports
    _, report = suite3
    coeffs = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 5], [7, 2, 3, 0]]  # flats 0, 1 meet
    flats = [Flat(j, tuple(map(QQ.from_int, a))) for j, a in enumerate(coeffs)]
    n3 = FlatsInstance(3, 0, 9, QQ, flats)
    for rep in (report, checks.run_suite(n3), checks.run_suite(n3, level="fast", timings=True)):
        assert rep.to_dict() == dataclasses.asdict(rep)
        assert list(rep.to_dict()) == list(dataclasses.asdict(rep))
        for check in rep.checks:
            assert list(check.to_dict()) == list(dataclasses.asdict(check))


def test_report_shape(suite3):
    inst, report = suite3
    d = report.to_dict()
    assert set(d) == {"instance", "checks", "summary"}
    assert d["instance"]["n"] == 3
    assert d["instance"]["seed"] == inst.seed
    assert d["instance"]["field"] == {"kind": "qq"}
    for c in d["checks"]:
        assert set(c) == {"name", "status", "witness", "ms"}


def test_construction_failure_skips_downstream():
    inst = random_general_flats(3, 1, QQ)
    a = list(inst.flats[2].a)
    a[0] = QQ.zero  # canonical form requires every off-diagonal coefficient
    bad = FlatsInstance(
        n=3, seed=1, bound=9, ctx=QQ, flats=list(inst.flats), retries=0
    )
    bad.flats[2] = Flat(2, tuple(a))
    report = checks.run_suite(bad)
    assert not report.ok
    res = by_name(report)
    assert res["genericity"].status == "fail"
    assert res["determinantal"].status == "fail"
    assert "construction" in res["determinantal"].witness
    for name in CHECK_ORDER[2:]:
        assert res[name].status == "skip"
        assert res[name].witness["reason"] == "construction failed"


def test_mutated_b_fails_b_matrix_and_composition(suite3):
    inst, _ = suite3
    vmap, inv = checks.build_all(inst)
    inv.b[0][1] = inv.b[0][1] + QQ.one
    report = checks.run_suite(inst, vmap, inv)
    assert not report.ok
    res = by_name(report)
    assert res["b-matrix"].status == "fail"
    assert res["composition"].status == "fail"
    assert "inverse component" in res["composition"].witness["reason"]


def test_mutated_q_fails_determinantal(suite3):
    inst, _ = suite3
    vmap, inv = checks.build_all(inst)
    vmap.Q[0] = vmap.Q[0].scale(QQ.from_int(2))
    report = checks.run_suite(inst, vmap, inv)
    res = by_name(report)
    assert res["determinantal"].status == "fail"


def _scaled(polys, k, c):
    return [p.scale(c) if t == k else p for t, p in enumerate(polys)]


def _tamper(vmap, inv, target, two):
    """Corrupt one piece of a correct map; the others are left shared."""
    if target == "b":
        inv.b = [row[:] for row in inv.b]
        inv.b[0][1] = inv.b[0][1] + two
    elif target == "Q":
        vmap.Q = _scaled(vmap.Q, 1, two)
    elif target == "component":
        vmap.components = _scaled(vmap.components, 2, two)
    elif target == "inverse-component":
        inv.inverse_components = _scaled(inv.inverse_components, 3, two)
    else:  # every Q_i and component scaled alike: C(v) = B·diag(Q) still holds,
        # but no Q_i is det(M_i)
        vmap.Q = [q.scale(two) for q in vmap.Q]
        vmap.components = [c.scale(two) for c in vmap.components]


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@pytest.mark.parametrize(
    "target, index, reason",
    [
        ("b", {"i": 1}, "stored inverse component differs from det(C_i)"),
        ("Q", {"k": 1}, "stored Q differs"),
        ("component", {"i": 2}, "stored component differs"),
        ("inverse-component", {"i": 3}, "stored inverse component differs from det(C_i)"),
        ("all-Q", {"k": 0}, "stored Q differs"),
    ],
)
def test_tampering_fails_composition_by_name(field, target, index, reason):
    inst = random_general_flats(3, 4, field)
    vmap, inv = checks.build_all(inst)
    assert checks.verify_composition(vmap, record(inst, vmap, inv)).status == "pass"
    _tamper(vmap, inv, target, field.from_int(2))
    res = checks.verify_composition(vmap, record(inst, vmap, inv))
    assert res.status == "fail"
    # a changed b moves the dual flats, so the dual lattice fails first at
    # Q'_1, whose M'_1 holds row 0 of b; the inverse side names its
    # direction, and the map's own pieces fail with the construction's
    # witness
    if "inverse component" in reason:
        index = dict(index, direction="inverse")
    assert res.witness == dict(index, reason=reason)


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_ties_are_none_on_a_valid_record_and_form_no_difference(monkeypatch, field):
    inst = random_general_flats(4, 5, field)
    vmap, inv = checks.build_all(inst)
    proofs = record(inst, vmap, inv)

    def no_difference(self, other):
        raise AssertionError("ties formed a Poly difference")

    monkeypatch.setattr(Poly, "__sub__", no_difference)
    assert proofs.ties() is None
    assert proofs.dual().ties() is None


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_ties_name_the_smaller_of_two_tampered_components(field):
    inst = random_general_flats(4, 5, field)
    vmap, inv = checks.build_all(inst)
    two = field.from_int(2)
    vmap.components = _scaled(_scaled(vmap.components, 3, two), 1, two)
    assert record(inst, vmap, inv).ties() == 1
    # the dual Q'_i are read off the w_i, so a scaled w_i still ties; a
    # term without y_i does not
    inv.inverse_components = _scaled(inv.inverse_components, 4, two)
    assert record(inst, vmap, inv).dual().ties() is None
    x0 = Poly.var(0, 5, field.one) ** 4
    w = inv.inverse_components
    inv.inverse_components = [c + x0 if t in (2, 4) else c for t, c in enumerate(w)]
    assert record(inst, vmap, inv).dual().ties() == 2


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_component_off_the_system_fails_by_name(field):
    inst = random_general_flats(3, 4, field)
    vmap, inv = checks.build_all(inst)
    assert checks.verify_base_locus(vmap, record(inst, vmap, inv)).status == "pass"
    assert checks.check_basis(inst, vmap, record(inst, vmap, inv)).status == "pass"
    # x_0^3 vanishes on flat 0, where x_0 = 0, but not on flat 1; both
    # checks cite membership once the component is tied to x_2·Q_2
    vmap.components = list(vmap.components)
    vmap.components[2] = vmap.components[2] + Poly.var(0, 4, field.one) ** 3
    proofs = record(inst, vmap, inv)
    for res in (checks.verify_base_locus(vmap, proofs), checks.check_basis(inst, vmap, proofs)):
        assert res.status == "fail"
        assert res.witness == {"i": 2, "reason": "stored component differs"}


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@pytest.mark.parametrize("extra", [(1, 0, 0, 0), (1, 1, 1, 1)], ids=["degree-1", "degree-4"])
def test_component_of_the_wrong_degree_fails_by_name(field, extra):
    inst = random_general_flats(3, 4, field)
    vmap, inv = checks.build_all(inst)
    vmap.components = list(vmap.components)
    vmap.components[1] = vmap.components[1] + Poly(4, {extra: field.one})
    res = by_name(checks.run_suite(inst, vmap, inv))
    # the tie v_1 − x_1·Q_1 is the extra term: no degree is tested
    assert res["basis-property"].witness == {"i": 1, "reason": "stored component differs"}
    assert res["base-locus"].witness == {"i": 1, "reason": "stored component differs"}
    assert res["composition"].witness == {"i": 1, "reason": "stored component differs"}


FIELDS = [QQ, FieldCtx.prime(2147483647)]
_BUILT = {}


def _built(n, field):
    """Instance, map and inverse of seed 5, built once per (n, field)."""
    key = (n, field.kind)
    if key not in _BUILT:
        inst = random_general_flats(n, 5, field)
        _BUILT[key] = (inst, *checks.build_all(inst))
    return _BUILT[key]


@st.composite
def tampered_factorization(draw):
    """A correct map with one change: a coefficient of one Q_k, of one
    component or of one b entry off the diagonal, or a term of another
    degree added to one component; with the witness that names the change.
    A changed b entry stays nonzero, so that the rows of b are still
    canonical flats, and the inverse components are rebuilt as their map:
    the dual record's ties then hold and the first failure is the changed
    piece.  A b off the canonical pattern has its own test."""
    field = draw(st.sampled_from(FIELDS), label="field")
    n = draw(st.integers(2, 5), label="n")
    inst, vmap, inv = _built(n, field)
    vmap = dataclasses.replace(vmap, Q=list(vmap.Q), components=list(vmap.components))
    inv = dataclasses.replace(inv, b=[row[:] for row in inv.b])
    k = draw(st.integers(0, n), label="k")
    delta = field.from_int(draw(st.integers(1, 9), label="delta"))
    target = draw(st.sampled_from(["Q", "component", "b", "degree"]), label="target")
    if target == "b":
        t = draw(st.sampled_from([t for t in range(n + 1) if t != k]), label="t")
        inv.b[k][t] = inv.b[k][t] + delta or delta
        maps.build_inverse_map(vmap, inv)
        return inst, vmap, inv, {"i": k, "j": t, "reason": "b differs from Aᵀ"}
    if target == "degree":
        exps = st.tuples(*[st.integers(0, 2)] * (n + 1)).filter(lambda e: sum(e) != n)
        extra = Poly(n + 1, {draw(exps, label="e"): delta})
        vmap.components[k] = vmap.components[k] + extra
        return inst, vmap, inv, {"i": k, "reason": "stored component differs"}
    polys = vmap.Q if target == "Q" else vmap.components
    e = draw(st.sampled_from(sorted(polys[k].terms)), label="e")
    polys[k] = polys[k] + Poly(n + 1, {e: delta})
    if target == "Q":
        return inst, vmap, inv, {"k": k, "reason": "stored Q differs"}
    return inst, vmap, inv, {"i": k, "reason": "stored component differs"}


@settings(max_examples=60, deadline=None)
@given(case=tampered_factorization())
def test_composition_fails_by_name_where_the_oracle_sees_a_nonzero_entry(case):
    # the oracle expands C(v) − B·diag(Q); composition cites it from the
    # construction and b = Aᵀ, and names the piece that was changed
    inst, vmap, inv, witness = case
    assert any(r for _, r in factorization_entries(vmap, inv))
    res = checks.verify_composition(vmap, record(inst, vmap, inv))
    assert (res.status, res.witness) == ("fail", witness)


def test_transversal_count_across_seeds():
    for seed in range(5):
        inst = random_general_flats(3, seed, QQ)
        m, failure, _ = checks.transversal_lines_n3(inst.flats, QQ)
        assert m.degree() == 2
        assert failure is None


def test_explicit_lines_when_form_splits():
    ctx = FieldCtx.prime(M61)
    inst = random_general_flats(3, 2, ctx)
    m, _, lines = checks.transversal_lines_n3(inst.flats, ctx)
    assert m.degree() == 2
    assert len(lines) == 2
    # conjugate roots over QQ at this seed: no explicit lines, same form degree
    qinst = random_general_flats(3, 5, QQ)
    m2, _, qlines = checks.transversal_lines_n3(qinst.flats, QQ)
    assert m2.degree() == 2
    assert qlines == []


def test_n3_family_takes_w_on_flat_1_inside_flat_2s_cone_row():
    # w = h(q2)·q1 − h(q1)·q2: x_1(w) = f_1(w) = 0 and h·w = 0, as binary
    # forms; no random row is drawn
    inst = random_general_flats(3, 148, QQ)
    flat1 = inst.flats[1]
    m, p, w = checks._n3_family(inst.flats, QQ)
    assert any(w) and all(c.degree() == 1 for c in w if c)
    assert w[1].is_zero()
    assert sum((w[k].scale(c) for k, c in enumerate(flat1.a)), Poly.zero(2)).is_zero()
    assert _row_times(inst.flats[2], p, w).is_zero()
    # at this seed the random third row of the earlier construction once
    # collapsed w onto p at a root of the meeting form
    assert checks.run_suite(inst, level="fast").ok


@pytest.mark.parametrize(
    "field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"]
)
def test_n3_family_fails_by_the_pair_of_flats_that_meet(field):
    # a_{0,2}·a_{1,3} = a_{0,3}·a_{1,2} puts (0 : 0 : 3 : -2) on flats 0
    # and 1; the meeting form still has two distinct roots
    coeffs = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 5], [7, 2, 3, 0]]
    flats = [Flat(j, tuple(field.from_int(c) for c in a)) for j, a in enumerate(coeffs)]
    assert len(flat_intersection(flats[0], flats[1], field)) == 1
    res = by_name(checks.run_suite(FlatsInstance(3, 0, 9, field, flats)))
    assert res["genericity"].status == "fail"
    for name in ("base-locus", "transversal-sample"):
        assert res[name].status == "fail"
        assert res[name].witness == {
            "pair": [0, 1], "dim": 0, "reason": "the forms of the two flats are dependent"
        }


def test_a_double_root_fails_every_reader_of_the_meeting_form(monkeypatch):
    # one test decides the meeting form: the family's count, read by
    # base-locus and transversal-sample, and the demo fail with one witness
    inst = random_general_flats(3, 4, QQ)
    family = checks._n3_family
    square = Poly.var(0, 2, QQ.one) ** 2
    monkeypatch.setattr(checks, "_n3_family", lambda flats, ctx: (square, *family(flats, ctx)[1:]))
    res = by_name(checks.run_suite(inst))
    for name in ("base-locus", "transversal-sample", "demos"):
        assert (res[name].status, res[name].witness) == (
            "fail", {"reason": "meeting form has a double root"}
        )
    assert checks.transversal_lines_n3(inst.flats, QQ)[1:] == (
        {"reason": "meeting form has a double root"}, []
    )


def test_residual_example_across_seeds():
    for seed in (3, 5, 7):
        inst = random_general_flats(4, seed, QQ)
        qs = [maps.compute_Q(inst.flats, i, QQ) for i in (0, 1)]
        meet = checks.ProofRecord(inst, None, None, seed).meet
        res = checks.residual_component_example(inst.flats, qs, meet, QQ, seed)
        assert res.status == "pass", res.witness
        assert res.witness["five_flat_transversal"] == "none"
        assert res.witness["anchor_lines"] == 2


def test_residual_example_fails_when_q_is_off_q0_or_q1():
    # a Q_1 that is not det(M_1) misses the general point of the plane
    inst = random_general_flats(4, 3, QQ)
    q0, q1 = (maps.compute_Q(inst.flats, i, QQ) for i in (0, 1))
    meet = checks.ProofRecord(inst, None, None, 3).meet
    off = q1 + Poly.var(0, 5, QQ.one) ** 3
    res = checks.residual_component_example(inst.flats, [q0, off], meet, QQ, 3)
    assert (res.status, res.witness) == ("fail", {"reason": "q not on Q_0 and Q_1"})


def test_pair_point_lies_on_both_flats_and_is_fixed_by_the_seed():
    # from n = 5 two flats meet in more than a point, so the point is drawn
    # from the span of the record's meet with the report's seed
    fp = FieldCtx.prime(2147483647)
    inst = random_general_flats(5, 5, fp)
    vmap = maps.build_forward_map(inst.flats, fp)
    pts = [
        checks._pair_point(checks.ProofRecord(inst, vmap, None, seed), 0, 1)
        for seed in (5, 5, 6)
    ]
    assert pts[0] == pts[1] != pts[2]
    assert all(flat_contains(vmap.flats[0], p) and flat_contains(vmap.flats[1], p) for p in pts)


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@pytest.mark.parametrize("n", [4, 5])
def test_multiplicity_agrees_with_the_pair_point_oracle(field, n):
    inst = random_general_flats(n, 7, field)
    vmap, inv = checks.build_all(inst)
    assert checks.check_multiplicity(vmap, record(inst, vmap, inv)).status == "pass"
    assert double_at_pair_points(vmap, random.Random(n)) == []
    # a Q_2 that is no longer det(M_2) loses its double points, and the
    # check, which can no longer cite the lemma, fails closed
    vmap.Q = list(vmap.Q)
    vmap.Q[2] = vmap.Q[2] + Poly.var(0, n + 1, field.one) ** (n - 1)
    assert double_at_pair_points(vmap, random.Random(n))
    res = checks.check_multiplicity(vmap, record(inst, vmap, inv))
    assert res.witness == {"k": 2, "reason": "stored Q differs"}


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_multiplicity_fails_when_the_control_gradient_vanishes(monkeypatch, field):
    # a control point of flat_2 ∩ flat_3, where Q_0 is double, has a zero
    # gradient, so the control refuses it
    inst = random_general_flats(4, 7, field)
    vmap, inv = checks.build_all(inst)
    proofs = record(inst, vmap, inv)
    pair_point = proofs.meet(2, 3)[0]
    monkeypatch.setattr(checks, "_point_on_flat", lambda flat, ctx, rng: pair_point)
    res = checks.check_multiplicity(vmap, proofs)
    assert (res.status, res.witness) == ("fail", {"reason": "control gradient vanished"})


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_multiplicity_fails_by_the_pair_of_flats_that_meet_in_a_line(field):
    # (a_{0,2}, a_{0,3}, a_{0,4}) and (a_{1,2}, a_{1,3}, a_{1,4}) are
    # proportional, so x_0, f_0, x_1, f_1 are dependent and flats 0 and 1
    # meet in a line, where the lemma of the check says nothing
    coeffs = [
        [0, 1, 1, 2, 3],
        [1, 0, 2, 4, 6],
        [2, 3, 0, 5, 7],
        [7, 2, 3, 0, 1],
        [3, 5, 2, 1, 0],
    ]
    flats = [Flat(j, tuple(field.from_int(c) for c in a)) for j, a in enumerate(coeffs)]
    assert len(flat_intersection(flats[0], flats[1], field)) == 2
    res = by_name(checks.run_suite(FlatsInstance(4, 0, 9, field, flats)))
    assert res["genericity"].status == "fail"
    assert res["multiplicity"].status == "fail"
    assert res["multiplicity"].witness == {
        "pair": [0, 1],
        "dim": 1,
        "reason": "the forms of the two flats are dependent",
    }


def test_dual_dimension_values(suite3):
    report2 = checks.run_suite(random_general_flats(2, 1, QQ))
    assert by_name(report2)["dual-dimension"].witness == {"dim": 3, "expected": 3}
    _, report3 = suite3
    assert by_name(report3)["dual-dimension"].witness == {"dim": 4, "expected": 4}


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_b_off_the_canonical_pattern_fails_by_name(field):
    # row 1 of b then defines no flat, so there is no dual instance: the
    # checks that read the dual record fail by name, not with a crash
    inst = random_general_flats(3, 4, field)
    vmap, inv = checks.build_all(inst)
    inv.b = [row[:] for row in inv.b]
    inv.b[1][1] = field.one
    report = checks.run_suite(inst, vmap, inv)
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    assert failed["b-matrix"] == {"i": 1, "j": 1, "reason": "b differs from Aᵀ"}
    assert failed["composition"] == {"reason": checks._NO_DUAL}
    assert failed["dual-dimension"] == {"reason": checks._NO_DUAL}
    assert not [name for name, wit in failed.items() if "error" in wit]


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_dual_dimension_reads_the_dual_flats_from_b(field):
    # canonical rows whose first two forms are dependent: the dual flats
    # are not general, and the system through them is too large
    coeffs = [
        [0, 1, 1, 2, 3],
        [1, 0, 2, 4, 6],
        [2, 3, 0, 5, 7],
        [7, 2, 3, 0, 1],
        [3, 5, 2, 1, 0],
    ]
    inst = random_general_flats(4, 3, field)
    vmap, inv = checks.build_all(inst)
    inv.b = [[field.from_int(c) for c in row] for row in coeffs]
    res = by_name(checks.run_suite(inst, vmap, inv))["dual-dimension"]
    assert (res.status, res.witness) == ("fail", {"dim": 9, "expected": 5})


def test_class_matrix_check_squares_the_matrix(monkeypatch):
    assert checks.check_class_matrix(3).witness == {"size": 5, "square": "identity"}
    # the matrix with its corner doubled squares to no identity
    build = maps.class_matrix

    def bent(n):
        m = build(n)
        m[0][0] *= 2
        return m

    monkeypatch.setattr(maps, "class_matrix", bent)
    res = checks.check_class_matrix(3)
    assert (res.status, res.witness) == ("fail", {"reason": "class matrix is not an involution"})


def test_seed_defaults_to_instance_seed():
    inst = random_general_flats(2, 7, QQ)
    a = checks.run_suite(inst).to_dict()
    b = checks.run_suite(inst, seed=7).to_dict()
    assert a == b


def test_verify_recertifies_the_attempt_that_generate_accepted(monkeypatch):
    # n = 3 seed 1 re-rolls once: generate certifies the flats of attempt 1,
    # and a verify of them certifies the same flats to the same report
    calls = []
    certify = projgeo.genericity_check

    def recorded(flats, ctx, record=None):
        report = certify(flats, ctx, record=record)
        calls.append((flats, report))
        return report

    monkeypatch.setattr(projgeo, "genericity_check", recorded)
    monkeypatch.setattr(checks, "genericity_check", recorded)
    inst = random_general_flats(3, 1, QQ)
    assert inst.retries == 1 and [rep.ok for _, rep in calls] == [False, True]
    assert calls[1][0] == inst.flats
    generated = calls[-1]
    calls.clear()
    loaded = FlatsInstance.from_dict(inst.to_dict("0"))
    assert checks.run_suite(loaded, level="fast").ok
    assert calls == [generated]


def test_skip_counts_as_ok():
    res = checks.CheckResult("x", "skip", {"reason": "r"})
    assert res.ok
    assert not checks.CheckResult("x", "fail").ok


# ---- the degree-n dimension, proved once per report -----------------------

# n = 4 flats that pass genericity (a)-(c) but not (e): their degree-4
# system has dimension 6, not 5
NON_GENERAL_N4 = [
    (0, [0, 4, 7, 4, 9]),
    (1, [4, 0, -1, -2, 2]),
    (2, [-3, -3, 0, -3, -8]),
    (3, [-8, 6, 7, 0, -5]),
    (4, [-4, 8, -6, 8, 0]),
]

# the first attempt of `random_general_flats(4, seed, QQ)` at the five seeds
# of 0..999 where it draws such flats (seed 50 is NON_GENERAL_N4); every
# dual system has dimension 9
UNCERTIFIED_N4 = {
    50: [a for _, a in NON_GENERAL_N4],
    104: [[0, 1, 4, 9, 5], [-9, 0, 9, 9, 6], [-4, -1, 0, -2, -5], [6, -1, -6, 0, 2], [4, 5, -4, -3, 0]],
    592: [[0, -9, 4, 7, -3], [1, 0, -3, 2, -1], [7, 9, 0, 8, -7], [4, 9, -6, 0, -4], [7, -3, 9, 6, 0]],
    655: [[0, 8, -6, -4, 6], [-1, 0, 5, 2, -3], [-9, -8, 0, -4, 6], [3, 5, -4, 0, 8], [8, -6, -2, -6, 0]],
    710: [[0, 3, 5, -7, 3], [1, 0, -1, 4, -4], [-2, 8, 0, 6, -3], [-1, -5, 1, 0, -1], [-7, -6, 7, -8, 0]],
}


def _non_general_n4():
    flats = [Flat(j, tuple(QQ.from_int(v) for v in a)) for j, a in NON_GENERAL_N4]
    return FlatsInstance(n=4, seed=50, bound=9, ctx=QQ, flats=flats, retries=0)


@pytest.mark.parametrize("seed", sorted(UNCERTIFIED_N4))
def test_genericity_e_refuses_the_flats_whose_system_is_too_big(seed):
    flats = [Flat(j, tuple(QQ.from_int(v) for v in a)) for j, a in enumerate(UNCERTIFIED_N4[seed])]
    dual = [Flat(j, tuple(col)) for j, col in enumerate(zip(*(f.a for f in flats)))]
    assert maps.linear_system_dimension(flats, 4, QQ) == 6
    assert maps.linear_system_dimension(dual, 4, QQ) == 9
    assert projgeo.genericity_check(flats, QQ).failures == [
        "e: restriction bound on A is None, expected 5",
        "e: restriction bound on Aᵀ is None, expected 5",
    ]


def test_seed_50_re_rolls_to_flats_that_verify():
    inst = random_general_flats(4, 50, QQ)
    assert inst.retries >= 1
    assert checks.run_suite(inst, level="fast").ok


@pytest.mark.parametrize("field", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_component_off_the_system_fails_basis_through_run_suite(field):
    inst = random_general_flats(3, 4, field)
    vmap, inv = checks.build_all(inst)
    vmap.components = list(vmap.components)
    vmap.components[2] = vmap.components[2] + Poly.var(0, 4, field.one) ** 3
    res = by_name(checks.run_suite(inst, vmap, inv, level="fast"))
    # the system itself is unchanged, so its dimension still passes and is
    # handed on; the basis check must still tie the component to x_2·Q_2
    assert res["linear-system-dimension"].status == "pass"
    assert res["basis-property"].status == "fail"
    assert res["basis-property"].witness == {"i": 2, "reason": "stored component differs"}


def test_check_basis_alone_proves_the_dimension():
    inst = random_general_flats(3, 4, QQ)
    vmap, inv = checks.build_all(inst)
    res = checks.check_basis(inst, vmap, record(inst, vmap, inv))
    assert res.status == "pass"
    assert res.witness == {"rank": 4, "dim": 4}


def test_check_basis_ignores_a_dimension_that_did_not_pass(monkeypatch):
    inst = random_general_flats(3, 4, QQ)

    def failed_dimension(inst, proofs):
        return checks._failed("linear-system-dimension", {"degree": 3, "dim": 99})

    monkeypatch.setattr(checks, "check_dimension", failed_dimension)
    res = by_name(checks.run_suite(inst, level="fast"))
    assert res["linear-system-dimension"].witness["dim"] == 99
    assert res["basis-property"].status == "pass"
    assert res["basis-property"].witness == {"rank": 4, "dim": 4}


def test_reports_share_no_proof_across_runs():
    good = random_general_flats(4, 3, QQ)
    bad = _non_general_n4()
    reports = [
        checks.run_suite(inst, level="fast").to_dict() for inst in (good, bad, good, bad)
    ]
    assert reports[0] == reports[2] and reports[1] == reports[3]
    res = {c["name"]: c for c in reports[1]["checks"]}
    assert res["linear-system-dimension"]["witness"] == {"degree": 4, "dim": 6}
    assert res["basis-property"]["status"] == "fail"
    assert res["basis-property"]["witness"] == {"rank": 5, "dim": 6}
    res = {c["name"]: c for c in reports[0]["checks"]}
    assert res["basis-property"]["witness"] == {"rank": 5, "dim": 5}


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "fp"])
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 10**6),
    coords=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
)
def test_round_trip_returns_every_point_exactly(field, n, seed, coords):
    inst = random_general_flats(n, seed, field)
    vmap, inv = checks.build_all(inst)
    res = checks.verify_roundtrip_sample(record(inst, vmap, inv))
    assert res.status == "pass"
    assert res.witness == {
        "identity": "w(v(p)) = ∏Q_i(p)·p, so p returns off the Q_i",
        "proof": "cited from composition",
    }
    # the cited identity at a drawn point off the Q_i, where w∘v = x·∏Q_i
    # is nonzero: it returns
    point = [field.from_int(c) for c in coords[: n + 1]]
    assume(all(q.evaluate(point) for q in vmap.Q))
    p = ProjPoint(point, field)
    image = apply_map(vmap.components, p, field)
    assert apply_map(inv.inverse_components, image, field) == p


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "fp"])
@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 10**6))
def test_the_round_trip_draws_the_points_off_the_q_locus(field, n, seed):
    # a drawn point has no zero coordinate, so v_i(p) = p_i·Q_i(p) vanishes
    # exactly where Q_i does: the components' values pick the points the
    # Q_i's own values pick, and are their images
    vmap, _ = checks.build_all(random_general_flats(n, seed, field))
    rng, q_rng = random.Random(seed), random.Random(seed)
    for _ in range(10):
        p, values = sample_off_locus(vmap, rng)
        assert p == sample_off_q_locus(vmap, q_rng)
        assert values == [x * q.evaluate(p.coords) for x, q in zip(p.coords, vmap.Q)]



# ---- each shared fact is proved once per report ---------------------------

FP31 = FieldCtx.prime(2147483647)


@pytest.mark.parametrize(
    "n, field, level, expected, dual_facts",
    [
        # no component is restricted to a flat: once tied to x_i·det(M_i)
        # its vanishing is cited.  The stored Q_i and the dual Q'_i, read
        # off the stored inverse components with their ties, are proved on
        # a lattice each, so no B is built and no minor is expanded.  The
        # n = 3 family's count reads the record's meet of each of the six
        # pairs.  A and Aᵀ are bounded once each, for genericity (e) and
        # both dimensions
        (
            3, QQ, "full",
            {
                "vanishes_on_flat": 0, "_n3_family": 1, "maximal_minors": 0,
                "build_matrix_B": 0, "flat_meet": 6, "partial": 0, "flats_bound": 2,
            },
            {"lattice": 1, "ties": 1, "dimension": 1, ("bound", "A"): 1},
        ),
        # the same over F_p: each of the 10 pairs of flats met once, by the
        # record, for every check, and no partial but Q_0's five, for the
        # control of `multiplicity`
        (
            4, FP31, "fast",
            {
                "vanishes_on_flat": 0, "_n3_family": 0, "maximal_minors": 0,
                "build_matrix_B": 0, "flat_meet": 10, "partial": 5, "flats_bound": 2,
            },
            {"lattice": 1, "ties": 1, "dimension": 1, ("bound", "A"): 1},
        ),
    ],
    ids=["n3-qq-full", "n4-fp-fast"],
)
def test_each_shared_fact_is_proved_once_per_report(
    monkeypatch, n, field, level, expected, dual_facts
):
    inst = random_general_flats(n, 11, field)
    vmap, inv = checks.build_all(inst)
    calls, built = Counter(), Counter()
    fact = checks.ProofRecord._fact

    def proving(record, key, prove):
        if key not in record._facts:
            # the dual instance's record is the one without inverse data
            built["dual" if record.inv is None else "map", key] += 1
        return fact(record, key, prove)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in (
        (maps, "vanishes_on_flat"),
        (la, "maximal_minors"),
        (maps, "build_matrix_B"),
        (checks, "_n3_family"),
        (checks, "flat_meet"),
        (Poly, "partial"),
        (checks, "flats_bound"),
    ):
        counted(owner, name)
    monkeypatch.setattr(checks.ProofRecord, "_fact", proving)
    # the bounds on A and Aᵀ, the lattice and its proof, the ties, the
    # hypotheses of the zero counts, (at n = 3) the family's count, the meet
    # of each pair of flats and the dual record; then the dual record's own
    # facts, whose bound on b = Aᵀ is the record's on Aᵀ and whose lattice
    # is the record's
    once = {
        ("map", ("bound", "A")): 1,
        ("map", ("bound", "Aᵀ")): 1,
        ("map", "grid"): 1,
        ("map", "lattice"): 1,
        ("map", "ties"): 1,
        ("map", "hypotheses"): 1,
        ("map", "family-count"): int(n == 3),
        **{("map", ("meet", *pair)): 1 for pair in combinations(range(n + 1), 2)},
        ("map", "dual"): 1,
        **{("dual", key): count for key, count in dual_facts.items()},
    }
    assert checks.run_suite(inst, vmap, inv, level=level).ok
    assert {name: calls[name] for name in expected} == expected
    assert {key: built[key] for key in once} == once
    assert sorted((key for role, key in built if role == "dual"), key=str) == sorted(
        (key for key, count in dual_facts.items() if count), key=str
    )
    # a second report of the same instance proves everything again
    assert checks.run_suite(inst, vmap, inv, level=level).ok
    assert {name: calls[name] for name in expected} == {k: 2 * v for k, v in expected.items()}
    assert {key: built[key] for key in once} == {k: 2 * v for k, v in once.items()}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_report_meets_each_pair_of_flats_once(monkeypatch, n):
    # genericity (b) reads the record's meets, and (H2) reads them again at
    # every n >= 3: no module meets a pair of flats a second time
    inst = random_general_flats(n, 11, FP31)
    vmap, inv = checks.build_all(inst)
    pairs = Counter()
    meet = projgeo.flat_meet

    def counted(a, b, ctx):
        pairs[a.j, b.j] += 1
        return meet(a, b, ctx)

    monkeypatch.setattr(projgeo, "flat_meet", counted)
    monkeypatch.setattr(checks, "flat_meet", counted)
    assert checks.run_suite(inst, vmap, inv, level="fast").ok
    assert pairs == Counter(combinations(range(n + 1), 2))


def test_a_build_expands_the_minors_twice_and_a_verify_never(monkeypatch):
    # a build expands the maximal minors of the flats and of the dual
    # flats; a passing verify expands none, and proves each stored Q_i and
    # each Q'_i read off the inverse components by values on a lattice.
    # No polynomial determinant runs Bareiss, and no det(M_i) runs minor_dp
    inst = random_general_flats(4, 11, FP31)
    calls = Counter()
    minors, det = la.maximal_minors, la.det_poly_matrix
    minor_dp, bareiss = la._minor_dp, la._bareiss

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def counted_det(m, strategy="minor_dp"):
        calls[strategy] += 1
        return det(m, strategy)

    monkeypatch.setattr(la, "maximal_minors", counted("maximal_minors", minors))
    monkeypatch.setattr(la, "_minor_dp", counted("_minor_dp", minor_dp))
    monkeypatch.setattr(la, "_bareiss", counted("_bareiss", bareiss))
    monkeypatch.setattr(la, "det_poly_matrix", counted_det)
    vmap, inv = checks.build_all(inst)
    assert calls == {"maximal_minors": 2, "_minor_dp": 2}
    calls.clear()
    assert checks.run_suite(inst, vmap, inv, level="fast").ok
    assert calls == {}


@pytest.mark.parametrize("n", [3, 4], ids=["n3", "n4"])
def test_a_full_verify_substitutes_nothing(monkeypatch, n):
    # composition cites C(v) = B·diag(Q) from the construction and b = Aᵀ,
    # and every transversal is proved inside every Q_k by a count of its
    # zeros, with no Q_k restricted to a line
    inst = random_general_flats(n, 11, QQ)
    vmap, inv = checks.build_all(inst)
    substitute, calls = Poly.substitute, []

    def counted(self, images):
        calls.append(self)
        return substitute(self, images)

    monkeypatch.setattr(Poly, "substitute", counted)
    assert checks.run_suite(inst, vmap, inv, level="full").ok
    assert calls == []


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
@pytest.mark.parametrize("n", [3, 4], ids=["n3", "n4"])
def test_a_shared_transversal_fails_each_check_by_its_own_name(field, n):
    # a Q_2 that is no longer det(M_2) need not vanish on the flats, so
    # neither count can be cited
    inst = random_general_flats(n, 11, field)
    vmap, inv = checks.build_all(inst)
    vmap.Q = list(vmap.Q)
    vmap.Q[2] = vmap.Q[2] + Poly.var(0, n + 1, field.one) ** (n - 1)
    report = checks.run_suite(inst, vmap, inv)
    res = by_name(report)
    for name in ("base-locus", "transversal-sample"):
        assert res[name].name == name
        assert res[name].status == "fail"
        assert res[name].witness == {"k": 2, "reason": "stored Q differs"}
    assert len({id(c) for c in report.checks}) == len(CHECK_ORDER)


# ---- a pair line lies inside every Q_k by a count of its zeros --------------


def _pair_line_params(inst, i, j):
    """Where the line through the pair point of flats i and j meets each
    flat, as `_pair_failure` draws it for a report of the instance."""
    vmap = maps.build_forward_map(inst.flats, inst.ctx)
    q = checks._pair_point(checks.ProofRecord(inst, vmap, None, inst.seed), i, j)
    rest = [f for m, f in enumerate(inst.flats) if m not in (i, j)]
    line = transversal_through(q, rest, inst.ctx).line
    return [meeting_param(line, f) for f in inst.flats]


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
@pytest.mark.parametrize("n, seeds", [(4, range(6)), (5, range(2))], ids=["n4", "n5"])
def test_every_pair_line_the_count_accepts_is_inside_every_q(monkeypatch, field, n, seeds):
    count, lines = checks.meeting_param, []

    def recorded(line, flat):
        lines.append(line)
        return count(line, flat)

    monkeypatch.setattr(checks, "meeting_param", recorded)
    for seed in seeds:
        inst = random_general_flats(n, seed, field)
        vmap, inv = checks.build_all(inst)
        proofs = record(inst, vmap, inv)
        inside = vanishing_on_line(vmap.Q)
        for i, j in combinations(range(n + 1), 2):
            lines.clear()
            assert checks._pair_failure(proofs, i, j) is None
            # the count reads each flat's meeting with one line
            assert len(lines) == n + 1 and len(set(lines)) == 1
            assert inside(lines[0]) == [True] * (n + 1)


def test_a_double_point_counts_twice():
    # the line through flat_0 ∩ flat_2 meets flats 1 and 3 at one point, a
    # double point of Q_0, Q_2 and Q_4 there, so five flats give four
    # points of P^1 and each Q_k still has four zeros
    inst = random_general_flats(4, 112, QQ)
    points = [ProjPoint(param, QQ) for param in _pair_line_params(inst, 0, 2)]
    assert points[1] == points[3] and len(set(points)) == 3
    res = by_name(checks.run_suite(inst, level="fast"))
    assert res["transversal-sample"].status == res["base-locus"].status == "pass"


@pytest.mark.parametrize("seed", [293, 580])
def test_a_flat_that_holds_the_line_puts_it_inside_every_other_q(seed):
    # flat 3 holds the line through each of its pair points, so the line
    # lies inside every Q_k with k != 3, and Q_3 counts the other four flats
    inst = random_general_flats(4, seed, QQ)
    for i in (0, 1, 2, 4):
        params = _pair_line_params(inst, min(i, 3), max(i, 3))
        assert params[3] == "contained"
        others = [ProjPoint(p, QQ) for m, p in enumerate(params) if m != 3]
        assert len(set(others)) == 4
    res = by_name(checks.run_suite(inst, level="fast"))
    assert res["transversal-sample"].status == res["base-locus"].status == "pass"


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
@pytest.mark.parametrize(
    "stub, reason",
    [
        (lambda line, flat, ctx: (ctx.one, ctx.zero), "too few zeros of Q_0"),
        (lambda line, flat, ctx: (ctx.zero, ctx.one) if flat.j >= 2 else meeting_param(line, flat),
         "too few zeros of Q_0"),
        (lambda line, flat, ctx: "contained" if flat.j == 0 else (ctx.one, ctx.zero),
         "too few zeros of Q_0"),
        (lambda line, flat, ctx: None if flat.j == 3 else meeting_param(line, flat),
         "line misses flat 3"),
    ],
    ids=["all-merged", "three-merged", "own-flat-holds", "missed"],
)
def test_the_count_fails_closed_by_name(monkeypatch, field, stub, reason):
    # every flat met at one point leaves each Q_k two zeros, not four;
    # flats 2, 3, 4 met at one point off the pair point leave Q_0 three,
    # one short of the four it needs; flat 0 holding the line says
    # nothing of Q_0, which need not vanish on flat 0; a flat the cone
    # proof says the line meets, missed all the same, is named
    inst = random_general_flats(4, 11, field)
    monkeypatch.setattr(checks, "meeting_param", lambda line, flat: stub(line, flat, field))
    res = by_name(checks.run_suite(inst, level="fast"))
    for name in ("base-locus", "transversal-sample"):
        assert res[name].status == "fail"
        assert res[name].witness == {"pair": [0, 1], "reason": reason}


def test_a_family_through_a_pair_point_counts_the_zeros_of_one_of_its_lines():
    # certified flats whose pair point of flats 1 and 2 has a family of
    # lines through it that meet every flat, not one
    a = [[0, -2, 1, -2, -1], [2, 0, 1, 1, 2], [-1, -1, 0, -1, -1], [-2, -1, 1, 0, 1],
         [1, 2, -1, -1, 0]]
    flats = [Flat(j, tuple(QQ.from_int(v) for v in row)) for j, row in enumerate(a)]
    assert projgeo.genericity_check(flats, QQ).ok
    inst = FlatsInstance(4, 89, 9, QQ, flats)
    vmap, inv = checks.build_all(inst)
    proofs = record(inst, vmap, inv)
    q = checks._pair_point(proofs, 1, 2)
    res = transversal_through(q, [f for m, f in enumerate(inst.flats) if m not in (1, 2)], QQ)
    assert res.kind == "family"
    line = LineParam(q, next(pt for pt in res.basis if pt != q))
    assert vanishing_on_line(vmap.Q)(line) == [True] * 5
    assert checks._pair_failure(proofs, 1, 2) is None
    report = checks.run_suite(inst, vmap, inv, level="fast")
    assert report.summary == "12 passed, 0 failed, 1 skipped"


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
def test_a_pair_point_with_no_transversal_fails_the_count_by_name(monkeypatch, field):
    inst = random_general_flats(4, 11, field)
    monkeypatch.setattr(
        checks, "transversal_through", lambda q, flats, ctx: projgeo.TransversalResult("none")
    )
    res = by_name(checks.run_suite(inst, level="fast"))
    reason = "no line through the pair point meets every flat"
    for name in ("base-locus", "transversal-sample"):
        assert (res[name].status, res[name].witness) == ("fail", {"pair": [0, 1], "reason": reason})


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
def test_a_crashed_proof_crashes_every_check_that_reads_it(monkeypatch, field):
    inst = random_general_flats(3, 11, field)
    vmap, inv = checks.build_all(inst)

    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "flats_bound", crash)
    report = checks.run_suite(inst, vmap, inv)
    failed = [c for c in report.checks if c.status == "fail"]
    # the checks that read a restriction bound: genericity (e) and the
    # degree-n dimension, the map's or the dual's
    assert [c.name for c in failed] == [
        "genericity", "linear-system-dimension", "basis-property", "dual-dimension"
    ]
    assert all(c.witness == {"error": "RuntimeError: boom"} for c in failed)


# ---- the construction's invariants hold on every canonical instance --------

NONZERO = st.one_of(
    st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5)
).filter(bool)


@st.composite
def canonical_coefficients(draw, top=5):
    """Coefficients of n+1 canonical flats of P^n, 2 <= n <= top, that have
    not been through genericity."""
    n = draw(st.integers(2, top))
    return [[0 if i == j else draw(NONZERO) for i in range(n + 1)] for j in range(n + 1)]


def _prod(values, ctx):
    out = ctx.one
    for v in values:
        out = out * v
    return out


def _vertex(k, n1, ctx):
    return [ctx.one if m == k else ctx.zero for m in range(n1)]


def _vertex_value_of_q(a, i, k, ctx):
    """Q_i(e_k) in closed form, with j0 the first index other than i."""
    n1 = len(a)
    j0 = 1 if i == 0 else 0
    if k == i:
        return _prod((-a[j][i] for j in range(n1) if j != i), ctx)
    rest = _prod((-a[m][k] for m in range(n1) if m not in (i, j0, k)), ctx)
    if k == j0:
        return -a[j0][i] * rest
    return a[j0][k] * a[k][i] * rest


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@settings(max_examples=20, deadline=None)
@given(coeffs=canonical_coefficients())
@example(coeffs=[a for _, a in NON_GENERAL_N4])
def test_det_b_is_x_times_the_column_sum_determinant(ctx, coeffs):
    # the construction tests none of these invariants, since maps proves
    # them for canonical flats; each is asserted here with the predicate
    # the construction once tested it by
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in enumerate(coeffs)]
    a = [f.a for f in flats]
    n1 = len(flats)
    n = n1 - 1
    b = maps.build_matrix_B(flats, ctx)
    vmap = maps.build_forward_map(flats, ctx)
    for i, q in enumerate(vmap.Q):
        expected = Poly.var(i, n1, ctx.one) * q
        minor = maps.minor_matrix(b, i)
        assert la.det_poly_matrix(minor, "minor_dp") == expected
        assert la.det_poly_matrix(minor, "bareiss") == expected
        assert vmap.components[i] == expected
        assert q.degree() == n - 1 and is_homogeneous(q)
        assert expected.degree() == n and is_homogeneous(expected)
        for j in range(n1):
            assert j == i or maps.vanishes_on_flat(q, flats[j], ctx)
            # `basis-property` and `base-locus` cite this and the rank below
            assert maps.vanishes_on_flat(expected, flats[j], ctx)
        for k in range(n1):
            value = q.evaluate(_vertex(k, n1, ctx))
            assert value and value == _vertex_value_of_q(a, i, k, ctx)
    mons = maps.monomials_of_degree(n1, n)
    assert la.rank(coefficient_rows(vmap.components, mons, ctx), ctx) == n1
    inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
    for k in range(n1):
        assert [bool(c) for c in inv.b[k]] == [j != k for j in range(n1)]
        residual = flats[k].form2_poly() * vmap.Q[k]
        for j in range(n1):
            residual = residual - vmap.components[j].scale(inv.b[k][j])
        assert residual.is_zero()
    duals = [Flat(i, tuple(row)) for i, row in enumerate(inv.b)]
    for i, d in enumerate(inv.inverse_components):
        assert duals[i].is_canonical()
        assert d.degree() == n and is_homogeneous(d)
        for j in range(n1):
            assert j == i or maps.vanishes_on_flat(d, duals[j], ctx)
        closed = _prod((-a[i][j] for j in range(n1) if j != i), ctx)
        assert d.evaluate(_vertex(i, n1, ctx)) == closed


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@settings(max_examples=20, deadline=None)
@given(coeffs=canonical_coefficients())
@example(coeffs=[a for _, a in NON_GENERAL_N4])
def test_det_m_is_det_b_over_x_by_both_strategies(ctx, coeffs):
    # determinantal expands det(M_i) and cites det(B_i) = x_i·det(M_i);
    # here det(B_i) is expanded by the Poly-op oracle and divided by x_i
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in enumerate(coeffs)]
    b = maps.build_matrix_B(flats, ctx)
    for i in range(len(flats)):
        want = div_var(det_by_poly_ops(maps.minor_matrix(b, i)), i)
        m = maps.matrix_M(flats, i, b)
        assert la.det_poly_matrix(m, "minor_dp") == want
        assert la.det_poly_matrix(m, "bareiss") == want
        assert maps.compute_Q(flats, i, ctx) == want


# canonical flats of P^4 with coefficients in ±1..±2
SMALL_N4 = [
    [0, -2, 1, -2, -1],
    [2, 0, 1, 1, 2],
    [-1, -1, 0, -1, -1],
    [-2, -1, 1, 0, 1],
    [1, 2, -1, -1, 0],
]


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=15, deadline=None)
@given(coeffs=canonical_coefficients(top=6))
@example(coeffs=[a for _, a in NON_GENERAL_N4])
@example(coeffs=SMALL_N4)
def test_one_dp_gives_every_q_of_the_flats_and_the_dual_flats(ctx, coeffs):
    # compute_all_Q reads every x_r·Q_r off one expansion of the maximal
    # minors of columns 1..n of B, by the cofactor lemma; compute_Q expands
    # each det(M_r) on its own, and Bareiss eliminates it
    a = [[ctx.convert(c) for c in row] for row in coeffs]
    n1 = len(a)
    for rows in (a, [list(col) for col in zip(*a)]):  # the flats, then the dual flats
        flats = [Flat(j, tuple(row)) for j, row in enumerate(rows)]
        b = maps.build_matrix_B(flats, ctx)
        qs, components = maps.compute_all_Q(flats, ctx)
        for r, (q, v) in enumerate(zip(qs, components)):
            assert q == maps.compute_Q(flats, r, ctx)
            assert v == Poly.var(r, n1, ctx.one) * q
            if n1 <= 6:
                assert q == la.det_bareiss(maps.matrix_M(flats, r, b))


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
def test_a_minor_term_without_its_variable_crashes_the_build(monkeypatch, field):
    # a term of x_r·Q_r without x_r contradicts the cofactor lemma, so the
    # builder reads no Q_r off it
    inst = random_general_flats(3, 11, field)
    minors = la.maximal_minors

    def off_by_one(m):
        return {mask: v + Poly.const(field.one, v.nvars) for mask, v in minors(m).items()}

    monkeypatch.setattr(la, "maximal_minors", off_by_one)
    with pytest.raises(ArithmeticError, match="a term of x_0 Q_0 lacks x_0"):
        maps.compute_all_Q(inst.flats, field)


INVERSE_DIFFERS = "stored inverse component differs from det(C_i)"


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
def test_an_inverse_term_without_its_variable_fails_composition_by_name(field):
    # the dual record reads Q'_r off w_r and ties w_r = y_r·Q'_r in the same
    # pass: a term of w_r without y_r fails the ties, not the record
    inst = random_general_flats(3, 11, field)
    vmap, inv = checks.build_all(inst)
    inv.inverse_components = list(inv.inverse_components)
    inv.inverse_components[0] = inv.inverse_components[0] + Poly.const(field.one, 4)
    res = by_name(checks.run_suite(inst, vmap, inv))
    want = {"i": 0, "reason": INVERSE_DIFFERS, "direction": "inverse"}
    assert res["determinantal"].status == "pass"
    assert (res["composition"].status, res["composition"].witness) == ("fail", want)
    assert (res["round-trip"].status, res["round-trip"].witness) == ("fail", want)
    assert res["dual-dimension"].status == "pass"


@pytest.mark.parametrize("n, field", [(3, QQ), (4, FP31)], ids=["n3-qq", "n4-fp"])
def test_a_fault_of_the_inverse_expansion_fails_composition_by_name(monkeypatch, n, field):
    # the builder's expansion goes wrong after the forward map is built, so
    # only the inverse carries the fault; the dual record reads the Q'_i off
    # the stored w_i and proves them on the dual flats' lattice, so a verify
    # that runs the same faulty expansion still finds it
    inst = random_general_flats(n, 5, field)
    vmap = maps.build_forward_map(inst.flats, field)
    compute_all_Q, two = maps.compute_all_Q, field.from_int(2)

    def faulty(flats, ctx):
        qs, components = compute_all_Q(flats, ctx)
        return _scaled(qs, 1, two), _scaled(components, 1, two)

    monkeypatch.setattr(maps, "compute_all_Q", faulty)
    inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
    report = checks.run_suite(inst, vmap, inv, level="fast")
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    want = {"i": 1, "reason": INVERSE_DIFFERS, "direction": "inverse"}
    assert failed == {"composition": want, "round-trip": want}


def test_transversal_sample_reads_every_pair_of_flats(monkeypatch):
    # n = 5 has 15 pairs of flats; a zero count that fails only for the
    # last pair, (4, 5), fails the check by name
    inst = random_general_flats(5, 5, FP31)
    vmap, inv = checks.build_all(inst)
    res = checks.check_transversal_sample(vmap, record(inst, vmap, inv))
    assert (res.status, res.witness["lines"]) == ("pass", 15)
    pair_failure = checks._pair_failure
    wit = {"pair": [4, 5], "reason": "too few zeros of Q_0"}

    def failing(proofs, i, j):
        return wit if (i, j) == (4, 5) else pair_failure(proofs, i, j)

    monkeypatch.setattr(checks, "_pair_failure", failing)
    res = checks.check_transversal_sample(vmap, record(inst, vmap, inv))
    assert (res.status, res.witness) == ("fail", wit)


@st.composite
def small_canonical_coefficients(draw):
    """Coefficients of n+1 canonical flats of P^n, 2 <= n <= 5, nonzero ints
    of absolute value at most a bound of 1..3: small enough that
    non-general instances occur."""
    n = draw(st.integers(2, 5))
    bound = draw(st.integers(1, 3))
    coeff = st.sampled_from([v for v in range(-bound, bound + 1) if v])
    return [[0 if i == j else draw(coeff) for i in range(n + 1)] for j in range(n + 1)]


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=40, deadline=None)
@given(coeffs=small_canonical_coefficients())
@example(coeffs=[a for _, a in NON_GENERAL_N4])
@example(coeffs=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])
def test_the_leave_one_out_dimensions_are_a_lemma_of_the_degree_n_one(ctx, coeffs):
    # check_dimension eliminates only the degree-n system and cites the
    # leave-one-out dimensions; here each is eliminated exactly.  The
    # record holds no map: the lemma reads none
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in enumerate(coeffs)]
    n = len(flats) - 1
    inst = FlatsInstance(n=n, seed=0, bound=3, ctx=ctx, flats=flats)
    res = checks.check_dimension(inst, checks.ProofRecord(inst, None, None, 0))
    dim = maps.linear_system_dimension(flats, n, ctx)
    assert dim >= n + 1  # the lemma's lower bound, in any field
    if dim != n + 1:
        assert (res.status, res.witness) == ("fail", {"degree": n, "dim": dim})
        return
    omitted = [
        maps.linear_system_dimension(flats[:i] + flats[i + 1:], n - 1, ctx)
        for i in range(n + 1)
    ]
    assert omitted == [1] * (n + 1)
    assert (res.status, res.witness) == ("pass", {"dim": n + 1, "omit_dims": omitted})


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=40, deadline=None)
@given(coeffs=st.one_of(small_canonical_coefficients(), canonical_coefficients()))
@example(coeffs=UNCERTIFIED_N4[50])
@example(coeffs=UNCERTIFIED_N4[104])
@example(coeffs=UNCERTIFIED_N4[592])
@example(coeffs=UNCERTIFIED_N4[655])
@example(coeffs=UNCERTIFIED_N4[710])
def test_the_restriction_bound_never_undercounts_the_eliminated_dimension(ctx, coeffs):
    # on A and on Aᵀ, the flats' and the dual flats' system; the lemma of
    # check_dimension gives n+1 from below, so a bound of n+1 is exact
    a = [[ctx.convert(c) for c in row] for row in coeffs]
    n = len(a) - 1
    for rows in (a, [list(col) for col in zip(*a)]):
        bound = projgeo.restriction_bound(rows)
        dim = maps.linear_system_dimension([Flat(j, tuple(r)) for j, r in enumerate(rows)], n, ctx)
        assert bound is None or bound >= dim
        assert bound != n + 1 or dim == n + 1


@pytest.mark.parametrize("field", [QQ, FP31], ids=["qq", "fp"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_passing_verify_eliminates_no_linear_system(monkeypatch, field, n):
    inst = random_general_flats(n, 5, field)
    degrees = []
    dimension = maps.linear_system_dimension

    def counted(flats, d, ctx):
        degrees.append(d)
        return dimension(flats, d, ctx)

    monkeypatch.setattr(maps, "linear_system_dimension", counted)
    assert checks.run_suite(inst, level="fast").ok
    assert degrees == []  # both dimensions are read off the restriction bound


def test_determinantal_fails_by_name_at_a_tampered_lattice_value(monkeypatch):
    inst = random_general_flats(3, 11, QQ)
    vmap, inv = checks.build_all(inst)
    # a tampered lattice value of Q_2, at the sixth point
    values = lattice.form_values
    seen = []

    def tampered(terms, grid):
        v = values(terms, grid)
        seen.append(v)
        if len(seen) == 3:
            v[5] += 1
        return v

    monkeypatch.setattr(lattice, "form_values", tampered)
    res = by_name(checks.run_suite(inst, vmap, inv, level="fast"))
    point = [1, *lattice.grid(3)[0][5]]
    want = {"i": 2, "point": point, "reason": "Q_i differs from det(M_i)"}
    assert (res["determinantal"].status, res["determinantal"].witness) == ("fail", want)


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "fp"])
def test_two_stored_qs_off_det_m_fail_by_the_smaller_index(field):
    # Q_2 differs from det(M_2) at the first lattice point, (1, 0, ..., 0),
    # where Q_1 still agrees: every check that reads the lattice fact names
    # Q_1 all the same
    n = 4
    inst, vmap, inv = _built(n, field)
    qs = list(vmap.Q)
    qs[1] = qs[1] + Poly(n + 1, {(0, n - 1) + (0,) * (n - 1): field.one})
    qs[2] = qs[2] + Poly(n + 1, {(n - 1,) + (0,) * n: field.one})
    res = by_name(checks.run_suite(inst, dataclasses.replace(vmap, Q=qs), inv, level="fast"))
    assert res["determinantal"].status == "fail"
    assert res["determinantal"].witness["i"] == 1
    stored = {"k": 1, "reason": "stored Q differs"}
    for name in ("basis-property", "base-locus", "multiplicity"):
        assert (res[name].status, res[name].witness) == ("fail", stored)


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "fp"])
def test_a_wrong_degree_and_a_changed_value_fail_by_the_smaller_index(field):
    n = 3
    inst, vmap, inv = _built(n, field)
    wrong_degree = Poly(n + 1, {(1,) * (n + 1): field.one})
    changed = Poly(n + 1, {(n - 1,) + (0,) * n: field.one})
    for first, second in ((wrong_degree, changed), (changed, wrong_degree)):
        qs = list(vmap.Q)
        qs[1], qs[2] = qs[1] + first, qs[2] + second
        bad = dataclasses.replace(vmap, Q=qs)
        res = checks.check_determinantal(inst, bad, record(inst, bad, inv))
        if first is wrong_degree:
            want = {"i": 1, "reason": f"a term of degree {n + 1}, not {n - 1}"}
        else:
            want = {"i": 1, "point": [1] + [0] * n, "reason": "Q_i differs from det(M_i)"}
        assert (res.status, res.witness) == ("fail", want)


def test_a_passing_verify_proves_both_lattices_and_expands_no_minor(monkeypatch):
    inst = random_general_flats(4, 11, FP31)
    vmap, inv = checks.build_all(inst)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(checks, "det_m_failure")
    counted(maps, "compute_all_Q")
    counted(la, "maximal_minors")
    assert checks.run_suite(inst, vmap, inv, level="full").ok
    # the stored Q_i on the flats' lattice, the Q'_i on the dual flats'
    assert calls == {"det_m_failure": 2}


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=15, deadline=None)
@given(coeffs=canonical_coefficients())
@example(coeffs=[a for _, a in NON_GENERAL_N4])
@example(coeffs=SMALL_N4)
def test_the_lattice_proves_every_q_of_the_flats_and_the_dual_flats(ctx, coeffs):
    # general instance or not: the record's Q_i pass the lattice proof of
    # `determinantal`, and Bareiss's elimination of each det(M_i) agrees
    a = [[ctx.convert(c) for c in row] for row in coeffs]
    for rows in (a, [list(col) for col in zip(*a)]):  # the flats, then the dual flats
        flats = [Flat(j, tuple(row)) for j, row in enumerate(rows)]
        qs = maps.compute_all_Q(flats, ctx)[0]
        assert lattice.det_m_failure(flats, qs, ctx.p, lattice.grid(len(flats) - 1)) is None
        b = maps.build_matrix_B(flats, ctx)
        for r, q in enumerate(qs):
            assert q == la.det_bareiss(maps.matrix_M(flats, r, b))


@st.composite
def changed_coefficient(draw):
    """A built map of seed 5, n = 2..5, with one coefficient of one Q_k,
    of any monomial of degree n-1, changed by a nonzero delta."""
    field = draw(st.sampled_from(FIELDS), label="field")
    n = draw(st.integers(2, 5), label="n")
    inst, vmap, inv = _built(n, field)
    k = draw(st.integers(0, n), label="k")
    e = draw(st.sampled_from(maps.monomials_of_degree(n + 1, n - 1)), label="e")
    delta = field.from_int(draw(st.integers(1, 9), label="delta"))
    qs = list(vmap.Q)
    qs[k] = qs[k] + Poly(n + 1, {e: delta})
    return inst, dataclasses.replace(vmap, Q=qs), inv, k


@settings(max_examples=60, deadline=None)
@given(case=changed_coefficient())
def test_any_changed_coefficient_fails_determinantal_at_a_named_lattice_point(case):
    inst, vmap, inv, k = case
    res = checks.check_determinantal(inst, vmap, record(inst, vmap, inv))
    assert res.status == "fail"
    point = res.witness.pop("point")
    assert res.witness == {"i": k, "reason": "Q_i differs from det(M_i)"}
    assert point[0] == 1 and tuple(point[1:]) in lattice.grid(inst.n)[0]


@pytest.mark.parametrize("field", FIELDS, ids=["qq", "fp"])
@pytest.mark.parametrize("n", [2, 4])
def test_a_q_term_of_the_wrong_degree_fails_determinantal_by_name(field, n):
    inst, vmap, inv = _built(n, field)
    for extra in ((0,) * (n + 1), (1,) * (n + 1)):
        qs = list(vmap.Q)
        qs[1] = qs[1] + Poly(n + 1, {extra: field.one})
        bad = dataclasses.replace(vmap, Q=qs)
        res = checks.check_determinantal(inst, bad, record(inst, bad, inv))
        reason = f"a term of degree {sum(extra)}, not {n - 1}"
        assert (res.status, res.witness) == ("fail", {"i": 1, "reason": reason})


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@settings(max_examples=20, deadline=None)
@given(coeffs=canonical_coefficients())
@example(coeffs=[a for _, a in NON_GENERAL_N4])
def test_the_inverse_is_the_map_of_the_dual_flats(ctx, coeffs):
    # build_inverse_map expands no det(C_i): it is the forward map of the
    # rows of b, and C^T = Y·B'·Y^-1 makes its components the det(C_i)
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in enumerate(coeffs)]
    vmap = maps.build_forward_map(flats, ctx)
    inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
    c = matrix_C(vmap, inv)
    for i, w in enumerate(inv.inverse_components):
        assert w == la.det_poly_matrix(maps.minor_matrix(c, i), "bareiss")
    # an involution: the dual flats' b-matrix is A again
    dual = maps.build_forward_map([Flat(i, tuple(row)) for i, row in enumerate(inv.b)], ctx)
    assert maps.solve_b_matrix(dual).b == [list(f.a) for f in flats]


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=20, deadline=None)
@given(coeffs=small_canonical_coefficients())
@example(coeffs=[a for _, a in NON_GENERAL_N4])
@example(coeffs=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])
def test_b_is_a_transposed_and_c_of_v_factors_on_every_canonical_instance(ctx, coeffs):
    # `b-matrix` and `composition` test b = Aᵀ and cite the expansion
    # f_i·Q_i = sum_j b_{i,j}·v_j of `maps.solve_b_matrix`; here every
    # entry of C(v) − B·diag(Q) is expanded, general instance or not
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in enumerate(coeffs)]
    vmap = maps.build_forward_map(flats, ctx)
    inv = maps.solve_b_matrix(vmap)
    n1 = len(flats)
    assert inv.b == [[flats[j].a[i] for j in range(n1)] for i in range(n1)]
    assert [mk for mk, r in factorization_entries(vmap, inv) if r] == []


# ---- transversals meet their flats on every canonical instance -------------

SMALL = st.integers(-3, 3)


def _query_and_point(data, flats, ctx):
    """A query of flats and a point: a random one, or (from n = 4 on) one
    in the span of the pairwise intersections of three queried flats, where
    a family of transversals lives."""
    n1 = len(flats)
    if n1 >= 5 and data.draw(st.booleans(), label="pencil"):
        three = st.lists(st.sampled_from(flats), min_size=3, max_size=3, unique=True)
        query = data.draw(three)
        pts = [
            pt
            for a in range(3)
            for b in range(a + 1, 3)
            for pt in flat_intersection(query[a], query[b], ctx)
        ]
        coords = [
            sum((ctx.convert(data.draw(SMALL)) * pt[k] for pt in pts), ctx.zero)
            for k in range(n1)
        ]
        if any(coords):
            return query, ProjPoint(coords, ctx)
    else:
        query = [f for f in flats if data.draw(st.booleans())]
    coords = data.draw(st.lists(SMALL, min_size=n1, max_size=n1).filter(any), label="p")
    return query, ProjPoint([ctx.from_int(c) for c in coords], ctx)


def _row_times(flat, p, vec):
    """The cone row of `flat` at the parametrized point p, times vec:
    x_j(p)·f_j(vec) − f_j(p)·x_j(vec), over binary forms."""
    def f2(v):
        return sum((v[k].scale(c) for k, c in enumerate(flat.a) if c), Poly.zero(2))

    return p[flat.j] * f2(vec) - f2(p) * vec[flat.j]


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@settings(max_examples=50, deadline=None)
@given(coeffs=canonical_coefficients(), data=st.data())
def test_transversals_meet_every_queried_flat(ctx, coeffs, data):
    # transversal_through and _n3_family test none of this: the cone
    # hyperplanes prove it for canonical flats, general or not
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in enumerate(coeffs)]
    query, p = _query_and_point(data, flats, ctx)
    res = transversal_through(p, query, ctx)
    lines = []
    if res.kind == "unique":
        assert res.line.base == p
        lines = [res.line]
    elif res.kind == "family":
        weights = [ctx.from_int(data.draw(SMALL)) for _ in res.basis]
        combo = [
            sum((w * b[k] for w, b in zip(weights, res.basis)), ctx.zero)
            for k in range(len(p))
        ]
        ends = [*res.basis, *([ProjPoint(combo, ctx)] if any(combo) else [])]
        lines = [LineParam(p, e) for e in ends if e != p]
    for line in lines:
        for f in query:
            assert meeting_param(line, f) is not None
    if len(flats) == 4:
        m, pf, w = checks._n3_family(flats, ctx)
        for f in flats[1:3]:
            assert _row_times(f, pf, pf).is_zero()
            assert _row_times(f, pf, w).is_zero()
        # _family_lines tests no meeting and transversal-sample restricts
        # no Q_i to an explicit line: where the count passes, each line at
        # a root of m meets all four flats and lies inside every Q_i
        vmap = maps.build_forward_map(flats, ctx)
        proofs = checks.ProofRecord(FlatsInstance(3, 0, 9, ctx, flats), vmap, None, 0)
        if checks._family_failure(proofs) is None:
            for line in checks._family_lines(ctx, m, pf, w):
                assert all(meeting_param(line, f) is not None for f in flats)
                assert all(line_restrict(q, line).is_zero() for q in vmap.Q)
