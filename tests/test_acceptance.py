"""Acceptance gate: thirteen numbered criteria, one test (and one verbose
output line) per criterion.  Every mathematical assertion is exact; the only
tolerances anywhere are wall-clock budgets, asserted against measured time.
"""

import json
import time

from veneroni import checks, cli, maps
from veneroni import exactla as la
from veneroni.mpoly import Poly
from veneroni.projgeo import (
    ProjPoint,
    meeting_param,
    random_general_flats,
    transversal_through,
)
from veneroni.scalar import FieldCtx, seeded_rng

from oracles import div_var, flat_intersection, roundtrip_sample

QQ = FieldCtx.rationals()
M61 = 2305843009213693951

SEEDS = (1, 2, 3, 4, 5)

_forward = {}
_full = {}


def fwd(n, seed):
    """Instance and forward map, shared across criteria."""
    key = (n, seed)
    if key not in _forward:
        inst = random_general_flats(n, seed, QQ)
        _forward[key] = (inst, maps.build_forward_map(inst.flats, QQ))
    return _forward[key]


def full(n, seed):
    """Instance, forward map, and inverse, shared across criteria."""
    key = (n, seed)
    if key not in _full:
        inst, vmap = fwd(n, seed)
        inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
        _full[key] = (inst, vmap, inv)
    return _full[key]


def record(inst, vmap, inv=None):
    """A fresh proof record for the checks that read one, as a report has;
    checks that read no inverse data may leave it out."""
    return checks.ProofRecord(inst, vmap, inv, inst.seed)


def test_criterion_01_determinantal_structure():
    t0 = time.monotonic()
    t_through_4 = None
    for n in (2, 3, 4, 5):
        if n == 5:
            t_through_4 = time.monotonic() - t0
        for seed in SEEDS:
            inst, vmap = fwd(n, seed)
            b = maps.build_matrix_B(inst.flats, QQ)
            for i in range(n + 1):
                det = la.det_poly_matrix(maps.minor_matrix(b, i), "minor_dp")
                q = div_var(det, i)  # raises unless exactly divisible by x_i
                assert q * Poly.var(i, n + 1, QQ.one) == det
                assert q == vmap.Q[i]
                assert q.degree() == n - 1
                for j in range(n + 1):
                    if j != i:
                        assert maps.vanishes_on_flat(q, inst.flats[j], QQ)
                for k in range(n + 1):
                    vertex = [QQ.one if m == k else QQ.zero for m in range(n + 1)]
                    assert bool(q.evaluate(vertex))
    elapsed = time.monotonic() - t0
    assert t_through_4 < 60.0
    assert elapsed - t_through_4 < 600.0


def test_criterion_02_linear_system_dimensions():
    for n in (2, 3, 4, 5):
        for seed in SEEDS:
            inst, _ = fwd(n, seed)
            assert maps.linear_system_dimension(inst.flats, n, QQ) == n + 1
            # the leave-one-out systems take the exact elimination: the
            # oracle of the lemma that `checks.check_dimension` cites
            for omit in range(n + 1):
                rest = [f for j, f in enumerate(inst.flats) if j != omit]
                assert maps.linear_system_dimension(rest, n - 1, QQ) == 1


def test_criterion_03_b_matrix_laws():
    for n in (2, 3, 4, 5):
        inst, vmap, inv = full(n, 1)
        for i in range(n + 1):
            for j in range(n + 1):
                assert bool(inv.b[i][j]) == (i != j)
        # the defining expansion must re-verify with zero residual
        res = checks.check_b_matrix(record(inst, vmap, inv))
        assert res.status == "pass", res.witness


def test_criterion_04_composition_identity():
    for n in (2, 3, 4, 5):
        inst, vmap, inv = full(n, 1)
        t0 = time.monotonic()
        res = checks.verify_composition(vmap, record(inst, vmap, inv))
        elapsed = time.monotonic() - t0
        assert res.status == "pass", res.witness
        assert res.witness["mode"] == "factorization"
        assert res.witness["entries"] == (n + 1) ** 2
        if n >= 4:
            assert elapsed < 300.0


def test_criterion_05_round_trip():
    # the report cites w(v(p)) = p from the composition proof; the oracle
    # maps 20 sampled points there and back
    for n in (2, 3, 4, 5):
        inst, vmap, inv = full(n, 1)
        report = checks.run_suite(inst, vmap, inv, level="fast")
        row = next(c for c in report.checks if c.name == "round-trip")
        assert row.status == "pass", row.witness
        assert row.witness["proof"] == "cited from composition"
        res = roundtrip_sample(vmap, inv, k=20, seed=1)
        assert res.status == "pass", res.witness
        assert res.witness == {"samples": 20, "distinct_images": True}


def test_criterion_06_class_matrix_involution():
    for n in range(2, 11):
        m = maps.class_matrix(n)
        size = len(m)
        assert size == n + 2
        square = [
            [sum(m[i][t] * m[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)
        ]
        identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        assert square == identity


def test_criterion_07_transversal_geometry():
    for n in (2, 3, 4, 5):
        inst, _ = fwd(n, 1)
        queried = inst.flats[: n - 1]
        rng = seeded_rng(1, "acceptance-transversal", n)
        for _ in range(20):
            p = ProjPoint([QQ.random_nonzero(rng) for _ in range(n + 1)], QQ)
            res = transversal_through(p, list(queried), QQ)
            assert res.kind == "unique"
            params = [meeting_param(res.line, f) for f in queried]
            assert all(m is not None for m in params)
            for a in range(len(params)):
                for b in range(a + 1, len(params)):
                    s1, t1 = params[a]
                    s2, t2 = params[b]
                    assert bool(s1 * t2 - s2 * t1)  # projectively distinct
    # pencil configuration: the plane through the three pairwise
    # intersection points of flats 2, 3, 4 in P^4
    inst, _ = fwd(4, 1)
    pts = [
        flat_intersection(inst.flats[i], inst.flats[j], QQ)[0]
        for i, j in ((2, 3), (2, 4), (3, 4))
    ]
    rng = seeded_rng(1, "acceptance-pencil")
    combo = [QQ.random_nonzero(rng) for _ in pts]
    q = ProjPoint(
        [sum((c * s[m] for c, s in zip(combo, pts)), QQ.zero) for m in range(5)], QQ
    )
    res = transversal_through(q, [inst.flats[i] for i in (2, 3, 4)], QQ)
    assert res.kind == "family"
    assert res.dim == 2


def test_criterion_08_two_transversals_in_p3():
    for seed in SEEDS:
        inst, _ = fwd(3, seed)
        m, failure, _ = checks.transversal_lines_n3(inst.flats, QQ)
        assert m.degree() == 2
        assert failure is None


def test_criterion_09_multiplicity_two():
    inst, vmap = fwd(4, 1)
    res = checks.check_multiplicity(vmap, record(inst, vmap))
    assert res.status == "pass", res.witness
    # 10 pairs, each meeting in a point, along which every Q_k with k off
    # the pair lies in the square of the pair's ideal
    assert res.witness == {"pairs": 10, "mode": "ideal product", "control": "nonzero gradient"}


def test_criterion_10_residual_plane_example():
    for seed in SEEDS:
        inst, vmap = fwd(4, seed)
        qs = [maps.compute_Q(inst.flats, i, QQ) for i in (0, 1)]
        meet = record(inst, vmap).meet
        res = checks.residual_component_example(inst.flats, qs, meet, QQ, seed)
        assert res.status == "pass", res.witness
        assert res.witness["on_Q0_Q1"]
        assert res.witness["anchor_lines"] == 2
        assert res.witness["five_flat_transversal"] == "none"


def test_criterion_11_transversals_inside_every_q():
    # n = 3: exactly two transversals exist, so the whole family is proved
    # at once by a count of zeros and the split-field instances also check
    # the two explicit lines; n = 4, 5: at least five literal sampled lines.
    for seed in SEEDS:
        inst, vmap = fwd(3, seed)
        res = checks.check_transversal_sample(vmap, record(inst, vmap))
        assert res.status == "pass", res.witness
        assert res.witness["transversal_count"] == 2
    ctx = FieldCtx.prime(M61)
    finst = random_general_flats(3, 2, ctx)
    fmap = maps.build_forward_map(finst.flats, ctx)
    res = checks.check_transversal_sample(fmap, record(finst, fmap))
    assert res.status == "pass", res.witness
    assert res.witness["explicit_lines"] == 2
    for n in (4, 5):
        inst, vmap = fwd(n, 1)
        res = checks.check_transversal_sample(vmap, record(inst, vmap))
        assert res.status == "pass", res.witness
        assert res.witness["lines"] >= 5


def test_criterion_12_mutation_sensitivity():
    # criterion 1 check: perturbing one flat coefficient must break the
    # determinantal comparison
    inst, vmap, inv = full(3, 1)
    bad_inst = random_general_flats(3, 1, QQ)
    a = list(bad_inst.flats[1].a)
    a[0] = a[0] + QQ.one
    from veneroni.projgeo import Flat

    bad_inst.flats[1] = Flat(1, tuple(a))
    res = checks.check_determinantal(bad_inst, vmap, record(bad_inst, vmap, inv))
    assert res.status == "fail"

    # criterion 3 check: perturbing one b entry must break the expansion
    bad_b = [row[:] for row in inv.b]
    bad_b[0][1] = bad_b[0][1] + QQ.one
    bad_inv = maps.InverseData(b=bad_b, inverse_components=inv.inverse_components)
    res = checks.check_b_matrix(record(inst, vmap, bad_inv))
    assert res.status == "fail"

    # criterion 4 check: the same b perturbation must break the composition
    res = checks.verify_composition(vmap, record(inst, vmap, bad_inv))
    assert res.status == "fail"
    # ... as must tampering with a stored inverse component directly
    bad_inv2 = maps.InverseData(
        b=[row[:] for row in inv.b],
        inverse_components=[c.scale(QQ.from_int(2)) if i == 0 else c
                            for i, c in enumerate(inv.inverse_components)],
    )
    res = checks.verify_composition(vmap, record(inst, vmap, bad_inv2))
    assert res.status == "fail"


def test_criterion_13_determinism_and_strategy_agreement(tmp_path):
    # byte-identical artifacts for generate + build + verify across two runs
    artifacts = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        flats = d / "flats.json"
        built = d / "map.json"
        report = d / "report.json"
        assert cli.main(["generate", "-n", "3", "--seed", "7", "-o", str(flats)]) == 0
        assert cli.main(["build", "-i", str(flats), "-o", str(built)]) == 0
        assert cli.main(["verify", "-i", str(built), "-o", str(report)]) == 0
        artifacts.append(
            (flats.read_bytes(), built.read_bytes(), report.read_bytes())
        )
    assert artifacts[0] == artifacts[1]
    report_doc = json.loads(artifacts[0][2])
    assert "failed" not in report_doc["summary"].replace("0 failed", "")

    # the two determinant strategies agree exactly wherever both run
    for n, seeds in ((2, SEEDS[:3]), (3, SEEDS[:3]), (4, SEEDS[:3]), (5, (1,))):
        for seed in seeds:
            inst, _ = fwd(n, seed)
            b = maps.build_matrix_B(inst.flats, QQ)
            for i in range(n + 1):
                minor = maps.minor_matrix(b, i)
                assert la.det_poly_matrix(minor, "minor_dp") == la.det_poly_matrix(
                    minor, "bareiss"
                )
