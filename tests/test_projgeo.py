import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veneroni import exactla as la
from veneroni import projgeo
from veneroni.mpoly import Poly
from veneroni.projgeo import (
    Flat,
    FlatsInstance,
    LineParam,
    ProjPoint,
    cone_hyperplane,
    flat_meet,
    genericity_check,
    meeting_param,
    parametrize_flat,
    random_general_flats,
    restriction_bound,
    transversal_through,
)
from veneroni.scalar import FieldCtx, seeded_rng

from oracles import (
    flat_contains,
    flat_intersection,
    flat_span,
    line_restrict,
    random_scalar,
    restrict_to_span,
    vanishing_on_line,
)

QQ = FieldCtx.rationals()


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def distinct_meetings(params):
    """True when the meeting parameters (s, t) are pairwise distinct points
    of P^1, the line meets every flat and lies inside none."""
    seen = []
    for m in params:
        if m is None or m == "contained" or any(s * m[1] == t * m[0] for s, t in seen):
            return False
        seen.append(m)
    return True


@pytest.fixture(scope="module")
def flats4():
    return random_general_flats(4, 42, QQ).flats


@pytest.fixture(scope="module")
def flats3():
    return random_general_flats(3, 42, QQ).flats


def rand_point(n, rng, ctx=QQ):
    return ProjPoint([ctx.random_nonzero(rng) for _ in range(n + 1)], ctx)


def vertex(n, k, ctx):
    return ProjPoint([ctx.one if i == k else ctx.zero for i in range(n + 1)], ctx)


def test_point_normalization_and_parse():
    p = ProjPoint([QQ.zero, QQ.from_int(3), QQ.from_int(-6)], QQ)
    assert p.coords == (0, 1, -2)
    assert p == ProjPoint.parse("0,-1/2,1", QQ)
    assert p.format() == "0,1,-2"
    q = ProjPoint.parse("1,2/3,0,5,1", QQ)
    assert len(q) == 5 and str(q[1]) == "2/3"
    with pytest.raises(ValueError):
        ProjPoint([QQ.zero, QQ.zero], QQ)
    with pytest.raises(ValueError):
        ProjPoint.parse("7", QQ)


def test_random_flats_canonical_and_deterministic():
    a = random_general_flats(2, 9, QQ)
    b = random_general_flats(2, 9, QQ)
    assert [f.a for f in a.flats] == [f.a for f in b.flats]
    assert a.retries == b.retries
    for f in a.flats:
        assert f.is_canonical()
        assert not f.a[f.j]
    c = random_general_flats(2, 10, QQ)
    assert [f.a for f in c.flats] != [f.a for f in a.flats]


def test_instance_roundtrip_through_dict():
    inst = random_general_flats(3, 77, QQ)
    d = inst.to_dict("0.0-test")
    back = FlatsInstance.from_dict(d)
    assert back.n == 3 and back.seed == 77
    assert [f.a for f in back.flats] == [f.a for f in inst.flats]
    bad = inst.to_dict("0.0-test")
    bad["flats"][1]["f2"][0] = "0"
    with pytest.raises(ValueError):
        FlatsInstance.from_dict(bad)


def test_pairwise_intersections(flats4, flats3):
    # in P^4 two general flats meet in a point; in P^3 they are disjoint
    for i in range(5):
        for j in range(i + 1, 5):
            pts = flat_intersection(flats4[i], flats4[j], QQ)
            assert len(pts) == 1
            assert flat_contains(flats4[i], pts[0]) and flat_contains(flats4[j], pts[0])
    for i in range(4):
        for j in range(i + 1, 4):
            assert flat_intersection(flats3[i], flats3[j], QQ) == []
    # a flat with itself is the whole flat
    assert len(flat_intersection(flats4[0], flats4[0], QQ)) == 3


def test_parametrize_flat(flats4):
    f = flats4[1]
    pts = parametrize_flat(f, QQ)
    assert len(pts) == 3  # n-1 spanning points
    for p in pts:
        assert flat_contains(f, p)
    # substituting the parametrization kills both defining forms
    x1 = Poly.var(1, 5, QQ.one)
    assert restrict_to_span(x1, pts).is_zero()
    assert restrict_to_span(f.form2_poly(), pts).is_zero()
    # but not a random linear form
    rng = random.Random(4)
    probe = Poly.from_linear([QQ.random_nonzero(rng) for _ in range(5)])
    assert not restrict_to_span(probe, pts).is_zero()


def test_cone_hyperplane(flats4):
    rng = seeded_rng(3, "cone")
    f = flats4[2]
    p = rand_point(4, rng)
    c = cone_hyperplane(p, f)
    assert c is not None
    assert not mat_vec([c], list(p))[0]  # vanishes at p
    cpoly = Poly.from_linear(c)
    assert restrict_to_span(cpoly, flat_span(f, QQ)).is_zero()
    # a point on the flat gives a vacuous constraint
    on_flat = parametrize_flat(f, QQ)[0]
    assert cone_hyperplane(on_flat, f) is None


def test_unique_transversal_and_meetings(flats4):
    rng = seeded_rng(8, "t")
    for _ in range(10):
        p = rand_point(4, rng)
        res = transversal_through(p, flats4[:3], QQ)  # n-1 = 3 flats
        assert res.kind == "unique"
        line = res.line
        meetings = [meeting_param(line, f) for f in flats4[:3]]
        assert len(meetings) == 3 and distinct_meetings(meetings)
        # the algebraic meeting condition, checked independently
        for f in flats4[:3]:
            m = [mat_vec(f.form_rows(QQ), list(pt)) for pt in (line.base, line.dir)]
            assert m[0][0] * m[1][1] == m[0][1] * m[1][0]
        # the line passes through p
        assert la.rank([list(line.base), list(line.dir), list(p)], QQ) == 2


def test_transversal_none_with_all_flats(flats4):
    rng = seeded_rng(12, "none")
    for _ in range(5):
        p = rand_point(4, rng)
        assert transversal_through(p, flats4, QQ).kind == "none"


def test_pencil_configuration(flats4):
    # the plane through the three pairwise intersection points of flats
    # 2, 3, 4 carries a pencil of transversals through each of its points
    pts = [
        flat_intersection(flats4[i], flats4[j], QQ)[0]
        for i, j in ((2, 3), (2, 4), (3, 4))
    ]
    rng = seeded_rng(5, "pencil")
    for _ in range(4):
        combo = [QQ.random_nonzero(rng) for _ in range(3)]
        q = ProjPoint(
            [
                sum((c * p[i] for c, p in zip(combo, pts)), QQ.zero)
                for i in range(5)
            ],
            QQ,
        )
        res = transversal_through(q, [flats4[2], flats4[3], flats4[4]], QQ)
        assert res.kind == "family"
        assert res.dim == 2  # the solution span is the whole plane


def test_family_members_meet_all_queried(flats4):
    pts = [
        flat_intersection(flats4[i], flats4[j], QQ)[0]
        for i, j in ((2, 3), (2, 4), (3, 4))
    ]
    q = ProjPoint([sum((p[i] for p in pts), QQ.zero) for i in range(5)], QQ)
    res = transversal_through(q, [flats4[2], flats4[3], flats4[4]], QQ)
    assert res.kind == "family"
    for b in res.basis:
        if b == q:
            continue
        line = LineParam(q, b)
        for f in (flats4[2], flats4[3], flats4[4]):
            assert meeting_param(line, f) is not None


def test_transversal_projective_invariance(flats3):
    # transform the whole configuration by a random invertible change and
    # check the transversal of the image is the image of the transversal,
    # at the level of meeting conditions
    rng = seeded_rng(21, "inv")
    n1 = 4
    while True:
        m = [[random_scalar(QQ, rng) for _ in range(n1)] for _ in range(n1)]
        if la.det_poly_matrix(m):
            break
    p = rand_point(3, rng)
    res = transversal_through(p, flats3[:2], QQ)
    assert res.kind == "unique"
    # carry the line over: points transform by m
    mapped = LineParam(
        ProjPoint(mat_vec(m, list(res.line.base)), QQ),
        ProjPoint(mat_vec(m, list(res.line.dir)), QQ),
    )
    # flats transform by composing their forms with m^{-1}; build the
    # image flats from two transformed spanning point sets instead
    for f in flats3[:2]:
        span = parametrize_flat(f, QQ)
        image_span = [ProjPoint(mat_vec(m, list(s)), QQ) for s in span]
        # mapped line must meet the image flat: the stacked system of the
        # line's two points and the image span loses rank
        rows = [list(mapped.base), list(mapped.dir)] + [list(s) for s in image_span]
        assert la.rank(rows, QQ) < 4


def test_meeting_param_cases(flats4):
    f = flats4[0]
    span = parametrize_flat(f, QQ)
    inside = LineParam(span[0], span[1])
    assert meeting_param(inside, f) == "contained"
    rng = seeded_rng(9, "miss")
    p, q = rand_point(4, rng), rand_point(4, rng)
    line = LineParam(p, q)
    # a random line in P^4 misses a codim-2 flat
    assert meeting_param(line, f) is None


def test_line_restriction_of_a_quadric(flats4):
    rng = seeded_rng(14, "lr")
    p = rand_point(4, rng)
    res = transversal_through(p, flats4[:3], QQ)
    # x_0·f_0 vanishes on flat 0, which the transversal meets in one point
    q = flats4[0].form2_poly() * Poly.var(0, 5, QQ.one)
    b = line_restrict(q, res.line)
    assert b.nvars == 2 and b.degree() == 2
    assert vanishing_on_line([q])(res.line) == [False]


SMALL = st.integers(-4, 4)


@st.composite
def line_and_polys(draw, ctx):
    """A line of P^n, n = 2..4, and polynomials L·r + t with L a linear form
    vanishing on the line; r and t are non-homogeneous, t often zero."""
    n1 = draw(st.integers(3, 5), label="n + 1")
    coords = st.lists(SMALL, min_size=n1, max_size=n1)
    base = draw(coords.filter(any), label="base")

    def independent(v):
        return any(base[a] * v[b] != base[b] * v[a] for a in range(n1) for b in range(a))

    direction = draw(coords.filter(independent), label="dir")
    base, direction = ([ctx.from_int(c) for c in v] for v in (base, direction))
    line = LineParam(ProjPoint(base, ctx), ProjPoint(direction, ctx))
    kernel = la.nullspace([base, direction], n1, ctx)
    weights = draw(st.lists(SMALL, min_size=len(kernel), max_size=len(kernel)), label="L")
    form = Poly.from_linear(
        [sum((w * v[i] for w, v in zip(weights, kernel)), ctx.zero) for i in range(n1)]
    )
    exps = st.tuples(*[st.integers(0, 2)] * n1)

    def poly(max_size):
        terms = draw(st.dictionaries(exps, SMALL, max_size=max_size))
        return Poly(n1, {e: ctx.from_int(c) for e, c in terms.items()})

    polys = [form * poly(4) + poly(2) for _ in range(draw(st.integers(1, 3)))]
    return line, form, polys


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_vanishing_on_line_agrees_with_substitution(ctx, data):
    line, form, polys = data.draw(line_and_polys(ctx))
    expected = [line_restrict(q, line).is_zero() for q in polys]
    assert vanishing_on_line(polys)(line) == expected
    # multiples of L vanish on the line whatever the cofactor
    members = [form * q for q in polys]
    assert vanishing_on_line(members)(line) == [True] * len(members)


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2147483647)], ids=["qq", "fp"])
def test_vanishing_on_line_splits_the_homogeneous_parts(ctx):
    # x0^2 - x0 is zero at every affine point (1, m, 0) of the line, but its
    # restriction s^2 - s is not zero: each homogeneous part is judged alone
    x0 = Poly.var(0, 3, ctx.one)
    line = LineParam(
        ProjPoint([ctx.one, ctx.zero, ctx.zero], ctx),
        ProjPoint([ctx.zero, ctx.one, ctx.zero], ctx),
    )
    q = x0 * x0 - x0
    assert not line_restrict(q, line).is_zero()
    assert vanishing_on_line([q])(line) == [False]
    assert vanishing_on_line([Poly.var(2, 3, ctx.one) * q, Poly.zero(3)])(line) == [True, True]
    assert vanishing_on_line([])(line) == []


def test_genericity_check_pass_and_failures(flats4):
    rep = genericity_check(flats4, QQ)
    assert rep.ok and rep.failures == []
    # duplicate flats fail the pairwise-intersection check
    rep2 = genericity_check([flats4[0], flats4[0]] + list(flats4[2:]), QQ)
    assert not rep2.ok and rep2.failures[0].startswith("b:")
    # a zeroed coefficient fails the canonical-pattern check
    bad = list(flats4)
    a = list(flats4[1].a)
    a[2] = QQ.zero
    bad[1] = Flat(1, tuple(a))
    rep3 = genericity_check(bad, QQ)
    assert not rep3.ok and rep3.failures[0].startswith("a:")


def test_upper_semicontinuity_of_intersection(flats4, flats3):
    # never below the generic dimension for distinct canonical flats
    for flats, n in ((flats4, 4), (flats3, 3)):
        floor = max(n - 4, -1)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                got = len(flat_intersection(flats[i], flats[j], QQ)) - 1
                assert got >= floor


# ---- the closed forms of genericity (b) and (c) ----------------------------

FP31 = FieldCtx.prime(2147483647)
COEFFS = st.sampled_from((1, -1, 2, -2, 3))


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_meet_is_the_nullspace_basis(ctx, data):
    # coefficients from five values, and often flat 1 copying flat 0 off
    # columns 0 and 1, so that dependent pairs occur at every n
    n1 = data.draw(st.integers(3, 7), label="n + 1")
    rows = [[data.draw(COEFFS) for _ in range(n1)] for _ in range(n1)]
    if data.draw(st.booleans(), label="twin"):
        rows[1][2:] = rows[0][2:]
    flats = [
        Flat(j, tuple(ctx.zero if i == j else ctx.from_int(c) for i, c in enumerate(r)))
        for j, r in enumerate(rows)
    ]
    expected = max(n1 - 5, -1)
    report = genericity_check(flats, ctx)
    for i in range(n1):
        for j in range(i, n1):
            basis = flat_intersection(flats[i], flats[j], ctx)
            assert flat_meet(flats[i], flats[j], ctx) == basis
            if i < j:
                # (b) reads the dimension len − 1 off the closed form
                dim = len(basis) - 1
                failure = f"b: intersection {i},{j} has dimension {dim}, expected {expected}"
                assert (failure in report.failures) == (dim != expected)


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_cone_rank_decides_a_unique_transversal(ctx, n):
    # a subset's cone rows, None left out, have rank n − 1 exactly where
    # `transversal_through` finds a unique line: at random points, at the
    # vertices, at a point of each flat (a None row) and, for n >= 4, in
    # the plane through the pairwise meets of flats 2, 3, 4, where the
    # cone rows of those three have rank 2
    rng = seeded_rng(n, "cone-rank")
    for seed in range(5):
        flats = random_general_flats(n, seed, ctx).flats
        points = [rand_point(n, rng, ctx) for _ in range(3)]
        points += [vertex(n, k, ctx) for k in range(n + 1)]
        points += [parametrize_flat(f, ctx)[0] for f in flats]
        if n >= 4:
            meets = [flat_meet(flats[i], flats[j], ctx)[0] for i, j in ((2, 3), (2, 4), (3, 4))]
            points.append(ProjPoint([a + 2 * b + 3 * c for a, b, c in zip(*meets)], ctx))
        for p in points:
            rows = [cone_hyperplane(p, f) for f in flats]
            for sub in combinations(range(n + 1), n - 1):
                rank = la.rank([rows[k] for k in sub if rows[k] is not None], ctx)
                unique = transversal_through(p, [flats[k] for k in sub], ctx).kind == "unique"
                assert (rank == n - 1) == unique


NONZERO_ENTRIES = st.sampled_from((1, -1, 2, -2, 3, -5))


@st.composite
def canonical_matrices(draw):
    """A canonical A for n = 2..7: zero diagonal, entries off it from six
    nonzero values, ±1 among them."""
    n1 = draw(st.integers(3, 8), label="n + 1")
    return [[0 if i == j else draw(NONZERO_ENTRIES) for i in range(n1)] for j in range(n1)]


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=25, deadline=None)
@given(a=canonical_matrices())
def test_the_vertex_lemma_of_genericity_c(ctx, a):
    # for every n − 1 flats S and k not in S, the cone rows at e_k are
    # −a_{m,k}·e_m, of rank n − 1, and the unique transversal through e_k
    # is the line e_k e_l, l the one index outside S and k
    n1 = len(a)
    flats = [Flat(j, tuple(ctx.from_int(c) for c in row)) for j, row in enumerate(a)]
    for sub in combinations(range(n1), n1 - 2):
        for k in (i for i in range(n1) if i not in sub):
            (l,) = set(range(n1)) - set(sub) - {k}
            e_k = vertex(n1 - 1, k, ctx)
            for m in sub:
                want = [ctx.zero] * n1
                want[m] = -flats[m].a[k]
                assert cone_hyperplane(e_k, flats[m]) == want
            res = transversal_through(e_k, [flats[m] for m in sub], ctx)
            assert res.kind == "unique" and res.line.base == e_k
            assert res.line.dir == vertex(n1 - 1, l, ctx)


def test_genericity_draws_no_point_and_ranks_no_matrix(monkeypatch):
    # (c) is the vertex lemma: certifying flats runs no random draw, no
    # elimination and no transversal
    def crash(*args, **kwargs):
        raise AssertionError("genericity_check sampled or eliminated")

    for ctx in (QQ, FP31):
        flats = random_general_flats(4, 42, ctx).flats
        with monkeypatch.context() as patch:
            for owner, name in (
                (la, "rank"), (la, "rank_mod_p"), (la, "nullspace"), (la, "rref"),
                (FieldCtx, "random_nonzero"), (projgeo, "seeded_rng"),
                (projgeo, "cone_hyperplane"), (projgeo, "transversal_through"),
            ):
                patch.setattr(owner, name, crash)
            assert genericity_check(flats, ctx).ok


@pytest.mark.parametrize("ctx", [QQ, FP31], ids=["qq", "fp"])
@settings(max_examples=25, deadline=None)
@given(a=canonical_matrices(), data=st.data())
def test_the_restriction_bound_declines_rows_off_the_canonical_pattern(ctx, a, data):
    # (P) and (K) are cited from the canonical pattern, so one zero off the
    # diagonal gives no bound
    n1 = len(a)
    j, k = data.draw(st.sampled_from([(j, k) for j in range(n1) for k in range(n1) if j != k]))
    rows = [[ctx.from_int(c) for c in row] for row in a]
    rows[j][k] = ctx.zero
    assert restriction_bound(rows) is None


def test_the_restriction_bound_declines_a_zero_its_steps_would_pass():
    # a zero at a_{2,1}: flat 2 is (x_2, x_0), still codimension 2, and
    # steps that tested (P) and (K) at each node would still reach a bound
    # of 3 = n + 1; the lower bound n + 1 is a lemma of canonical flats only
    rows = [[QQ.from_int(v) for v in row] for row in ([0, 1, 1], [1, 0, 1], [1, 0, 0])]
    assert restriction_bound(rows) is None
    rows[2][1] = QQ.one
    assert restriction_bound(rows) == 3
