from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veneroni import exactla as la
from veneroni import lattice, maps
from veneroni.mpoly import Evaluator, Poly, _lower
from veneroni.projgeo import (
    Flat,
    ProjPoint,
    parametrize_flat,
    random_general_flats,
    transversal_through,
)
from veneroni.scalar import FieldCtx, Fp, Rational, seeded_rng

from oracles import (
    BaseLocusError,
    apply_map,
    div_var,
    flat_contains,
    flat_span,
    is_homogeneous,
    lead,
    line_restrict,
    restrict_to_span,
    sample_off_q_locus,
)

QQ = FieldCtx.rationals()


FP = FieldCtx.prime(2147483647)


def pipeline(n, seed=42, ctx=QQ):
    flats = random_general_flats(n, seed, ctx).flats
    vmap = maps.build_forward_map(flats, ctx)
    inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
    return vmap, inv


@pytest.fixture(scope="module")
def m2():
    return pipeline(2)


@pytest.fixture(scope="module")
def m3():
    return pipeline(3)


def proportional(p, q):
    """True when p = c·q for some nonzero scalar c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    (_, cp), (_, cq) = lead(p), lead(q)
    return set(p.terms) == set(q.terms) and p.scale(cq) == q.scale(cp)


def point_at(line, s, t, ctx):
    """The point s·base + t·dir of a line."""
    return ProjPoint([s * b + t * d for b, d in zip(line.base, line.dir)], ctx)


def test_matrix_b_entries():
    flats = random_general_flats(3, 7, QQ).flats
    b = maps.build_matrix_B(flats, QQ)
    assert len(b) == 4 and all(len(r) == 4 for r in b)
    for i in range(4):
        assert b[i][i] == -flats[i].form2_poly()
        # the diagonal entry dies on its own flat
        assert maps.vanishes_on_flat(-b[i][i], flats[i], QQ)
        for k in range(4):
            if k != i:
                assert b[i][k] == Poly.var(k, 4, flats[i].a[k])
    bad = list(flats)
    a = list(flats[2].a)
    a[2] = QQ.one  # nonzero diagonal coefficient
    bad[2] = Flat(2, tuple(a))
    with pytest.raises(maps.ConstructionError):
        maps.build_matrix_B(bad, QQ)


@pytest.mark.parametrize("n", [2, 3])
def test_det_strategies_agree(n):
    flats = random_general_flats(n, 5, QQ).flats
    b = maps.build_matrix_B(flats, QQ)
    for i in range(n + 1):
        mi = maps.minor_matrix(b, i)
        assert la.det_poly_matrix(mi, "minor_dp") == la.det_poly_matrix(mi, "bareiss")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_q_matches_column_sum_oracle(n):
    # Q_i comes from the constant column of -a_{j,i} with no division at
    # all; det(B_i) divided by x_i must give it on the nose
    flats = random_general_flats(n, 11, QQ).flats
    b = maps.build_matrix_B(flats, QQ)
    for i in range(n + 1):
        det = la.det_poly_matrix(maps.minor_matrix(b, i))
        assert maps.compute_Q(flats, i, QQ) == div_var(det, i)


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
def test_compute_q_refuses_a_flat_off_the_canonical_pattern(ctx):
    flats = list(random_general_flats(3, 11, ctx).flats)
    a = list(flats[2].a)
    a[2] = ctx.one  # a_{2,2} != 0: the rows of B no longer sum to zero
    flats[2] = Flat(2, tuple(a))
    with pytest.raises(maps.ConstructionError, match="flat 2 is not canonical"):
        maps.compute_Q(flats, 0, ctx)


def test_q_frozen_n2_formulas():
    flats = random_general_flats(2, 42, QQ).flats
    a = [f.a for f in flats]
    # expanding det(B_0)/x_0 by hand for n = 2 gives
    #   Q_0 = a10*a20*x0 + a10*a21*x1 + a12*a20*x2
    # and symmetrically for Q_1
    q0 = Poly.from_linear([a[1][0] * a[2][0], a[1][0] * a[2][1], a[1][2] * a[2][0]])
    q1 = Poly.from_linear([a[0][1] * a[2][0], a[0][1] * a[2][1], a[0][2] * a[2][1]])
    assert maps.compute_Q(flats, 0, QQ) == q0
    assert maps.compute_Q(flats, 1, QQ) == q1
    # Q_0 is the line through the two point-flats 1 and 2, so its
    # coefficient vector is the cross product of their coordinates
    p1 = (a[1][2], QQ.zero, -a[1][0])  # x1 = 0, a10*x0 + a12*x2 = 0
    p2 = (a[2][1], -a[2][0], QQ.zero)  # x2 = 0, a20*x0 + a21*x1 = 0
    cross = [
        p1[1] * p2[2] - p1[2] * p2[1],
        p1[2] * p2[0] - p1[0] * p2[2],
        p1[0] * p2[1] - p1[1] * p2[0],
    ]
    assert proportional(q0, Poly.from_linear(cross))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_forward_map_invariants(n):
    flats = random_general_flats(n, 42, QQ).flats
    vmap = maps.build_forward_map(flats, QQ)
    n1 = n + 1
    for i in range(n1):
        assert vmap.components[i] == Poly.var(i, n1, QQ.one) * vmap.Q[i]
        assert vmap.Q[i].degree() == n - 1
        assert vmap.components[i].degree() == n
        assert is_homogeneous(vmap.components[i])
    # at vertex k exactly the k-th component survives
    for k in range(n1):
        vert = [QQ.one if i == k else QQ.zero for i in range(n1)]
        vals = [c.evaluate(vert) for c in vmap.components]
        assert [bool(v) for v in vals] == [i == k for i in range(n1)]


def test_apply_map_and_base_locus(m2):
    vmap, _ = m2
    vert = ProjPoint([QQ.one, QQ.zero, QQ.zero], QQ)
    assert apply_map(Evaluator(vmap.components), vert, QQ) == vert
    on_flat = parametrize_flat(vmap.flats[0], QQ)[0]
    with pytest.raises(BaseLocusError):
        apply_map(Evaluator(vmap.components), on_flat, QQ)


@pytest.mark.parametrize("n", [2, 3])
def test_b_matrix_is_transposed_a(n):
    # solve_b_matrix writes b = A^T in closed form; a general solver, fed
    # each f_i Q_i against the stacked components, must find the same b
    for ctx in (QQ, FP):
        vmap, inv = pipeline(n, seed=23, ctx=ctx)
        mons = maps.monomials_of_degree(n + 1, n)
        col = {m: r for r, m in enumerate(mons)}

        def column(p):
            out = [ctx.zero] * len(mons)
            for e, c in p.terms.items():
                out[col[e]] = c
            return out

        comps = [column(c) for c in vmap.components]
        stacked = [[comps[j][r] for j in range(n + 1)] for r in range(len(mons))]
        for i in range(n + 1):
            target = column(vmap.flats[i].form2_poly() * vmap.Q[i])
            assert la.solve(stacked, target, ctx) == inv.b[i]
            assert inv.b[i] == [vmap.flats[j].a[i] for j in range(n + 1)]
        # the components are independent, so that solution is the only one
        assert la.rank(stacked, ctx) == n + 1


def test_b_matrix_laws_and_point_oracle(m3):
    vmap, inv = m3
    n1 = vmap.n + 1
    for i in range(n1):
        for j in range(n1):
            assert (i == j) == (not inv.b[i][j])
        # residual of the defining expansion, recomputed here
        residual = vmap.flats[i].form2_poly() * vmap.Q[i]
        for j in range(n1):
            residual = residual - vmap.components[j].scale(inv.b[i][j])
        assert residual.is_zero()
    # point-evaluation oracle, independent of the linear solver
    rng = seeded_rng(1, "b-oracle")
    for _ in range(5):
        p = ProjPoint([QQ.random_nonzero(rng) for _ in range(n1)], QQ)
        img = [c.evaluate(p.coords) for c in vmap.components]
        for i in range(n1):
            lhs = Poly.from_linear(inv.b[i]).evaluate(img)
            rhs = vmap.flats[i].form2_poly().evaluate(p.coords) * vmap.Q[i].evaluate(
                p.coords
            )
            assert lhs == rhs


def test_inverse_components_and_duals(m2, m3):
    for vmap, inv in (m2, m3):
        n1 = vmap.n + 1
        duals = [Flat(i, tuple(row)) for i, row in enumerate(inv.b)]
        assert len(inv.inverse_components) == n1
        for i, d in enumerate(inv.inverse_components):
            assert d.degree() == vmap.n and is_homogeneous(d)
            for j in range(n1):
                if j != i:
                    assert maps.vanishes_on_flat(d, duals[j], vmap.ctx)
        assert all(f.is_canonical() for f in duals)


@pytest.mark.parametrize("n", [2, 3])
def test_composition_is_multiplication_by_product(n):
    # the full expansion, an oracle for the factorization proof in checks
    for ctx in (QQ, FP):
        vmap, inv = pipeline(n, seed=42, ctx=ctx)
        prod = vmap.Q[0]
        for q in vmap.Q[1:]:
            prod = prod * q
        for i in range(n + 1):
            composed = inv.inverse_components[i].substitute(vmap.components)
            expected = Poly.var(i, n + 1, ctx.one) * prod
            assert composed == expected


def test_roundtrip_on_samples(m3):
    vmap, inv = m3
    rng = seeded_rng(17, "roundtrip")
    forward, inverse = Evaluator(vmap.components), Evaluator(inv.inverse_components)
    images = []
    for _ in range(8):
        p = sample_off_q_locus(vmap, rng)
        img = apply_map(forward, p, QQ)
        back = apply_map(inverse, img, QQ)
        assert back == p
        images.append(img)
    assert len({im.coords for im in images}) == len(images)


def test_monomials_of_degree():
    for nvars, d in ((3, 2), (4, 3), (5, 4), (6, 5)):
        mons = maps.monomials_of_degree(nvars, d)
        assert len(mons) == comb(d + nvars - 1, nvars - 1)
        assert len(set(mons)) == len(mons)
        assert all(sum(e) == d for e in mons)


def test_linear_system_dimensions_n2():
    flats = random_general_flats(2, 42, QQ).flats
    assert maps.linear_system_dimension(flats, 2, QQ) == 3
    for omit in range(3):
        rest = [f for j, f in enumerate(flats) if j != omit]
        assert maps.linear_system_dimension(rest, 1, QQ) == 1
    # two points impose two conditions on conics
    assert maps.linear_system_dimension(flats[:2], 2, QQ) == 4


def test_linear_system_dimensions_n3(m3):
    vmap, _ = m3
    flats = vmap.flats
    assert maps.linear_system_dimension(flats, 3, QQ) == 4
    for omit in range(4):
        rest = [f for j, f in enumerate(flats) if j != omit]
        assert maps.linear_system_dimension(rest, 2, QQ) == 1


def dense(rows, ncols, ctx):
    """The {column: entry} rows of `_restriction_rows` as full lists."""
    out = []
    for row in rows:
        full = [ctx.zero] * ncols
        for c, v in row.items():
            full[c] = v
        out.append(full)
    return out


def test_degree_n_system_is_spanned_by_components(m3):
    # rank of the component coefficient matrix is n+1: together with the
    # dimension count this is the basis property
    vmap, _ = m3
    mons = maps.monomials_of_degree(4, 3)
    col = {m: r for r, m in enumerate(mons)}
    rows = []
    for comp in vmap.components:
        row = [QQ.zero] * len(mons)
        for e, c in comp.terms.items():
            row[col[e]] = c
        rows.append(row)
    assert la.rank(rows, QQ) == 4


def test_class_matrix_shape_and_involution():
    m = maps.class_matrix(2)
    assert m == [
        [2, 1, 1, 1],
        [-1, 0, -1, -1],
        [-1, -1, 0, -1],
        [-1, -1, -1, 0],
    ]
    for n in range(2, 11):
        cm = maps.class_matrix(n)
        size = n + 2  # hyperplane class plus the n+1 flat classes
        assert len(cm) == size
        assert cm[0][0] == n
        assert all(cm[0][k] == n - 1 for k in range(1, size))
        assert all(cm[k][0] == -1 for k in range(1, size))
        assert la.mat_mul(cm, cm) == la.identity(size)
    with pytest.raises(ValueError):
        maps.class_matrix(1)


def test_contracted_transversal_has_constant_image(m3):
    # a line meeting the three flats other than flat 0 lies on Q_0 and is
    # collapsed by the map: all its sampled points share one image
    vmap, _ = m3
    rng = seeded_rng(31, "fiber")
    span = parametrize_flat(vmap.flats[1], QQ)
    combo = [QQ.random_nonzero(rng) for _ in span]
    p = ProjPoint(
        [sum((c * s[i] for c, s in zip(combo, span)), QQ.zero) for i in range(4)],
        QQ,
    )
    res = transversal_through(p, [vmap.flats[2], vmap.flats[3]], QQ)
    assert res.kind == "unique"
    assert line_restrict(vmap.Q[0], res.line).is_zero()
    images = []
    for t in (1, 2, 3, 5):
        pt = point_at(res.line, QQ.one, QQ.from_int(t), QQ)
        try:
            images.append(apply_map(Evaluator(vmap.components), pt, QQ))
        except BaseLocusError:
            continue
    assert len(images) >= 3
    assert all(im == images[0] for im in images[1:])


def test_image_of_q_locus_hits_dual_flat(m3):
    # points on Q_1 off the base locus land on the dual flat (y_1, g_1)
    vmap, inv = m3
    rng = seeded_rng(37, "dual-image")
    span = parametrize_flat(vmap.flats[0], QQ)
    combo = [QQ.random_nonzero(rng) for _ in span]
    p = ProjPoint(
        [sum((c * s[i] for c, s in zip(combo, span)), QQ.zero) for i in range(4)],
        QQ,
    )
    res = transversal_through(p, [vmap.flats[2], vmap.flats[3]], QQ)
    pt = point_at(res.line, QQ.one, QQ.from_int(2), QQ)
    img = apply_map(Evaluator(vmap.components), pt, QQ)
    assert not img[1]
    assert flat_contains(Flat(1, tuple(inv.b[1])), img)


def test_mutated_instance_builds_a_different_map():
    # construction tests no invariant, since each is a theorem for canonical
    # flats: a flipped coefficient that keeps the pattern canonical still
    # builds, and the map follows the new flats instead of the old ones
    orig = random_general_flats(3, 3, QQ).flats
    flats = list(orig)
    a = list(flats[1].a)
    a[2] = a[2] + QQ.one
    assert a[2]
    flats[1] = Flat(1, tuple(a))
    vmap = maps.build_forward_map(flats, QQ)
    assert vmap.Q[0] == maps.compute_Q(flats, 0, QQ)
    assert vmap.Q[0] != maps.compute_Q(orig, 0, QQ)


SMALL = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5))


@st.composite
def flat_coefficients(draw, n, j):
    """Coefficients of f_j, possibly with a_{j,j} != 0 and zeros elsewhere."""
    a = draw(st.lists(SMALL, min_size=n + 1, max_size=n + 1))
    k = draw(st.integers(0, n - 1))
    k += k >= j  # some index other than j keeps a nonzero coefficient
    a[k] = draw(SMALL.filter(bool))
    return a


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_parametrize_flat_is_the_nullspace_basis(ctx, n, data):
    # the closed form e_i + L_i·e_k against the general solver, point for
    # point, on canonical flats and on flats off the canonical pattern
    j = data.draw(st.integers(0, n), label="j")
    if data.draw(st.booleans(), label="canonical"):
        a = [0 if i == j else data.draw(SMALL.filter(bool)) for i in range(n + 1)]
    else:
        a = data.draw(flat_coefficients(n, j), label="a")
    flat = Flat(j, tuple(ctx.convert(c) for c in a))
    assert parametrize_flat(flat, ctx) == flat_span(flat, ctx)


@st.composite
def flat_and_member(draw):
    """A flat (x_j, f_j), possibly with a_{j,j} != 0 and zeros elsewhere, and
    p = x_j·r + f_j·s + t of degree d, with t sometimes zero."""
    n = draw(st.integers(2, 5))
    j = draw(st.integers(0, n))
    a = draw(flat_coefficients(n, j))
    d = draw(st.integers(1, 3))

    def form(deg):  # up to 4 terms, possibly none
        mons = st.sampled_from(maps.monomials_of_degree(n + 1, deg))
        return dict(draw(st.lists(st.tuples(mons, SMALL), max_size=4)))

    return n, j, a, form(d - 1), form(d - 1), form(d)


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@settings(max_examples=60, deadline=None)
@given(case=flat_and_member())
def test_vanishes_on_flat_agrees_with_span_restriction(ctx, case):
    # the span restriction by substitution is the oracle for the elimination
    n, j, a, r, s, t = case
    n1 = n + 1

    def poly(terms):
        return Poly(n1, {e: ctx.convert(c) for e, c in terms.items()})

    flat = Flat(j, tuple(ctx.convert(c) for c in a))
    member = Poly.var(j, n1, ctx.one) * poly(r) + flat.form2_poly() * poly(s)
    p = member + poly(t)
    expected = restrict_to_span(p, flat_span(flat, ctx)).is_zero()
    assert maps.vanishes_on_flat(p, flat, ctx) == expected
    assert maps.vanishes_on_flat(member, flat, ctx)


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@pytest.mark.parametrize("diagonal", [0, 3])
def test_vanishes_on_flat_rejects_a_degenerate_flat(ctx, diagonal):
    # f_2 = diagonal·x_2 is no second form: (x_2, f_2) is a hyperplane at most
    a = [ctx.zero] * 4
    a[2] = ctx.from_int(diagonal)
    p = Poly.var(0, 4, ctx.one)
    with pytest.raises(ValueError, match="flat 2 is degenerate"):
        maps.vanishes_on_flat(p, Flat(2, tuple(a)), ctx)


@st.composite
def flats_and_degree(draw):
    """One to n+1 flats of P^n shaped as in flat_and_member, and a degree."""
    n = draw(st.integers(2, 5))
    js = draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True))
    return n, [(j, draw(flat_coefficients(n, j))) for j in js], draw(st.integers(1, 3))


def parametrized_rows(flat, d, ctx, mons):
    """Oracle: the conditions read off the substitution of the nullspace
    basis of the flat into each monomial, one row per parameter monomial."""
    basis = flat_span(flat, ctx)
    images = [Poly.from_linear([pt[i] for pt in basis]) for i in range(flat.nvars)]
    par = {m: r for r, m in enumerate(maps.monomials_of_degree(len(basis), d))}
    rows = [[ctx.zero] * len(mons) for _ in par]
    for col, e in enumerate(mons):
        for pe, c in Poly(flat.nvars, {e: ctx.one}).substitute(images).terms.items():
            rows[par[pe]][col] = c
    return [r for r in rows if any(r)]


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@settings(max_examples=40, deadline=None)
@given(case=flats_and_degree())
def test_restriction_rows_agree_with_parametrized_rows(ctx, case):
    n, coeffs, d = case
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in coeffs]
    mons = maps.monomials_of_degree(n + 1, d)
    rows, oracle = [], []
    for f in flats:
        sparse = maps._restriction_rows(f, d, ctx, mons)
        # only nonzero entries are stored, and monomials with x_j give none
        assert all(v and not mons[c][f.j] for r in sparse for c, v in r.items())
        new = dense(sparse, len(mons), ctx)
        old = parametrized_rows(f, d, ctx, mons)
        # one independent condition per degree-d monomial on the flat, a
        # P^(n-2), and the same conditions: the stacked rows gain no rank
        size = comb(d + n - 2, n - 2)
        assert len(new) == la.rank(sparse, ctx) == la.rank(new + old, ctx) == size
        rows += new
        oracle += old
    nullity = len(mons) - la.rank(oracle, ctx)
    assert len(mons) - la.rank(rows, ctx) == nullity
    assert maps.linear_system_dimension(flats, d, ctx) == nullity


# ---- reduction mod p commutes with the construction -------------------------


def reduce_mod_p(values, ctx):
    """The images in F_p of rationals, by `exactla.residues`: ValueError
    when p divides a denominator."""
    return [Fp(r, ctx.p) for r in la.residues([list(values)], ctx.p)[0]]


def reduce_poly(q, ctx):
    """The polynomial with every coefficient reduced mod p; zeros drop."""
    coeffs = zip(q.terms, reduce_mod_p(q.terms.values(), ctx))
    return Poly(q.nvars, {e: c for e, c in coeffs if c})


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 10**6),
    j=st.integers(0, 4),
    den=st.sampled_from([1, 2, 9, FP.p, 3 * FP.p]),
)
def test_reduction_mod_p_commutes_with_the_construction(n, seed, j, den):
    # every construction step is a polynomial in the flats' coefficients:
    # det(M_i), the products x_i·Q_i, b = Aᵀ and the map of the dual flats.
    # f_j divided by den is the same flat with other coefficients
    flats = random_general_flats(n, seed, QQ).flats
    j %= n + 1
    flats[j] = Flat(j, tuple(c / den for c in flats[j].a))
    vmap = maps.build_forward_map(flats, QQ)
    inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
    if den % FP.p == 0:
        # column j of b = Aᵀ holds the divided coefficients, which have no
        # image in F_p, and neither has flat j
        with pytest.raises(ValueError, match="vanishes mod"):
            reduce_mod_p([c for row in inv.b for c in row], FP)
        with pytest.raises(ValueError, match="vanishes mod"):
            reduce_mod_p(flats[j].a, FP)
        return
    reduced = [Flat(f.j, tuple(reduce_mod_p(f.a, FP))) for f in flats]
    vmap_p = maps.build_forward_map(reduced, FP)
    inv_p = maps.build_inverse_map(vmap_p, maps.solve_b_matrix(vmap_p))
    assert [reduce_poly(q, FP) for q in vmap.Q] == vmap_p.Q
    assert [reduce_poly(c, FP) for c in vmap.components] == vmap_p.components
    assert [reduce_mod_p(row, FP) for row in inv.b] == inv_p.b
    assert [reduce_poly(c, FP) for c in inv.inverse_components] == inv_p.inverse_components
    # the values of each Q_i on the lattice of `determinantal`, over Q
    # numerators over its denominator, reduce to those over F_p
    points = lattice.grid(n)
    for q, q_p in zip(vmap.Q, vmap_p.Q):
        terms, dq = _lower(q.terms, None)
        values = [Rational(v, dq) for v in lattice.form_values(terms, points)]
        values_p = lattice.form_values(_lower(q_p.terms, FP.p)[0], points)
        assert reduce_mod_p(values, FP) == [Fp(v, FP.p) for v in values_p]
    assert lattice.det_m_failure(reduced, vmap_p.Q, FP.p) is None
