import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veneroni import exactla as la
from veneroni import maps
from veneroni.mpoly import Poly
from veneroni.projgeo import Flat
from veneroni.scalar import FieldCtx, Fp, Rational

from oracles import det_by_poly_ops, random_scalar

P = (1 << 31) - 1
QQ = FieldCtx.rationals()
FP = FieldCtx.prime(P)


def rand_mat(ctx, rng, k, bound=5):
    return [[random_scalar(ctx, rng, bound) for _ in range(k)] for _ in range(k)]


def rand_poly_mat(ctx, rng, k, nvars=3):
    def entry():
        p = Poly.zero(nvars)
        for i in range(nvars):
            p = p + Poly.var(i, nvars, random_scalar(ctx, rng, 3))
        return p + Poly.const(random_scalar(ctx, rng, 3), nvars)

    return [[entry() for _ in range(k)] for _ in range(k)]


@pytest.mark.parametrize("ctx", [QQ, FP])
def test_det_routes_agree_on_scalars(ctx):
    rng = random.Random(2024)
    for k in (1, 2, 3, 4, 5):
        for _ in range(10):
            m = rand_mat(ctx, rng, k)
            assert la.det_laplace(m) == la.det_bareiss(m)


def test_det_routes_agree_on_polynomials():
    rng = random.Random(7)
    for k in (2, 3, 4):
        m = rand_poly_mat(QQ, rng, k)
        assert la.det_laplace(m) == la.det_bareiss(m)


def test_det_known_values():
    m = [[QQ.from_int(v) for v in row] for row in [[2, 1, 0], [1, 3, 4], [0, 5, 6]]]
    assert la.det_laplace(m) == -10
    # Vandermonde on 1, 2, 4: prod of differences = 1*3*2 = 6
    v = [[QQ.from_int(a) ** i for i in range(3)] for a in (1, 2, 4)]
    assert la.det_laplace(v) == 6
    assert la.det_laplace([]) == 1 == la.det_bareiss([])


def test_det_is_multiplicative_and_alternating():
    rng = random.Random(99)
    det = la.det_laplace
    for _ in range(10):
        a = rand_mat(QQ, rng, 4)
        b = rand_mat(QQ, rng, 4)
        assert det(la.mat_mul(a, b)) == det(a) * det(b)
        swapped = [a[1], a[0]] + a[2:]
        assert det(swapped) == -det(a)
        t = [list(col) for col in zip(*a)]
        assert det(t) == det(a)


def test_det_bareiss_handles_zero_pivots():
    z, o = QQ.zero, QQ.one
    m = [[z, o, z], [o, z, z], [z, z, o]]  # permutation, det -1
    assert la.det_bareiss(m) == -1
    sing = [[z, o, z], [z, QQ.from_int(2), z], [z, z, o]]  # zero first column
    assert la.det_bareiss(sing) == 0
    assert la.det_laplace(sing) == 0


def test_det_size_cap():
    rng = random.Random(0)
    assert la.MAX_DET_SIZE == 8
    m8 = rand_mat(QQ, rng, 8)
    assert la.det_poly_matrix(m8, "minor_dp") == la.det_poly_matrix(m8, "bareiss")
    m9 = rand_mat(QQ, rng, 9)
    for strategy in ("minor_dp", "bareiss"):
        with pytest.raises(ValueError, match="exceeds determinant cap 8"):
            la.det_poly_matrix(m9, strategy)


@pytest.mark.parametrize("ctx", [QQ, FP])
def test_maximal_minors_are_the_determinants_of_every_column_subset(ctx):
    rng = random.Random(11)
    for k, c in ((1, 3), (2, 4), (3, 4), (3, 6), (4, 5)):
        m = [row[:c] for row in rand_poly_mat(ctx, rng, c)[:k]]
        m[0][1] = Poly.zero(3)  # a zero entry, skipped by the expansion
        minors = la.maximal_minors(m)
        for cols in combinations(range(c), k):
            want = la.det_bareiss([[row[j] for j in cols] for row in m])
            assert minors.get(sum(1 << j for j in cols), Poly.zero(3)) == want
    assert la.maximal_minors([]) == {0: 1}
    with pytest.raises(ValueError, match="not k x c with k <= c"):
        la.maximal_minors([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="matrix size 9 exceeds determinant cap 8"):
        la.maximal_minors([[1] * 10 for _ in range(9)])


@pytest.mark.parametrize("k, d", [(3, 5), (2, 200)], ids=["4-bit-fields", "9-bit-fields"])
def test_packed_exponents_of_high_degree_entries_do_not_carry(k, d):
    # entries of degree d in a k x k matrix give minors with exponents up
    # to k·d: 15 needs more bits than one entry's 5, and 400 more than a byte
    rng = random.Random(5)
    mons = [(d, 0), (d - 1, 1), (0, d), (d - 2, 2)]
    for ctx in (QQ, FP):
        for _ in range(5):
            m = [
                [Poly(2, {e: random_scalar(ctx, rng, 4) for e in rng.sample(mons, 2)}) for _ in range(k)]
                for _ in range(k)
            ]
            assert la.det_laplace(m) == la.det_bareiss(m)
    x = Poly.var(0, 2, 1)
    diagonal = [[x**d if i == j else Poly.zero(2) for j in range(k)] for i in range(k)]
    assert la.det_laplace(diagonal) == x ** (k * d)


MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


@st.composite
def det_matrices(draw, kind):
    """A square matrix of size 0..5 over Q or F_p (`kind`), of scalars or
    of polynomials in two variables.  About a third of the entries are zero,
    so Bareiss meets zero pivots and swaps rows.  Each coefficient is a
    plain int or a field element; over Q a row's rationals share a
    denominator drawn for that row, times a small factor, so rows differ."""
    ctx = QQ if kind == "qq" else FP
    k = draw(st.integers(0, 5), label="size")
    poly = draw(st.booleans(), label="poly")

    def coeff(den):
        v = draw(st.integers(-6, 6))
        if draw(st.booleans()):
            return v
        if kind == "qq":
            return Rational(v, den * draw(st.integers(1, 3)))
        return Fp(v * draw(st.integers(1, P - 1)), P)

    def entry(den):
        if draw(st.integers(0, 2)) == 0:
            return Poly.zero(2) if poly else draw(st.sampled_from([0, ctx.zero]))
        if not poly:
            return coeff(den)
        mons = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=3, unique=True))
        return Poly(2, {e: coeff(den) for e in mons})

    rows = []
    for _ in range(k):
        den = draw(st.integers(1, 9), label="row denominator")
        rows.append([entry(den) for _ in range(k)])
    return rows


def in_field(x, ctx):
    """A matrix, polynomial or scalar with every coefficient in ctx."""
    if isinstance(x, list):
        return [in_field(v, ctx) for v in x]
    if isinstance(x, Poly):
        return Poly(x.nvars, {e: ctx.convert(c) for e, c in x.terms.items()})
    return ctx.convert(x)


def sympy_det(m, ctx):
    """The determinant of a scalar matrix over ctx, computed by sympy."""
    sympy = pytest.importorskip("sympy")
    if not m:
        return ctx.one
    if ctx.kind == "qq":
        return Rational(str(sympy.Matrix([[sympy.Rational(str(v)) for v in r] for r in m]).det()))
    domain = pytest.importorskip("sympy.polys.matrices")
    gf = sympy.GF(P)
    rows = [[gf(v.r) for v in r] for r in m]
    return Fp(int(gf.to_int(domain.DomainMatrix(rows, (len(m), len(m)), gf).det())), P)


@pytest.mark.parametrize("kind", ["qq", "fp"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_det_kernels_match_the_poly_op_expansion(kind, data):
    # both kernels expand the matrix as drawn, on its integer form; so does
    # the same column-subset loop on the entries' own + and *, where a
    # product of int-only entries stays in Z and meets F_p later.  sympy
    # expands it with every coefficient in the field
    ctx = QQ if kind == "qq" else FP
    if data is None:  # a zero leading pivot and rows over different denominators
        m = [[0, Rational(1, 2), 3], [Rational(2, 3), 0, 1], [5, Rational(1, 7), 0]]
        if kind == "fp":
            m = [[v if isinstance(v, int) else FP.convert(v) for v in row] for row in m]
    else:
        m = data.draw(det_matrices(kind))
    want = det_by_poly_ops(m)
    for strategy in ("minor_dp", "bareiss"):
        got = la.det_poly_matrix(m, strategy)
        # a matrix that holds no element of F_p is over Q, and so is its det
        assert got == want
        if m and not isinstance(m[0][0], Poly):
            assert in_field(got, ctx) == sympy_det(in_field(m, ctx), ctx)


def test_rref_shape_and_idempotence():
    rng = random.Random(31)
    rows = [[random_scalar(QQ, rng) for _ in range(5)] for _ in range(3)]
    red, piv = la.rref(rows, QQ)
    for r, c in enumerate(piv):
        assert red[r][c] == 1
        assert all(red[i][c] == 0 for i in range(len(red)) if i != r)
    again, piv2 = la.rref(red, QQ)
    assert again == red and piv2 == piv


@pytest.mark.parametrize("ctx", [QQ, FP])
def test_nullspace_annihilates_and_counts(ctx):
    rng = random.Random(17)
    for _ in range(15):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[random_scalar(ctx, rng, 3) for _ in range(nc)] for _ in range(nr)]
        ns = la.nullspace(rows, nc, ctx)
        assert len(ns) == nc - la.rank(rows, ctx)
        for v in ns:
            for r in rows:
                assert sum((a * b for a, b in zip(r, v)), ctx.zero) == ctx.zero
    assert len(la.nullspace([], 4, ctx)) == 4


def test_solve():
    a = [[QQ.from_int(v) for v in row] for row in [[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
    x = la.solve(a, [QQ.from_int(6), QQ.from_int(12), QQ.from_int(2)], QQ)
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == [6, 12, 2]
    assert la.solve([[QQ.one], [QQ.one]], [QQ.one, QQ.from_int(2)], QQ) is None


def test_rank_drops_on_dependent_rows():
    rows = [[QQ.from_int(v) for v in r] for r in [[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
    assert la.rank(rows, QQ) == 2
    assert la.rank([], QQ) == 0


def test_rref_keeps_integer_rows_exact():
    red, piv = la.rref([[2, 1], [4, 3]], QQ)
    assert red == [[1, 0], [0, 1]] and piv == [0, 1]
    red, piv = la.rref([[2, 1, 1], [4, 3, 0]], QQ)
    assert red == [[1, 0, Rational(3, 2)], [0, 1, -2]] and piv == [0, 1]
    assert not any(isinstance(v, float) for row in red for v in row)
    assert la.rank([[2, 1], [4, 2]], QQ) == 1


def test_residues():
    assert la.residues([[Rational(1, 2), -1, Fp(5, P)]], P) == [[(P + 1) // 2, P - 1, 5]]
    with pytest.raises(ValueError):
        la.residues([[Rational(1, P)]], P)
    with pytest.raises(ValueError):
        la.residues([[Rational(3, 2 * P)]], P)
    with pytest.raises(ValueError):
        la.residues([[Fp(1, 1_000_000_007)]], P)


@st.composite
def matrices(draw):
    """Rectangular matrices up to 7x8 of small rationals and large residues,
    with zero rows and repeated rows mixed in."""
    ncols = draw(st.integers(0, 8))
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(-9, 9, max_denominator=5),
        st.integers(0, P - 1),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    for _ in range(draw(st.integers(0, 7 - len(rows)))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            copy = rows[draw(st.integers(0, len(rows) - 1))]
        else:
            copy = [0] * ncols
        rows.insert(at, list(copy))
    return ncols, rows


def sympy_rref(rows, ncols, ctx):
    """Reduced rows (as Python ints/rationals) and pivots, computed by sympy."""
    sympy = pytest.importorskip("sympy")
    if ctx.kind == "qq":
        m = sympy.Matrix(len(rows), ncols, [sympy.Rational(str(v)) for r in rows for v in r])
        red, piv = m.rref()
        return [[Rational(str(v)) for v in red.row(i)] for i in range(red.rows)], piv
    domain = pytest.importorskip("sympy.polys.matrices")
    gf = sympy.GF(P)
    m = domain.DomainMatrix([[gf(v.r) for v in r] for r in rows], (len(rows), ncols), gf)
    red, piv = m.rref()
    return [[int(gf.to_int(v)) % P for v in r] for r in red.to_list()], piv


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@settings(max_examples=150, deadline=None)
@given(m=matrices())
def test_elimination_agrees_with_sympy(ctx, m):
    ncols, raw = m
    rows = [[ctx.convert(v) for v in r] for r in raw]
    want_red, want_piv = sympy_rref(rows, ncols, ctx)
    red, piv = la.rref(rows, ctx)
    assert piv == list(want_piv)
    got = red if ctx.kind == "qq" else [[v.r for v in r] for r in red]
    assert got == want_red
    assert la.rank(rows, ctx) == len(piv)
    ns = la.nullspace(rows, ncols, ctx)
    assert len(ns) == ncols - len(piv)
    for v in ns:
        for r in rows:
            assert sum((a * b for a, b in zip(r, v)), ctx.zero) == 0
    fp_rows = [[FP.convert(v) for v in r] for r in raw]
    assert la.rank(fp_rows, FP) == la.rank_mod_p(la.residues(rows, P), P)


# ---- the sparse kernel against the dense loop it replaced ------------------


def dense_eliminate(a, p, full):
    """Oracle: the dense elimination loop that preceded the sparse kernel.
    Row-reduces `a` in place (ints in [0, p), or rationals when p is None)
    and returns its pivot columns, always the leftmost free column."""
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        if p is None:
            inv = 1 / Rational(a[r][c])
            piv = a[r][c:] = [v * inv for v in a[r][c:]]
        else:
            inv = pow(a[r][c], -1, p)
            piv = a[r][c:] = [v * inv % p for v in a[r][c:]]
        for i in range(0 if full else r + 1, len(a)):
            f = a[i][c]
            if not f or i == r:
                continue
            if p is None:
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], piv)]
            else:
                a[i][c:] = [(x - f * y) % p for x, y in zip(a[i][c:], piv)]
        pivots.append(c)
    return pivots


def dense_rref(rows, ctx):
    """Oracle rref on plain values: rationals over Q, residues over F_p."""
    if ctx.kind == "qq":
        a = [[Rational(v) for v in r] for r in rows]
        return a, dense_eliminate(a, None, True)
    a = [[v % P for v in r] for r in la.residues(rows, P)]
    return a, dense_eliminate(a, P, True)


def dense_nullspace(red, pivots, ncols, p):
    """Oracle kernel basis read off a reduced row echelon form: one vector
    per free column, scaled so that its first nonzero entry is 1."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        lead = next(c for c in v if c)
        if p is None:
            basis.append([c / Rational(lead) for c in v])
        else:
            basis.append([c * pow(lead, -1, p) % p for c in v])
    return basis


def as_dicts(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


@st.composite
def sparse_matrices(draw):
    """Rectangular matrices up to 9x10, mostly zeros, with zero rows and
    repeated rows mixed in; nonzero entries include multiples of P, which
    vanish mod P but not over Q."""
    ncols = draw(st.integers(0, 10))
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.integers(-3, 3),
        st.fractions(-9, 9, max_denominator=5),
        st.integers(1, 3).map(lambda k: k * P),
        st.fractions(-9, 9, max_denominator=5).map(lambda q: q * P),
        st.integers(0, P - 1),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    for _ in range(draw(st.integers(0, 9 - len(rows)))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            copy = rows[draw(st.integers(0, len(rows) - 1))]
        else:
            copy = [0] * ncols
        rows.insert(at, list(copy))
    return ncols, rows


def agrees_with_oracles(rows, ncols, ctx):
    red, piv = la.rref(rows, ctx)
    want_red, want_piv = dense_rref(rows, ctx)
    got = red if ctx.kind == "qq" else [[v.r for v in r] for r in red]
    assert (got, piv) == (want_red, want_piv)
    assert len(red) == len(rows) and all(len(r) == ncols for r in red)
    if rows:
        sympy_red, sympy_piv = sympy_rref(rows, ncols, ctx)
        assert (got, piv) == (sympy_red, list(sympy_piv))
    assert la.rank(rows, ctx) == la.rank(as_dicts(rows), ctx) == len(piv)
    ns = la.nullspace(rows, ncols, ctx)
    p = None if ctx.kind == "qq" else P
    got = [[v if p is None else v.r for v in b] for b in ns]
    assert got == dense_nullspace(want_red, want_piv, ncols, p)
    for v in ns:
        for r in rows:
            assert sum((a * b for a, b in zip(r, v)), ctx.zero) == 0


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@settings(max_examples=150, deadline=None)
@given(m=sparse_matrices())
def test_sparse_kernel_agrees_with_dense_loop_and_sympy(ctx, m):
    ncols, raw = m
    agrees_with_oracles([[ctx.convert(v) for v in r] for r in raw], ncols, ctx)
    # rank_mod_p reduces raw integer rows itself, as lists or as dicts
    ints = la.residues([[Rational(v) for v in r] for r in raw], P)
    lifted = [[v + P * ((i + c) % 3) for c, v in enumerate(r)] for i, r in enumerate(ints)]
    want = len(dense_eliminate([list(r) for r in ints], P, False))
    assert la.rank_mod_p(lifted, P) == la.rank_mod_p(as_dicts(lifted), P) == want


@st.composite
def restriction_stacks(draw):
    """The stacked `_restriction_rows` of one to n+1 random flats of P^n
    at a degree d <= n, with zeros allowed among the flat coefficients."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n))
    js = draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1, unique=True))
    coeffs = []
    for j in js:
        a = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
        k = draw(st.integers(0, n - 1))
        a[k if k < j else k + 1] = draw(st.integers(1, 3))  # some a_{j,k} != 0
        coeffs.append((j, a))
    return n, d, coeffs


@pytest.mark.parametrize("ctx", [QQ, FP], ids=["qq", "fp"])
@settings(max_examples=40, deadline=None)
@given(case=restriction_stacks())
def test_sparse_kernel_on_restriction_rows(ctx, case):
    n, d, coeffs = case
    flats = [Flat(j, tuple(ctx.convert(c) for c in a)) for j, a in coeffs]
    mons = maps.monomials_of_degree(n + 1, d)
    sparse = [r for f in flats for r in maps._restriction_rows(f, d, ctx, mons)]
    rows = [[row.get(c, ctx.zero) for c in range(len(mons))] for row in sparse]
    assert as_dicts(rows) == sparse
    assert la.rank(sparse, ctx) == la.rank(rows, ctx)
    agrees_with_oracles(rows, len(mons), ctx)
    want = len(mons) - len(dense_rref(rows, ctx)[1])
    assert maps.linear_system_dimension(flats, d, ctx) == want
