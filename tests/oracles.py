"""Oracles shared by the tests.

Restricting a polynomial to the span of points by `Poly.substitute` gives
the zero polynomial exactly when the polynomial vanishes on the span.  The
package proves such vanishing otherwise (`maps.vanishes_on_flat` by
reduction, `checks._pair_failure` by a count of zeros); these, and
`vanishing_on_line`, which decides it from point values, are the
independent oracles they are tested against.  The entries of
C(v) − B·diag(Q) are likewise expanded here by substitution, where
`checks.verify_composition` reads them from a report's proof record, and
the matrix C of the classical inverse, which the package never builds, is
built here.

The determinant kernels of `exactla` expand on the integer form of a
matrix; `det_by_poly_ops` runs the column-subset expansion on the
entries' own `+` and `*` instead, so no coefficient crosses that
boundary.  The small predicates at the end (`is_homogeneous`, `div_var`,
`flat_contains`) have no caller in the package, which proves what they
test; `coefficient_rows` lays polynomials out as the rows of a rank that
`checks.check_basis` cites instead of eliminating.  `flat_span` is the
general solver behind the closed form of `projgeo.parametrize_flat`: the
nullspace of a flat's two forms; `flat_intersection`, the nullspace of
two flats' four forms, is the one behind `projgeo.flat_meet`.  `lead`
and `random_scalar` serve only the tests, so they live here and not on
`Poly` and `FieldCtx`.  `double_at_pair_points` evaluates each Q_k and all
its partials at a point of each pairwise flat intersection, the sample
that `checks.check_multiplicity` replaces by its ideal-product lemma.
"""

from itertools import combinations

from veneroni import exactla as la
from veneroni import maps
from veneroni.mpoly import Evaluator, Poly
from veneroni.projgeo import ProjPoint
from veneroni.scalar import Fp, Rational


def restrict_to_span(p, pts):
    """The polynomial with x_i -> sum_m pts[m][i] * s_m, one parameter per
    point: zero exactly when p vanishes on the whole span."""
    images = [Poly.from_linear([pt[i] for pt in pts]) for i in range(len(pts[0]))]
    return p.substitute(images)


def line_restrict(p, line):
    """The binary form in (s, t): the polynomial restricted to the line."""
    return restrict_to_span(p, [line.base, line.dir])


def vanishing_on_line(polys):
    """The line test: a function of a line, whether each polynomial vanishes on it.

    Restriction to the line, x -> s·base + t·dir, maps the degree-d part of
    a polynomial to a binary form of degree d in (s, t), so a polynomial
    vanishes on the line exactly when each of its homogeneous parts does.
    A binary form of degree d that is not zero has at most d zeros on P^1,
    and (1 : m) for m = 0..d are d+1 distinct points of P^1 (the field has
    characteristic 0 or a prime above 2^30), so a part of degree d vanishes
    on the line exactly when it is zero at base + m·dir for m = 0..d.  The
    parts and their `Evaluator` serve every line.
    """
    parts, owners = [], []  # the homogeneous parts, and (polynomial, degree)
    for k, q in enumerate(polys):
        by_degree = {}
        for e, c in q.terms.items():
            by_degree.setdefault(sum(e), {})[e] = c
        for d, terms in by_degree.items():
            parts.append(Poly(q.nvars, terms))
            owners.append((k, d))
    values = Evaluator(parts) if parts else None

    def inside(line):
        out = [True] * len(polys)
        for m in range(max((d for _, d in owners), default=-1) + 1):
            point = [b + m * v for b, v in zip(line.base, line.dir)]
            for (k, d), value in zip(owners, values(point)):
                if value and m <= d:
                    out[k] = False
        return out

    return inside


def matrix_C(vmap, inv):
    """B in the y-variables with −g_i on the diagonal, g_i rebuilt from row
    i of b: entry (i, k) = a_{i,k}·y_k.  The classical inverse components
    are the principal minors det(C_i)."""
    n1 = vmap.n + 1
    return [
        [-Poly.from_linear(inv.b[i]) if k == i else Poly.var(k, n1, f.a[k]) for k in range(n1)]
        for i, f in enumerate(vmap.flats)
    ]


def factorization_entries(vmap, inv):
    """The entries ((m, k), C[m][k](v) − B[m][k]·Q_k) of C(v) − B·diag(Q),
    in row-major order, with the components substituted into C."""
    c = matrix_C(vmap, inv)
    b = maps.build_matrix_B(vmap.flats, vmap.ctx)
    n1 = vmap.n + 1
    return [
        ((m, k), c[m][k].substitute(vmap.components) - b[m][k] * vmap.Q[k])
        for m in range(n1)
        for k in range(n1)
    ]


def det_by_poly_ops(m):
    """Determinant by column-subset dynamic programming on the entries' own
    operators: D[mask] is the minor on the first popcount(mask) rows and
    the columns in mask, expanded along its last row."""
    k = len(m)
    if k == 0:
        return 1
    prev = {1 << j: m[0][j] for j in range(k)}
    for r in range(1, k):
        cur = {}
        for mask, minor in prev.items():
            for j in range(k):
                bit = 1 << j
                if mask & bit:
                    continue
                nm = mask | bit
                term = m[r][j] * minor
                if (r + bin(mask & (bit - 1)).count("1")) % 2:
                    term = -term
                cur[nm] = cur[nm] + term if nm in cur else term
        prev = cur
    return prev[(1 << k) - 1]


def is_homogeneous(p):
    """Whether every term of p has the same total degree."""
    return len({sum(e) for e in p.terms}) <= 1


def div_var(p, i):
    """The exact quotient p / x_i; ValueError when a term lacks x_i."""
    out = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            raise ValueError(f"not divisible by x{i}")
        out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
    return Poly(p.nvars, out)


def coefficient_rows(polys, mons, ctx):
    """One row per polynomial: its coefficients on the monomials `mons`.

    Raises ValueError on a term whose monomial is not listed.
    """
    col = {m: i for i, m in enumerate(mons)}
    rows = []
    for poly in polys:
        row = [ctx.zero] * len(mons)
        for e, c in poly.terms.items():
            if e not in col:
                raise ValueError(f"term {list(e)} is not of degree {sum(mons[0])}")
            row[col[e]] = c
        rows.append(row)
    return rows


def flat_contains(flat, pt):
    """Whether the point lies on the flat: x_j and f_j both vanish there."""
    return not pt[flat.j] and not sum(c * x for c, x in zip(flat.a, pt))


def flat_span(flat, ctx):
    """Points spanning the flat, read off the nullspace of its two forms."""
    return [ProjPoint(v, ctx) for v in la.nullspace(flat.form_rows(ctx), flat.nvars, ctx)]


def lead(p):
    """(exponent, coefficient) of the grevlex-leading term of p."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    return p.sorted_terms()[0]


def random_scalar(ctx, rng, bound=9):
    """Uniform draw including zero: an integer in [-bound, bound], or any
    residue."""
    if ctx.kind == "fp":
        return Fp(rng.randrange(ctx.p), ctx.p)
    return Rational(rng.randrange(-bound, bound + 1))


def double_at_pair_points(vmap, rng):
    """The (i, j, k), k not in {i, j}, where Q_k or one of its partials is
    nonzero at a random point of flat_i ∩ flat_j: empty when every such
    Q_k is double at the points drawn."""
    ctx, n1 = vmap.ctx, vmap.n + 1
    gradients = [[q.partial(v) for v in range(n1)] for q in vmap.Q]
    failures = []
    for i, j in combinations(range(n1), 2):
        basis = flat_intersection(vmap.flats[i], vmap.flats[j], ctx)
        combo = [ctx.random_nonzero(rng) for _ in basis]
        point = tuple(sum((c * b[m] for c, b in zip(combo, basis)), ctx.zero) for m in range(n1))
        for k in range(n1):
            if k not in (i, j) and any(p.evaluate(point) for p in (vmap.Q[k], *gradients[k])):
                failures.append((i, j, k))
    return failures


def flat_intersection(a, b, ctx):
    """Basis of the intersection of two flats, read off the nullspace of
    their four forms: the general solver behind `projgeo.flat_meet`."""
    rows = a.form_rows(ctx) + b.form_rows(ctx)
    return [ProjPoint(v, ctx) for v in la.nullspace(rows, a.nvars, ctx)]
