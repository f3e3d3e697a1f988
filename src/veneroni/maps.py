"""Construction of the Veneroni map, its explicit inverse, and the class matrix.

The map is determinantal: B is the (n+1)x(n+1) matrix with -f_i on the
diagonal and a_{i,k} x_k elsewhere, built straight from the canonical flats.
Deleting row and column i leaves B_i with det(B_i) = x_i Q_i, an identity
that the zero row sums of B prove in closed form (`compute_Q`), and
the n+1 products x_i Q_i are the components of the degree-n map v_n.
The zero row sums also make the cofactors along each row of B equal, so
the components are the n+1 maximal minors of columns 1..n of B, up to
sign, and one expansion gives them all (`compute_all_Q`).  The
inverse comes from rewriting each f_i Q_i in the component basis; the
coefficients form the b-matrix, which is the transpose of the flat matrix
A = (a_{i,k}) because the rows of B sum to zero.  Row i of b gives the
linear form g_i, and the rows of b are again canonical flats (y_i, g_i):
the inverse is the Veneroni map of these dual flats (`build_inverse_map`).

For canonical flats of P^n, n >= 2, every construction invariant (degrees,
vanishing on the flats, nonzero values at the vertices, the b-matrix
expansion and its zero pattern) is a theorem about the shape of B, general
instance or not, and the inverse inherits them as the map of the dual
flats.  The constructors state the proofs and test none of them; the
verification suite re-derives them from stored, untrusted data.
"""

from dataclasses import dataclass

from . import exactla as la
from .mpoly import Poly
from .projgeo import Flat

__all__ = [
    "ConstructionError",
    "VeneroniMap",
    "InverseData",
    "build_matrix_B",
    "minor_matrix",
    "matrix_M",
    "compute_Q",
    "compute_all_Q",
    "linear_system_dimension",
    "build_forward_map",
    "solve_b_matrix",
    "build_inverse_map",
    "class_matrix",
    "monomials_of_degree",
]


class ConstructionError(Exception):
    """Construction was refused, e.g. for a flat off the canonical pattern;
    the message names the reason."""


def build_matrix_B(flats, ctx):
    """The defining matrix: diagonal -f_i, entry (i,k) = a_{i,k} x_k."""
    for f in flats:
        if not f.is_canonical():
            raise ConstructionError(f"flat {f.j} is not canonical")
    n1 = len(flats)
    return [
        [-f.form2_poly() if k == i else Poly.var(k, n1, f.a[k]) for k in range(n1)]
        for i, f in enumerate(flats)
    ]


def minor_matrix(m, i):
    """Delete row i and column i."""
    return [
        [e for k, e in enumerate(row) if k != i]
        for r, row in enumerate(m)
        if r != i
    ]


def matrix_M(flats, i, b):
    """M_i: the minor B_i of the flats' matrix `b` with the constants
    -a_{j,i}, j != i, in its first column (see `compute_Q`)."""
    n1 = len(flats)
    m = minor_matrix(b, i)
    for row, j in zip(m, (j for j in range(n1) if j != i)):
        row[0] = Poly.const(-flats[j].a[i], n1)
    return m


def compute_Q(flats, i, ctx):
    """Q_i = det(B_i) / x_i in closed form, as det(M_i) (`matrix_M`) by
    `minor_dp`.  The constructors take every Q_i at once from
    `compute_all_Q`, and so does `cli demo`; a verify expands neither,
    proving each stored Q_i and Q'_i on a lattice (`lattice.det_m_failure`).
    This expansion of one M_i at a time is `compute_all_Q`'s oracle in the
    tests, and `demos/residual_plane.py` takes Q_0 and Q_1 from it.

    For canonical flats (a_{j,j} = 0) each row of B sums to zero, so row j
    of B_i sums to -a_{j,i} x_i.  Adding every other column of B_i to its
    first column and factoring x_i out of it gives det(B_i) = x_i det(M_i),
    where M_i is B_i with the constants -a_{j,i} in its first column.  The
    identity holds over any commutative ring and for every canonical
    instance, general or not, so no division is needed.

    Q_i has degree exactly n-1.  M_i has one constant column and n-1
    columns of linear forms, so det(M_i) is homogeneous of degree n-1 or
    zero; and at the vertex e_i every off-diagonal entry a_{j,k} x_k of
    B_i vanishes, so M_i(e_i) is lower triangular with diagonal -a_{j,i}
    and Q_i(e_i) = prod_{j != i} (-a_{j,i}) != 0.
    """
    return la.det_poly_matrix(matrix_M(flats, i, build_matrix_B(flats, ctx)))


def compute_all_Q(flats, ctx):
    """(Q, components): every Q_r and x_r Q_r from one expansion, the n+1
    maximal minors of the n x (n+1) transpose N of columns 1..n of B.

    The rows of B sum to zero, so the n+1 cofactors along each row of B are
    equal (`solve_b_matrix`).  Along row r the cofactor of column 0 is
    (-1)^r det(B without row r and column 0), the minor of N on the
    columns other than r, and that of column r is det(B_r) = x_r Q_r
    (`compute_Q`).  So x_r Q_r is (-1)^r times that minor, and one
    `exactla.maximal_minors` of N gives all n+1 components.  Q_r is the
    component with one unit of x_r taken off each term; a term without
    x_r would contradict the lemma, so it raises ArithmeticError.
    """
    b = build_matrix_B(flats, ctx)
    n1 = len(b)
    minors = la.maximal_minors([[row[k] for row in b] for k in range(1, n1)])
    qs, components = [], []
    for r in range(n1):
        v = minors.get(((1 << n1) - 1) ^ (1 << r), Poly(n1))
        v = -v if r % 2 else v
        q = Poly(n1)
        for e, c in v.terms.items():
            if not e[r]:
                raise ArithmeticError(f"a term of x_{r} Q_{r} lacks x_{r}")
            q.terms[e[:r] + (e[r] - 1,) + e[r + 1:]] = c
        qs.append(q)
        components.append(v)
    return qs, components


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed deterministic order."""
    if nvars == 1:
        return [(d,)]
    out = []
    for k in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - k):
            out.append((k,) + rest)
    return out


def _restriction_rows(flat, d, ctx, mons):
    """Linear conditions on degree-d coefficients for vanishing on the flat.

    Each monomial x^e goes to its image under `Flat.reduction`: zero when
    e_j > 0, else x^e with x_k replaced by L.  A degree-d form vanishes on
    the flat exactly when its image is zero, so each monomial of the
    images gives one condition, a {column: entry} dict holding the nonzero
    contributions of the coefficients.  Monomials with x_j give no entry
    at all.
    """
    j = flat.j
    k, coeffs = flat.reduction(ctx)
    line = Poly.from_linear(coeffs)
    powers = [Poly.const(ctx.one, flat.nvars)]  # powers[m] = L^m
    for _ in range(d):
        powers.append(powers[-1] * line)
    rows = {}
    for col, e in enumerate(mons):
        if e[j]:
            continue
        rest = e[:k] + (0,) + e[k + 1:]
        for f, c in powers[e[k]].terms.items():
            mono = tuple(x + y for x, y in zip(f, rest))
            rows.setdefault(mono, {})[col] = c
    return [rows[m] for m in sorted(rows)]


def linear_system_dimension(flats, d, ctx):
    """Dimension of the degree-d forms vanishing on every given flat: the
    nullity of the stacked restriction conditions, by one exact
    elimination.

    A verify reads the degree-n dimension off `projgeo.restriction_bound`
    and calls this only as the fallback, when that bound is not n+1, so a
    failing report names the real dimension; the tests use it as the
    bound's oracle.
    """
    mons = monomials_of_degree(flats[0].nvars, d)
    rows = []
    for f in flats:
        rows.extend(_restriction_rows(f, d, ctx, mons))
    return len(mons) - la.rank(rows, ctx)


@dataclass
class VeneroniMap:
    """The forward map: components[i] = x_i * Q[i], all of degree n."""

    n: int
    ctx: object
    flats: list
    Q: list
    components: list


def vanishes_on_flat(p, flat, ctx):
    """Exact test: p vanishes on the flat, i.e. p lies in its ideal (x_j, f_j).

    p vanishes on the flat exactly when its image under `Flat.reduction`
    (x_j -> 0, x_k -> L) is zero.  Terms with x_j drop out, the rest are
    grouped by their power of x_k, and the image is summed by Horner in L.
    Raises ValueError on a degenerate flat.

    Nothing in the package calls it; the tests use it as an oracle and
    perfbench/tracer.py wraps it.
    """
    j = flat.j
    k, coeffs = flat.reduction(ctx)
    line = Poly.from_linear(coeffs)
    groups = {}  # power of x_k -> the terms carrying it, with x_k removed
    for e, c in p.terms.items():
        if not e[j]:
            groups.setdefault(e[k], {})[e[:k] + (0,) + e[k + 1:]] = c
    if not groups:
        return True
    top = max(groups)
    image = Poly(p.nvars, groups[top])
    for m in range(top - 1, -1, -1):
        image = image * line + Poly(p.nvars, groups.get(m))
    return image.is_zero()


def build_forward_map(flats, ctx):
    """Build v_n: the components x_i Q_i and the Q_i, all from one
    `compute_all_Q`, where Q_i = det(M_i) (`compute_Q`) by the cofactor lemma.

    Every construction invariant is a theorem for canonical flats of P^n,
    n >= 2, general or not, so none is tested here:

    - Q_i vanishes on each flat j != i.  Column j of B_i lies in the ideal
      (x_j, f_j) of flat j, so x_i Q_i = det(B_i) does too.  The ideal is
      prime and does not hold x_i, since f_j has n >= 2 terms off x_j.
    - Q_i is nonzero at every vertex e_k.  For k = i see `compute_Q`.  For
      k != i, let j0 be the first index other than i.  In M_i(e_k) each
      column l other than j0 and k holds only its diagonal entry -a_{l,k}.
      Expanding along those columns leaves the 2x2 minor on rows and
      columns j0, k, which is a_{j0,k} a_{k,i} when k != j0 (the entry
      -a_{k,k} is zero); when k = j0 the matrix is lower triangular with
      diagonal -a_{j0,i}, -a_{l,j0}.  Either way the value is a product
      of nonzero coefficients.
    - x_i Q_i is homogeneous of degree n, as Q_i is of degree n-1.

    So every component vanishes on all n+1 flats: Q_i covers each flat
    j != i, and x_i lies in the ideal (x_i, f_i) of flat i.
    """
    qs, components = compute_all_Q(flats, ctx)
    return VeneroniMap(n=len(flats) - 1, ctx=ctx, flats=list(flats), Q=qs, components=components)


@dataclass
class InverseData:
    """The inverse map u_n: the b-matrix and the components.  The forms g_i
    and the dual flats (y_i, g_i) are the rows of b, so neither is stored."""

    b: list  # (n+1) x (n+1) scalars, b[i][j] = 0 iff i = j
    inverse_components: list | None = None  # y_i Q'_i, degree n


def solve_b_matrix(vmap):
    """The b-matrix in closed form: b[i][j] = a_{j,i}, the transpose of A.

    The rows of B sum to zero, so for each row the n+1 cofactors are equal
    (the columns of B without that row sum to zero), and det B = 0.  The
    cofactors of row i are the diagonal one, det(B_i) = x_i Q_i, so every
    row of adj(B) is (x_0 Q_0, ..., x_n Q_n), and adj(B)·B = det(B)·I = 0
    reads in column k, after division by x_k, f_k Q_k = sum_j a_{j,k} x_j Q_j.
    That is the expansion of f_k Q_k in the components with row k of b.
    Its zero pattern, b[i][j] = 0 iff i = j, is the canonical one
    transposed.  Row k of b is the linear form g_k = sum_j b_{k,j} y_j.
    """
    n1 = vmap.n + 1
    b = [[vmap.flats[j].a[i] for j in range(n1)] for i in range(n1)]
    return InverseData(b=b)


def build_inverse_map(vmap, inv):
    """Complete the inverse: the Veneroni map of the dual flats (y_i, g_i),
    the rows of b, with components y_i Q'_i.

    For b = A^T the dual flats are canonical, so the invariants of
    `build_forward_map` hold and none is tested here, and their b-matrix is
    A again.  That the map is the inverse of v: the classical inverse
    components are det(C_i), with C the matrix B in y with -g_i on its
    diagonal, entry (i,k) = a_{i,k} y_k.  With Y = diag(y) and B' the dual
    flats' matrix, entry (r,c) = b_{r,c} y_c, b = A^T gives C^T = Y·B'·Y^-1,
    and a diagonal similarity keeps principal minors: det(C_i) = y_i Q'_i.
    The dual flats are built here and not kept: `checks.ProofRecord.dual`
    builds them from b the same way.
    """
    duals = [Flat(i, tuple(row)) for i, row in enumerate(inv.b)]
    inv.inverse_components = build_forward_map(duals, vmap.ctx).components
    return inv


def class_matrix(n):
    """Integer pullback matrix on the classes (H, flat_0, ..., flat_n).

    First row (n, n-1, ..., n-1), first column (n, -1, ..., -1), and below
    the corner the block with zero diagonal and -1 elsewhere.  The matrix
    acts on the n+2 listed classes; `checks.check_class_matrix` squares it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    size = n + 2
    m = [[0] * size for _ in range(size)]
    m[0][0] = n
    for k in range(1, size):
        m[0][k] = n - 1
        m[k][0] = -1
        for l in range(1, size):
            if l != k:
                m[k][l] = -1
    return m
