"""Construction of the Veneroni map, its explicit inverse, and the class matrix.

The map is determinantal: B is the (n+1)x(n+1) matrix with -f_i on the
diagonal and a_{i,k} x_k elsewhere, built straight from the canonical flats.
Deleting row and column i leaves B_i with det(B_i) = x_i Q_i, an identity
that the zero row sums of B prove in closed form (`q_by_column_sums`), and
the n+1 products x_i Q_i are the components of the degree-n map v_n.  The
inverse comes from rewriting each f_i Q_i in the component basis; the
coefficients form the b-matrix, which is the transpose of the flat matrix
A = (a_{i,k}) because the rows of B sum to zero.  Row i of b gives the
linear form g_i, the analogous matrix C in the target coordinates, and
inverse components det(C_i).
"""

from dataclasses import dataclass

from . import exactla as la
from .mpoly import Poly
from .projgeo import Flat, ProjPoint

__all__ = [
    "ConstructionError",
    "BaseLocusError",
    "VeneroniMap",
    "InverseData",
    "build_matrix_B",
    "minor_matrix",
    "q_by_column_sums",
    "compute_Q",
    "linear_system_dimension",
    "build_forward_map",
    "solve_b_matrix",
    "build_inverse_map",
    "apply_map",
    "class_matrix",
    "monomials_of_degree",
    "coefficient_rows",
]


class ConstructionError(Exception):
    """A construction-time invariant failed; the message names it."""


class BaseLocusError(Exception):
    """The map was applied at a point where every component vanishes."""


def build_matrix_B(flats, ctx):
    """The defining matrix: diagonal -f_i, entry (i,k) = a_{i,k} x_k."""
    n1 = len(flats)
    rows = []
    for i, f in enumerate(flats):
        if not f.is_canonical():
            raise ConstructionError(f"flat {f.j} is not canonical")
        row = []
        for k in range(n1):
            if k == i:
                row.append(-f.form2_poly())
            else:
                row.append(Poly.var(k, n1, f.a[k]))
        rows.append(row)
    return rows


def minor_matrix(m, i):
    """Delete row i and column i."""
    return [
        [e for k, e in enumerate(row) if k != i]
        for r, row in enumerate(m)
        if r != i
    ]


def q_by_column_sums(flats, i, ctx):
    """Q_i = det(B_i) / x_i in closed form, as det(M_i).

    For canonical flats (a_{j,j} = 0) each row of B sums to zero, so row j
    of B_i sums to -a_{j,i} x_i.  Adding every other column of B_i to its
    first column and factoring x_i out of it gives det(B_i) = x_i det(M_i),
    where M_i is B_i with the constants -a_{j,i} in its first column.  The
    identity holds over any commutative ring and for every canonical
    instance, general or not, so no division is needed.
    """
    n1 = len(flats)
    m = minor_matrix(build_matrix_B(flats, ctx), i)
    for row, j in zip(m, (j for j in range(n1) if j != i)):
        row[0] = Poly.const(-flats[j].a[i], n1)
    return la.det_poly_matrix(m)


def compute_Q(flats, i, ctx):
    """Q_i = det(B_i) / x_i, the degree-(n-1) hypersurface avoiding flat i."""
    q = q_by_column_sums(flats, i, ctx)
    n = len(flats) - 1
    if q.degree() != n - 1:
        raise ConstructionError(f"Q_{i} has degree {q.degree()}, expected {n - 1}")
    return q


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed deterministic order."""
    if nvars == 1:
        return [(d,)]
    out = []
    for k in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - k):
            out.append((k,) + rest)
    return out


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


def _flat_reduction(flat, ctx):
    """(j, k, L): on the flat x_j = 0 and x_k = L, a linear form in the
    variables other than x_j and x_k.

    k is the first index other than j with a_{j,k} != 0, and
    L = -sum_{i != j,k} (a_{j,i}/a_{j,k}) x_i.  The map x_j -> 0, x_k -> L
    is the isomorphism k[x]/(x_j, f_j) = k[x_i : i != j,k]; the coefficient
    a_{j,j} plays no part (f_j matters only modulo x_j).  Raises ValueError
    when every a_{j,i} with i != j is zero, since (x_j, f_j) is then no
    codimension-2 flat.
    """
    j, a = flat.j, flat.a
    k = next((i for i, c in enumerate(a) if i != j and c), None)
    if k is None:
        raise ValueError(f"flat {j} is degenerate: f_{j} has no term off x_{j}")
    scale = -ctx.inv(a[k])
    line = Poly.from_linear(
        [ctx.zero if i in (j, k) else c * scale for i, c in enumerate(a)]
    )
    return j, k, line


def _restriction_rows(flat, d, ctx, mons):
    """Linear conditions on degree-d coefficients for vanishing on the flat.

    Each monomial x^e goes to its image under the reduction of the flat:
    zero when e_j > 0, else x^e with x_k replaced by L.  A degree-d form
    vanishes on the flat exactly when its image is zero, so each monomial
    of the images gives one condition, a {column: entry} dict holding the
    nonzero contributions of the coefficients.  Monomials with x_j give no
    entry at all.
    """
    j, k, line = _flat_reduction(flat, ctx)
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


def linear_system_dimension(flats, d, ctx, subset=None, witnesses=None):
    """Dimension of the degree-d forms vanishing on every listed flat.

    Computed as the nullity of the stacked restriction conditions.  When
    `witnesses` (known members of the system) are supplied and they are
    linearly independent, a rank bound over a large prime field is used to
    pinch the nullity between the witness count and the modular nullity,
    which avoids the expensive rational elimination in the big cases; if
    the bounds do not meet, the exact elimination runs anyway.
    """
    chosen = flats if subset is None else [flats[k] for k in subset]
    nvars = flats[0].nvars
    mons = monomials_of_degree(nvars, d)
    rows = []
    for f in chosen:
        rows.extend(_restriction_rows(f, d, ctx, mons))
    if not rows:
        return len(mons)
    if witnesses is not None and ctx.kind == "qq":
        pinched = _pinch_nullity(rows, mons, witnesses, ctx)
        if pinched is not None:
            return pinched
    return len(mons) - la.rank(rows, ctx)


_PINCH_PRIME = (1 << 31) - 1


def _pinch_nullity(rows, mons, witnesses, ctx):
    """Sandwich the rational nullity using a mod-p rank and known members.

    Reducing mod p can only lower the rank, so nullity_p >= nullity_QQ.
    Independent witnesses give nullity_QQ >= #witnesses.  When the two
    meet, the value is exact.  A denominator divisible by p has no residue,
    and a witness with a term of another degree is no member of the system;
    either way the pinch fails closed into the exact path.
    """
    p = _PINCH_PRIME
    try:
        wrows = coefficient_rows(witnesses, mons, ctx)
        int_rows, int_wrows = la.residues(rows, p), la.residues(wrows, p)
    except ValueError:
        return None
    nullity_p = len(mons) - la.rank_mod_p(int_rows, p)
    # witness independence, also certified mod p (a nonzero minor lifts)
    if nullity_p == len(witnesses) and la.rank_mod_p(int_wrows, p) == nullity_p:
        return nullity_p
    return None


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

    p vanishes on the flat exactly when its image under the reduction of
    `_flat_reduction` (x_j -> 0, x_k -> L) is zero.  Terms with x_j drop
    out, the rest are grouped by their power of x_k, and the image is
    summed by Horner in L.  Raises ValueError on a degenerate flat.
    """
    j, k, line = _flat_reduction(flat, ctx)
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
    """Build v_n and establish every construction invariant by checking it.

    Verifies, for each i: deg Q_i = n-1; Q_i vanishes identically on each
    flat j != i; Q_i is nonzero at every coordinate vertex; and the
    component x_i Q_i is homogeneous of degree n.  That the component
    vanishes on all n+1 flats then needs no test: Q_i covers every flat
    j != i and x_i lies in the ideal (x_i, f_i) of flat i.  Any failure
    raises a ConstructionError naming the first bad invariant.
    """
    n1 = len(flats)
    n = n1 - 1
    qs = [compute_Q(flats, i, ctx) for i in range(n1)]
    verts = [
        ProjPoint([ctx.one if k == i else ctx.zero for k in range(n1)], ctx)
        for i in range(n1)
    ]
    for i, q in enumerate(qs):
        for j in range(n1):
            if j != i and not vanishes_on_flat(q, flats[j], ctx):
                raise ConstructionError(f"Q_{i} does not vanish on flat {j}")
        for k, v in enumerate(verts):
            if not q.evaluate(v.coords):
                raise ConstructionError(f"Q_{i} vanishes at coordinate vertex {k}")
    components = [Poly.var(i, n1, ctx.one) * q for i, q in enumerate(qs)]
    for i, comp in enumerate(components):
        if comp.degree() != n or not comp.is_homogeneous():
            raise ConstructionError(f"component {i} is not homogeneous of degree {n}")
    return VeneroniMap(n=n, ctx=ctx, flats=list(flats), Q=qs, components=components)


@dataclass
class InverseData:
    """The inverse map u_n: b-matrix, forms g_i, det(C_i), dual flats."""

    b: list  # (n+1) x (n+1) scalars, b[i][j] = 0 iff i = j
    g: list  # linear forms in the y-variables, row i of b
    inverse_components: list | None = None  # det(C_i), degree n
    dual_flats: list | None = None  # ideals (y_i, g_i)


def solve_b_matrix(vmap):
    """The b-matrix in closed form: b[i][j] = a_{j,i}, the transpose of A.

    The rows of B sum to zero, so adj(B) = 1·(x_0 Q_0, ..., x_n Q_n), and
    adj(B)·B = 0 reads column by column f_i Q_i = sum_j a_{j,i} x_j Q_j.
    The expansion residual and the zero pattern are checked here as the
    certificate of that identity.
    """
    n1 = vmap.n + 1
    b = [[vmap.flats[j].a[i] for j in range(n1)] for i in range(n1)]
    for i, row in enumerate(b):
        residual = vmap.flats[i].form2_poly() * vmap.Q[i]
        for j in range(n1):
            residual = residual - vmap.components[j].scale(row[j])
        if not residual.is_zero():
            raise ConstructionError(f"b-matrix residual for row {i} is nonzero")
        for j in range(n1):
            if (i == j) != (not row[j]):
                raise ConstructionError(
                    f"b[{i}][{j}] violates the zero pattern (got {row[j]})"
                )
    g = [Poly.from_linear(row) for row in b]
    return InverseData(b=b, g=g)


def build_matrix_C(vmap, inv):
    """Like B but in the y-variables, with -g_i replacing -f_i.

    The diagonal forms are rebuilt from the b rows (their defining data)
    rather than read from inv.g, so stale or tampered g forms cannot leak
    into the inverse.
    """
    n1 = vmap.n + 1
    rows = []
    for i in range(n1):
        row = []
        for k in range(n1):
            if k == i:
                row.append(-Poly.from_linear(inv.b[i]))
            else:
                row.append(Poly.var(k, n1, vmap.flats[i].a[k]))
        rows.append(row)
    return rows


def build_inverse_map(vmap, inv):
    """Complete the inverse: components det(C_i) and the dual flats.

    Each det(C_i) must have degree n and vanish identically on every dual
    flat (y_j, g_j) with j != i.
    """
    ctx = vmap.ctx
    n1 = vmap.n + 1
    c = build_matrix_C(vmap, inv)
    comps = []
    for i in range(n1):
        d = la.det_poly_matrix(minor_matrix(c, i))
        if d.degree() != vmap.n:
            raise ConstructionError(f"det(C_{i}) has degree {d.degree()}")
        comps.append(d)
    duals = [Flat(i, tuple(inv.b[i])) for i in range(n1)]
    for f in duals:
        if not f.is_canonical():
            raise ConstructionError(f"dual flat {f.j} is not canonical")
    for i, d in enumerate(comps):
        for j in range(n1):
            if j != i and not vanishes_on_flat(d, duals[j], ctx):
                raise ConstructionError(
                    f"det(C_{i}) does not vanish on dual flat {j}"
                )
    inv.inverse_components = comps
    inv.dual_flats = duals
    return inv


def apply_map(components, p, ctx):
    """Evaluate the map at a point; error on the base locus."""
    vals = [c.evaluate(p.coords) for c in components]
    if not any(bool(v) for v in vals):
        raise BaseLocusError(f"point {p.format()} is in the base locus")
    return ProjPoint(vals, ctx)


def class_matrix(n):
    """Integer pullback matrix on the classes (H, flat_0, ..., flat_n).

    First row (n, n-1, ..., n-1), first column (n, -1, ..., -1), and below
    the corner the block with zero diagonal and -1 elsewhere.  The matrix
    acts on the n+2 listed classes and squares to the identity, which is
    asserted here.
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
    if la.mat_mul(m, m) != la.identity(size):
        raise AssertionError("class matrix is not an involution")
    return m
