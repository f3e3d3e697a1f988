"""Substitution oracles shared by the tests.

Restricting a polynomial to the span of points by `Poly.substitute` gives
the zero polynomial exactly when the polynomial vanishes on the span.  The
package proves such vanishing otherwise (`projgeo.vanishing_on_line` by
point values, `maps.vanishes_on_flat` by elimination); these are the
independent oracles they are tested against.  The entries of
C(v) − B·diag(Q) are likewise expanded here by substitution, where
`checks.verify_composition` reads them from a report's proof record, and
the matrix C of the classical inverse, which the package never builds, is
built here.
"""

from veneroni import maps
from veneroni.mpoly import Poly


def restrict_to_span(p, pts):
    """The polynomial with x_i -> sum_m pts[m][i] * s_m, one parameter per
    point: zero exactly when p vanishes on the whole span."""
    images = [Poly.from_linear([pt[i] for pt in pts]) for i in range(len(pts[0]))]
    return p.substitute(images)


def line_restrict(p, line):
    """The binary form in (s, t): the polynomial restricted to the line."""
    return restrict_to_span(p, [line.base, line.dir])


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
