"""Substitution oracles shared by the tests.

Restricting a polynomial to the span of points by `Poly.substitute` gives
the zero polynomial exactly when the polynomial vanishes on the span.  The
package proves such vanishing otherwise (`projgeo.vanishing_on_line` by
point values, `maps.vanishes_on_flat` by elimination); these are the
independent oracles they are tested against.
"""

from veneroni.mpoly import Poly


def restrict_to_span(p, pts):
    """The polynomial with x_i -> sum_m pts[m][i] * s_m, one parameter per
    point: zero exactly when p vanishes on the whole span."""
    images = [Poly.from_linear([pt[i] for pt in pts]) for i in range(len(pts[0]))]
    return p.substitute(images)


def line_restrict(p, line):
    """The binary form in (s, t): the polynomial restricted to the line."""
    return restrict_to_span(p, [line.base, line.dir])
