#!/usr/bin/env python3
"""The n = 3 case: exactly two lines meet four general lines in P^3.

Parametrizing the first line and intersecting the cones over the second
and third lines produces a moving line that always meets the first three:
it joins a point of the first line to the point of the second line on the
third line's cone.  Asking it to also meet the fourth cuts out a binary
form of degree 2 in the parameter.  Its two roots are the two
transversals, each printed through its points on the first and second
lines.  Over the rationals the roots are often conjugate; over F_p
(p = 2^61 - 1) about half the seeds split and the lines can be printed
explicitly.
"""

import sys

from veneroni import checks
from veneroni.projgeo import random_general_flats
from veneroni.scalar import FieldCtx

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2
p = 2305843009213693951

for ctx, label in ((FieldCtx.rationals(), "QQ"), (FieldCtx.prime(p), f"F_{p}")):
    inst = random_general_flats(3, seed, ctx)
    m, failure, lines = checks.transversal_lines_n3(inst.flats, ctx)
    print(f"over {label}:")
    print(f"  meeting form  m(s,t) = {m.text(['s', 't'])}")
    print(f"  degree {m.degree()}, discriminant nonzero: {failure is None}"
          " -> 2 transversals")
    if lines:
        for k, line in enumerate(lines):
            print(f"  transversal {k + 1}: through {line.base.format()}")
            print(f"                and     {line.dir.format()}")
    else:
        print("  the two roots are conjugate over this field;"
              " no line has coordinates here")
    print()

print("either way, both transversals lie inside every Q_i: each meets the")
print("four pairwise skew lines at four distinct points, three of them on the")
print("quadric Q_i, which is exactly what the transversal-sample check counts.")
