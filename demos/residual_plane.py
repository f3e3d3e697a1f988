#!/usr/bin/env python3
"""The n = 4 case: points of Q_0 ∩ Q_1 that no five-flat transversal hits.

Every transversal to all five flats lies inside every Q_i, but the
converse fails in P^4: the plane spanned by the three pairwise
intersection points of flats 2, 3, 4 sits inside Q_0 ∩ Q_1, yet through
its general point q the best one can do is a line meeting four of the
five flats (one through flat 0, another through flat 1).  The common
intersection of all the Q_i is therefore strictly larger than the union
of transversals.  Pairwise intersection points also witness multiplicity:
each is at least a double point of every other Q_k.
"""

import sys

from veneroni import checks, maps
from veneroni.projgeo import flat_meet, random_general_flats, transversal_through
from veneroni.scalar import FieldCtx

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
QQ = FieldCtx.rationals()

inst = random_general_flats(4, seed, QQ)
q0, q1 = (maps.compute_Q(inst.flats, i, QQ) for i in (0, 1))


def meet(i, j):
    return flat_meet(inst.flats[i], inst.flats[j], QQ)


res = checks.residual_component_example(inst.flats, [q0, q1], meet, QQ, seed)
assert res.status == "pass", res.witness
w = res.witness

print(f"seed {seed}: plane through the pairwise intersections of flats 2, 3, 4")
print(f"  general point of that plane: q = {w['q']}")
print("  q lies on Q_0 and on Q_1")
print("  a line through q and the plane's meeting point with flat 0")
print("    meets flats 0, 2, 3, 4 (four of five);")
print("  a line through q and the plane's meeting point with flat 1")
print("    meets flats 1, 2, 3, 4 (four of five);")
print("  but no line through q meets all five flats.")

print("\nmultiplicity at a pairwise intersection point:")
q23 = meet(2, 3)[0]
value, *partials = (f.evaluate(q23.coords) for f in (q0, *(q0.partial(v) for v in range(5))))
print(f"  at the point {q23.format()} of flat_2 ∩ flat_3:")
print(f"  Q_0 = {value} and all five partials of Q_0 are"
      f" {'zero' if not any(partials) else 'NOT all zero'}")

print("\nsanity: through a general point there is still a unique line")
print("meeting any three of the flats, e.g. flats 0, 1, 2:")
from veneroni.projgeo import ProjPoint

gen = ProjPoint([QQ.from_int(k + 1) for k in range(5)], QQ)
three = transversal_through(gen, [inst.flats[k] for k in (0, 1, 2)], QQ)
print(f"  kind: {three.kind}")
