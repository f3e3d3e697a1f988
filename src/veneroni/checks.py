"""Verification suite: re-derive every identity the construction relies on.

The constructors in `maps` test nothing: for canonical flats their
invariants are theorems, proved in their docstrings.  A map file, though,
is untrusted data, so each check here re-derives its claim from the
instance data it is handed and returns a CheckResult with witness data.
Where a check meets a statement that is a theorem about data it has just
recomputed (det(B_i) = x_i·det(M_i) and the degree, vanishing and vertex
values of det(M_i) in `determinantal` and `composition`, and so of the
components x_i·det(M_i) in `basis-property` and `base-locus`, the
expansion f_i·Q_i = sum_j b_{i,j}·v_j once b = A^T in `b-matrix` and
`composition`, the meeting of a computed transversal with its flats, the
algebra of the n = 3 family, the multiplicity of each det(M_k) along the
other flats' pairwise intersections), it cites the proof instead of
testing it: det(B_i) is never expanded (the values of each det(M_i) on
a lattice prove the stored Q_i equal to it, and x_i·Q_i is Q_i with its
exponents shifted), the inverse is proved the same way (the Q'_i read
off the stored inverse components, on the dual flats' lattice), no
leave-one-out system is
eliminated (the lemma of `check_dimension`), no degree-n system is
eliminated once its restriction bound is n+1 (`ProofRecord.dimension`),
no Q_k is evaluated at a pair point (the lemma of
`check_multiplicity`), and no point is mapped there and back: the
round-trip follows from the composition identity (`verify_roundtrip_sample`).
A transversal lies inside Q_k, of degree n-1, when it meets Q_k at n
points counted with multiplicity, which the flats it meets provide
(`_pair_failure`, `_family_failure`); no Q_k is restricted to a line.
The n = 3 family is built in closed form, with no random draw, and its
count needs the four flats pairwise disjoint.  A fact that several
checks read is proved once per report, in a `ProofRecord`.  run_suite
assembles the fixed 13-check report used by the CLI.
"""

import math
import time
from dataclasses import dataclass, field, replace
from itertools import combinations

from . import exactla as la
from . import maps
from .lattice import det_m_failure, grid
from .mpoly import Poly
from .projgeo import (
    LineParam,
    ProjPoint,
    cone_hyperplane,
    flat_meet,
    flats_bound,
    genericity_check,
    meeting_param,
    parametrize_flat,
    transversal_through,
)
from .scalar import seeded_rng

CHECK_ORDER = (
    "genericity",
    "determinantal",
    "linear-system-dimension",
    "basis-property",
    "b-matrix",
    "composition",
    "round-trip",
    "base-locus",
    "transversal-sample",
    "multiplicity",
    "class-matrix",
    "dual-dimension",
    "demos",
)


@dataclass
class CheckResult:
    """Outcome of one named check: pass, fail, or skip (with a reason)."""

    name: str
    status: str
    witness: dict = field(default_factory=dict)
    ms: float | None = None

    @property
    def ok(self):
        return self.status != "fail"

    def to_dict(self):
        return {"name": self.name, "status": self.status, "witness": self.witness, "ms": self.ms}


@dataclass
class Report:
    """Deterministic result bundle for one instance: the same map and seed
    give the same report, written as one line of JSON (`python -m
    json.tool` lays it out to diff two)."""

    instance: dict
    checks: list
    summary: str = ""

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def finalize(self):
        npass = sum(c.status == "pass" for c in self.checks)
        nfail = sum(c.status == "fail" for c in self.checks)
        nskip = sum(c.status == "skip" for c in self.checks)
        self.summary = f"{npass} passed, {nfail} failed, {nskip} skipped"
        return self

    def to_dict(self):
        checks = [c.to_dict() for c in self.checks]
        return {"instance": self.instance, "checks": checks, "summary": self.summary}


def _passed(name, witness=None):
    return CheckResult(name, "pass", witness or {})


def _failed(name, witness=None):
    return CheckResult(name, "fail", witness or {})


def _skipped(name, reason):
    return CheckResult(name, "skip", {"reason": reason})


# ---- small shared samplers and field helpers ---------------------------


def _span_point(combo, pts, ctx):
    """The point sum_m combo[m] * pts[m] of the span of the given points."""
    return ProjPoint(
        [
            sum((c * s[i] for c, s in zip(combo, pts)), ctx.zero)
            for i in range(len(pts[0]))
        ],
        ctx,
    )


def _point_on_flat(flat, ctx, rng):
    span = parametrize_flat(flat, ctx)
    return _span_point([ctx.random_nonzero(rng) for _ in span], span, ctx)


def _field_sqrt(ctx, a):
    """A square root of a in the field, or None if a is not a square."""
    if not a:
        return ctx.zero
    if ctx.kind == "fp":
        return a.sqrt()
    if a < ctx.zero:
        return None
    num, den = a.numerator, a.denominator
    rn, rd = math.isqrt(int(num)), math.isqrt(int(den))
    if rn * rn == num and rd * rd == den:
        return ctx.from_int(rn) / ctx.from_int(rd)
    return None


# ---- binary forms in two parameters ------------------------------------


def _binary_abc(m, ctx):
    """The coefficients (a, b, c) of a s^2 + b s t + c t^2."""
    return tuple(m.terms.get(e, ctx.zero) for e in ((2, 0), (1, 1), (0, 2)))


def _binary_disc(m, ctx):
    """Discriminant b^2 - 4ac of a degree-2 binary form."""
    a, b, c = _binary_abc(m, ctx)
    return b * b - ctx.from_int(4) * a * c


def _meeting_form_failure(m, ctx):
    """Why the n = 3 meeting form m counts no two distinct transversals, a
    degree other than 2 or a double root: the witness, or None."""
    if m.is_zero() or m.degree() != 2:
        return {"reason": f"meeting form degree {m.degree()}"}
    if not _binary_disc(m, ctx):
        return {"reason": "meeting form has a double root"}
    return None


# ---- the one-parameter transversal family in P^3 -----------------------


def _n3_family(flats, ctx):
    """The transversal family along flat 0 for four flats in P^3.

    Points of flat 0 are parametrized as p(s,t); the transversal through
    p(s,t) to flats 1 and 2 is cut out by their two cone hyperplanes,
    whose coefficient rows are linear in (s,t).  Returns the meeting
    condition with flat 3 (a binary form of degree 2), the parametrized
    base point p, and a second parametrized point w spanning the moving
    line: the point h(q2)·q1 − h(q1)·q2 of flat 1 on flat 2's cone row h,
    with q1, q2 spanning flat 1, so w is linear in (s,t) too.

    Both cone rows annihilate p and w identically, so neither is tested.
    The row of flat j is its `cone_hyperplane` f1(p)·f2 − f2(p)·f1 at the
    point p(s,t), with (f1, f2) = (x_j, f_j); its product with p is
    f1(p)f2(p) − f2(p)f1(p) = 0.  Flat 1's row vanishes on all of flat 1,
    which holds w, and h·w = h(q2)h(q1) − h(q1)h(q2) = 0.  Both identities
    hold in any commutative ring, here the binary forms in (s,t).  That p
    and w span the transversal at a root of m when the flats are disjoint
    is proved in `_family_failure`.
    """
    n1 = 4
    span = parametrize_flat(flats[0], ctx)
    # p(s,t) coordinates as binary forms
    p = [
        Poly(2, {(1, 0): span[0][i], (0, 1): span[1][i]})
        for i in range(n1)
    ]
    cone_rows = [cone_hyperplane(p, flats[j]) for j in (1, 2)]
    # meeting condition with flat 3: the four hyperplanes (two moving cone
    # rows, two fixed rows of flat 3) share a point iff this det vanishes
    rows3 = [[Poly.const(c, 2) for c in row] for row in flats[3].form_rows(ctx)]
    m = la.det_poly_matrix(cone_rows + rows3)
    q1, q2 = parametrize_flat(flats[1], ctx)
    hq1, hq2 = (sum(map(Poly.scale, cone_rows[1], q), Poly.zero(2)) for q in (q1, q2))
    w = [hq2.scale(a) - hq1.scale(b) for a, b in zip(q1, q2)]
    return m, p, w


def _binary_roots(m, ctx):
    """Rational/field roots (s:t) of a degree-2 binary form, if they split."""
    a, b, c = _binary_abc(m, ctx)
    r = _field_sqrt(ctx, _binary_disc(m, ctx))
    if r is None:
        return None
    two = ctx.from_int(2)
    if a:
        return [(-b + r, two * a), (-b - r, two * a)]
    # a == 0: the form is t*(b*s + c*t) with b != 0 when the disc is nonzero
    return [(ctx.one, ctx.zero), (-c, b)]


def transversal_lines_n3(flats, ctx):
    """The meeting form m of four flats in P^3, its `_meeting_form_failure`
    (None when it counts two distinct transversals), and then the explicit
    transversal lines, when m splits over the field.  The lines are those
    of `_family_lines`, which needs flats 0, 1, 2 pairwise disjoint, as the
    genericity check certifies."""
    m, p, w = _n3_family(flats, ctx)
    failure = _meeting_form_failure(m, ctx)
    return m, failure, [] if failure is not None else _family_lines(ctx, m, p, w)


def _family_lines(ctx, m, p, w):
    """The lines of the family (m, p, w) at the roots of m, if it splits:
    each through its point of flat 0 and its point of flat 1.

    No line is tested.  For flats 0, 1, 2 pairwise disjoint the line
    through p and w at a root of m meets all four flats (`_family_failure`).
    """
    roots = _binary_roots(m, ctx)
    if roots is None:
        return []
    lines = []
    for root in roots:
        base, direc = ([c.evaluate(root) for c in forms] for forms in (p, w))
        lines.append(LineParam(ProjPoint(base, ctx), ProjPoint(direc, ctx)))
    return lines


# ---- the 13 suite checks ------------------------------------------------


def check_genericity(inst, proofs):
    """`projgeo.genericity_check`, reading the record's meets and bounds."""
    rep = genericity_check(inst.flats, inst.ctx, record=proofs)
    if rep.ok:
        conditions = ["canonical", "intersections", "transversals", "dimension"]
        return _passed("genericity", {"conditions": conditions})
    return _failed("genericity", {"failures": rep.failures})


def check_determinantal(inst, vmap, proofs):
    """Prove every stored Q_i equal to det(M_i) by its values on a lattice
    and tie it to the stored component.

    Each stored Q_i must be a form of degree n-1 equal to det(M_i) at every
    point of a lattice, which proves it (`ProofRecord.lattice`), and the
    record's tie of the stored component to x_i·Q_i must be zero.
    det(B_i) = x_i·det(M_i), the vanishing of det(M_i) on the flats j != i
    and its nonzero vertex values are theorems (`maps.compute_Q`,
    `maps.build_forward_map`), so they are cited, not replayed.
    """
    failure = proofs.lattice()
    if failure is not None:
        return _failed("determinantal", failure)
    i = proofs.ties()
    if i is not None:
        return _failed("determinantal", {"i": i, "reason": "stored component differs"})
    n = inst.n
    return _passed(
        "determinantal",
        {
            "degree": n - 1,
            "terms": [len(q.terms) for q in vmap.Q],
            "points": math.comb(2 * n - 1, n),
            "proof": "lattice-values",
        },
    )


def check_dimension(inst, proofs):
    """The degree-n system S has dimension n+1, the record's; omitting any
    flat i leaves exactly one hypersurface of degree n-1, by this lemma.
    The record reads n+1 off a `projgeo.restriction_bound` of n+1, which
    this lemma's lower bound makes exact, and eliminates S only when the
    bound is larger or missing.

    Lemma.  For n+1 canonical flats of P^n let T_i be the degree-(n-1)
    system through the flats j != i.  x_i·T_i lies in S, since x_i lies in
    the ideal (x_i, f_i) of flat i, and dim x_i·T_i = dim T_i.  The
    products x_j·det(M_j), j != i, lie in S (`maps.build_forward_map`).
    At the vertices e_k, k != i, which lie on x_i = 0, they take the
    values δ_jk·det(M_j)(e_j), and det(M_j)(e_j) != 0 (`maps.compute_Q`);
    so no nonzero combination of them vanishes on x_i = 0, while all of
    x_i·T_i does, and dim S >= n + dim T_i.  If dim S = n+1, then
    dim T_i <= 1, and det(M_i) is a nonzero member of T_i, so dim T_i = 1.
    The same vertex values make the n+1 products x_i·det(M_i) independent
    members of S: dim S >= n+1 for every canonical instance, in any field,
    whatever the stored map holds.  A report's flats are canonical:
    `FlatsInstance.from_dict` and `maps.build_matrix_B` refuse others.
    """
    n = inst.n
    dim = proofs.dimension()
    if dim != n + 1:
        return _failed("linear-system-dimension", {"degree": n, "dim": dim})
    return _passed("linear-system-dimension", {"dim": dim, "omit_dims": [1] * (n + 1)})


def check_basis(inst, vmap, proofs):
    """The n+1 components are a basis of the degree-n system: they are the
    construction's x_i·det(M_i) (`_construction_failure`), and the system
    has the record's dimension n+1.  The rest is cited: each x_i·det(M_i)
    has degree n and vanishes on all n+1 flats (`maps.build_forward_map`),
    and only x_k·det(M_k) is nonzero at the vertex e_k (`maps.compute_Q`),
    so the n+1 of them have rank n+1 (the lemma of `check_dimension`).
    """
    failure = _construction_failure(proofs)
    if failure is not None:
        return _failed("basis-property", failure)
    n1 = inst.n + 1
    dim = proofs.dimension()
    if dim != n1:
        return _failed("basis-property", {"rank": n1, "dim": dim})
    return _passed("basis-property", {"rank": n1, "dim": dim})


def check_b_matrix(proofs):
    """Row i of b expands f_i·Q_i in the stored components.

    Once the components are the construction's and b = A^T
    (`_expansion_failure`), f_i·Q_i = sum_j b_{i,j} v_j is the theorem of
    `maps.solve_b_matrix`, and the zero pattern of b, b[i][j] = 0 iff
    i = j, is that of canonical flats transposed.  The form g_i is
    sum_j b_{i,j} y_j by definition, so g_i(v) = f_i·Q_i as polynomials:
    nothing is expanded and no point is sampled.
    """
    failure = _expansion_failure(proofs)
    if failure is not None:
        return _failed("b-matrix", failure)
    return _passed("b-matrix", {"pattern": "zero diagonal", "residual": "0"})


def verify_composition(vmap, proofs):
    """Both composites are coordinatewise multiplication by a product,
    w∘v = x·∏Q_i and v∘w = y·∏Q'_i, proved from the determinantal structure.

    Each stored w_i must be det(C_i), C the matrix B in y with -g_i on its
    diagonal, which is y_i·det(M'_i) of the dual flats, the rows of b, by
    the minor lemma of `maps.build_inverse_map` once b = A^T; the dual
    record proves it as the record proves the forward Q_i
    (`_composition_failure`).  Once the components are the construction's
    and b = A^T (`_expansion_failure`), C(v) = B·diag(Q_0..Q_n): off the
    diagonal a_{m,k}·v_k = a_{m,k}·x_k·Q_k, and on it g_m(v) = f_m·Q_m,
    the expansion of `maps.solve_b_matrix`.
    det(B_i) = x_i·det(M_i) = x_i·Q_i by the theorem of `maps.compute_Q`.
    Substitution is a ring homomorphism and determinants are
    multiplicative, so det(C_i)(v) = det(B_i) prod_{k != i} Q_k =
    x_i prod Q.  v∘w is the same theorem for the dual instance, whose
    b-matrix is A; it is cited, not expanded.  All of it holds over any
    commutative ring.  Nothing is sampled and nothing is expanded.
    """
    failure = _composition_failure(proofs)
    if failure is not None:
        return _failed("composition", failure)
    n1 = vmap.n + 1
    wit = {"mode": "factorization", "entries": n1 * n1, "minors": n1}
    return _passed("composition", dict(wit, inverse="v∘w = y·∏Q'_i by the dual instance"))


def verify_roundtrip_sample(proofs):
    """Every point p off the Q_i returns from its image, cited from
    `composition`: no point is drawn.  w∘v = x·∏Q_i as polynomials
    (`verify_composition`), so w(v(p)) = ∏Q_i(p)·p, which is p in P^n.
    The check reads the facts of that proof (`_composition_failure`), so
    it fails exactly when `composition` does."""
    failure = _composition_failure(proofs)
    if failure is not None:
        return _failed("round-trip", failure)
    identity = "w(v(p)) = ∏Q_i(p)·p, so p returns off the Q_i"
    return _passed("round-trip", {"identity": identity, "proof": "cited from composition"})


def _composition_failure(proofs):
    """Why the composition identity is not proved, the first witness, or
    None: no dual record (a b off the canonical pattern), then the dual
    record's `lattice` and `ties`, which make each stored w_i y_i·Q'_i with
    Q'_i = det(M'_i), a failure naming its i and the direction "inverse",
    then `_expansion_failure`."""
    dual = proofs.dual()
    if dual is None:
        return {"reason": _NO_DUAL}
    failure = dual.lattice()
    i = dual.ties() if failure is None else failure["i"]
    if i is not None:
        reason = "stored inverse component differs from det(C_i)"
        return {"i": i, "reason": reason, "direction": "inverse"}
    return _expansion_failure(proofs)


def verify_base_locus(vmap, proofs):
    """Components vanish on every flat; certified transversals land inside
    every Q_i; a general point stays outside the base locus.  The first and
    the last are theorems once the stored components are the construction's
    x_i·det(M_i) (`_construction_failure`): each vanishes on all n+1 flats
    (`maps.build_forward_map`), and x_0·det(M_0) is nonzero at the vertex
    e_0 (`maps.compute_Q`).  `_pair_failure` (n >= 4) and `_family_failure`
    (n = 3) count the zeros of the transversals.
    """
    failure = _construction_failure(proofs)
    if failure is not None:
        return _failed("base-locus", failure)
    sampled = None
    if vmap.n >= 4:
        failure, sampled = proofs.pair_failure(0, 1), "pair-point line inside every Q_i"
    elif vmap.n == 3:
        failure, sampled = proofs.family_failure(), "one-parameter family inside every Q_i"
    if failure is not None:
        return _failed("base-locus", failure)
    return _passed(
        "base-locus",
        {"vanishing": "all components on all flats", "transversal": sampled},
    )


def _pair_point(proofs, i, j):
    """A point of flat_i ∩ flat_j, the record's `meet`: its one basis point,
    or a point of its span drawn from the "pair-point" rng scope.

    The meet is never empty at n >= 4: four linear forms in n+1 >= 5
    variables have a common zero.
    """
    pts = proofs.meet(i, j)
    if len(pts) == 1:
        return pts[0]
    ctx = proofs.vmap.ctx
    rng = seeded_rng(proofs.seed, "pair-point", i, j)
    return _span_point([ctx.random_nonzero(rng) for _ in pts], pts, ctx)


def _hypotheses_failure(proofs):
    """Why the zero counts of `_pair_failure` and `_family_failure` and the
    lemma of `check_multiplicity` cannot be cited: a witness, or None.

    (H1) Each stored Q_k is det(M_k), proved by the record's `lattice`
    fact, so it lies in the ideal I_m = (x_m, f_m) of every flat m != k
    (`maps.build_forward_map`) and vanishes on flat m.  (H2) Each pair
    meet has n-3 basis points, dimension n-4: x_a, f_a, x_b, f_b are
    independent, so at n = 3 the four lines are pairwise disjoint, and at
    n >= 4 I_a ∩ I_b = I_a·I_b and every Q_k, k not in {a, b}, is double
    along flat_a ∩ flat_b (`check_multiplicity`).
    """
    failure = _stored_q_failure(proofs)
    vmap = proofs.vmap
    if failure is None:
        for i, j in combinations(range(vmap.n + 1), 2):
            dim = len(proofs.meet(i, j)) - 1
            if dim != vmap.n - 4:  # at n = 3: two of the four lines meet
                reason = "the forms of the two flats are dependent"
                return {"pair": [i, j], "dim": dim, "reason": reason}
    return failure


def _stored_q_failure(proofs):
    """(H1): the first stored Q_k other than det(M_k), by the record's
    `lattice` fact, or None."""
    failure = proofs.lattice()
    return None if failure is None else {"k": failure["i"], "reason": "stored Q differs"}


def _construction_failure(proofs):
    """Why the stored components are not the construction's x_i·det(M_i):
    (H1), each stored Q_k det(M_k), then the record's ties, each v_i equal
    to x_i·Q_i; the first witness, or None."""
    failure = _stored_q_failure(proofs)
    if failure is not None:
        return failure
    i = proofs.ties()
    return None if i is None else {"i": i, "reason": "stored component differs"}


def _expansion_failure(proofs):
    """Why row i of b is not the expansion of f_i·Q_i in the stored
    components that `maps.solve_b_matrix` proves: the witness of
    `_construction_failure`, then the first (i, j) with b[i][j] other than
    a_{j,i}, the entry of A^T; or None."""
    failure = _construction_failure(proofs)
    if failure is not None:
        return failure
    flats = proofs.inst.flats
    for i, row in enumerate(proofs.inv.b):
        for j, entry in enumerate(row):
            if entry != flats[j].a[i]:
                return {"i": i, "j": j, "reason": "b differs from Aᵀ"}
    return None


def _pair_failure(proofs, i, j):
    """Why the line through a point q of flat_i ∩ flat_j that meets every
    flat does not lie inside every Q_k: a witness, or None when it does.

    The line is the transversal through q to the other flats, or, when
    they leave a family, the line through q and the first basis point of
    the family other than q.  Any line through q inside the cone rows'
    nullspace does: it meets flats i and j at q, and every other flat by
    the cone hyperplane proof of `transversal_through`; a flat it misses
    all the same fails closed.  Q_k on the line is a binary form of
    degree n-1, zero or with at most n-1 zeros counted with multiplicity.
    Under (H1) and (H2) of `_hypotheses_failure` it vanishes where the
    line meets a flat m != k, doubly where it meets two of them, and
    everywhere when such a flat holds the line.  So n zeros put the line
    inside Q_k, and no Q_k is restricted to the line.
    """
    failure = proofs.hypotheses()
    if failure is not None:
        return failure
    vmap = proofs.vmap
    ctx = vmap.ctx
    q = _pair_point(proofs, i, j)
    rest = [f for m, f in enumerate(vmap.flats) if m not in (i, j)]
    res = transversal_through(q, rest, ctx)
    if res.kind == "none":
        return {"pair": [i, j], "reason": "no line through the pair point meets every flat"}
    line = res.line or LineParam(q, next(pt for pt in res.basis if pt != q))
    through, holding = {}, set()  # P^1 point -> flats through it; flats holding the line
    for m, f in enumerate(vmap.flats):
        param = meeting_param(line, f)
        if param is None:
            return {"pair": [i, j], "reason": f"line misses flat {m}"}
        if param == "contained":
            holding.add(m)
        else:
            through.setdefault(ProjPoint(param, ctx), set()).add(m)
    for k in range(vmap.n + 1):
        zeros = sum(min(2, len(flats - {k})) for flats in through.values())
        if not holding - {k} and zeros < vmap.n:
            return {"pair": [i, j], "reason": f"too few zeros of Q_{k}"}
    return None


def _family_failure(proofs):
    """Why both transversals of four flats in P^3 do not lie inside every
    Q_k: the first witness, or None.

    The meeting form m of the family (`_n3_family`) must have degree 2 and
    distinct roots (`_meeting_form_failure`), and by (H2) of
    `_hypotheses_failure` the four flats are pairwise disjoint.  Then the
    family spans the transversals: p, a point of flat 0, is off flat 2, so
    its cone row h through flat 2 is nonzero; w = 0 would put flat 1
    inside the plane h = 0 with flat 2, and no plane holds two skew lines;
    and w != p, as w lies on flat 1.  The cone planes H1(p), H2(p) of flats
    1 and 2 are distinct by the same skew lines, so H1(p) ∩ H2(p) is the
    line pw.  At a root of m the two cone rows and the forms of flat 3
    share a null vector, a point of flat 3 on that line; the line meets
    flat 0 at p, flat 1 at w, and flat 2 by the cone proof of
    `transversal_through`.  A transversal meets the four flats at four
    distinct points, as no two flats meet, and no flat holds it, as that
    flat would meet the other three.  Q_k vanishes on the three flats other
    than k (H1), so it has three zeros on each transversal and degree 2,
    and it holds both lines, over the algebraic closure, with neither
    constructed.
    """
    failure = _meeting_form_failure(proofs.family()[0], proofs.vmap.ctx)
    return failure if failure is not None else proofs.hypotheses()


def check_transversal_sample(vmap, proofs):
    """Certified transversal lines lie inside every Q_i, each by a count of
    its zeros on the line: at n >= 4, the lines through points of every
    pair of flats (`_pair_failure`); at n = 3, both transversals at once
    (`_family_failure`), so the explicit lines are not tested.
    """
    n = vmap.n
    if n == 2:
        return _skipped(
            "transversal-sample", "three general points in the plane admit no transversal"
        )
    if n == 3:
        failure = proofs.family_failure()
        if failure is not None:
            return _failed("transversal-sample", failure)
        lines = _family_lines(vmap.ctx, *proofs.family())
        return _passed(
            "transversal-sample",
            {
                "mode": "family",
                "meeting_form_degree": 2,
                "transversal_count": 2,
                "explicit_lines": len(lines),
                "note": "both transversals inside every Q_i by a zero count",
            },
        )
    pairs = [list(pair) for pair in combinations(range(n + 1), 2)]
    for i, j in pairs:
        failure = proofs.pair_failure(i, j)
        if failure is not None:
            return _failed("transversal-sample", failure)
    return _passed(
        "transversal-sample", {"mode": "pair-point", "lines": len(pairs), "pairs": pairs}
    )


def check_multiplicity(vmap, proofs):
    """Every Q_k is double along the whole of flat_i ∩ flat_j, k not in
    {i, j}, by this lemma; a point of flat 2 where Q_0 has a nonzero
    gradient keeps the claim from being vacuous.

    Lemma.  Q_k = det(M_k) lies in I_i ∩ I_j, with I_j = (x_j, f_j) the
    ideal of flat j (`maps.build_forward_map`).  When x_i, f_i, x_j, f_j
    are linearly independent, exactly when flat_i ∩ flat_j has dimension
    n-4 (the record's `meet` has n-3 basis points), a change of
    coordinates makes them y_1..y_4, and I_i ∩ I_j = (y_1, y_2) ∩ (y_3, y_4)
    = I_i·I_j, inside (I_i + I_j)^2.  So Q_k and each of its partials lie in
    I_i + I_j and vanish on all of flat_i ∩ flat_j, over any field.  The
    stored Q_k must be det(M_k), and every pair meet must have
    dimension n-4: (H1) and (H2) of `_hypotheses_failure`.  No Q_k is
    evaluated at a pair point.
    """
    if vmap.n < 4:
        return _skipped("multiplicity", "pairwise intersections are empty below P^4")
    failure = proofs.hypotheses()
    if failure is not None:
        return _failed("multiplicity", failure)
    n1 = vmap.n + 1
    # control: at a general point of a single flat the gradient must not
    # vanish, so the double points are special to the pairwise intersections
    rng = seeded_rng(proofs.seed, "mult-control")
    p = _point_on_flat(vmap.flats[2], vmap.ctx, rng)
    gradient = [vmap.Q[0].partial(v) for v in range(n1)]
    if not any(g.evaluate(p.coords) for g in gradient):
        return _failed("multiplicity", {"reason": "control gradient vanished"})
    return _passed(
        "multiplicity",
        {"pairs": math.comb(n1, 2), "mode": "ideal product", "control": "nonzero gradient"},
    )


def check_class_matrix(n):
    """The pullback matrix on (hyperplane, flat classes) is an involution."""
    m = maps.class_matrix(n)
    size = n + 2
    if la.mat_mul(m, m) != la.identity(size):
        return _failed("class-matrix", {"reason": "class matrix is not an involution"})
    return _passed("class-matrix", {"size": size, "square": "identity"})


_NO_DUAL = "a row of b is off the canonical pattern: no dual flats"


def check_dual_dimension(vmap, proofs):
    """The degree-n system through the dual flats (y_i, g_i), the rows of
    b, has dimension exactly n+1: the dual record's dimension, from the
    restriction bound on the rows of b."""
    n1 = vmap.n + 1
    dual = proofs.dual()
    if dual is None:
        return _failed("dual-dimension", {"reason": _NO_DUAL})
    dim = dual.dimension()
    if dim != n1:
        return _failed("dual-dimension", {"dim": dim, "expected": n1})
    return _passed("dual-dimension", {"dim": dim, "expected": n1})


def residual_component_example(flats, qs, meet, ctx, seed=0):
    """The plane through the three pairwise intersection points of flats
    2, 3, 4 in P^4, read off `meet(i, j)`, a basis of flat_i ∩ flat_j: its
    general point q lies on Q_0 and Q_1 (given as qs), carries two lines
    transversal to four flats each, yet admits no transversal to all five.

    The anchor lines are not tested against their flats.  The line from q
    to the point p_i of the plane on flat i (i = 0, 1) meets flat i at p_i.
    It lies in the plane, and so does the line of flat k through the two
    intersection points on flat k (k = 2, 3, 4); two lines of a plane meet.
    """
    name = "demos"
    pts = [meet(i, j)[0] for i, j in ((2, 3), (2, 4), (3, 4))]
    if la.rank([list(p) for p in pts], ctx) != 3:
        return _failed(name, {"reason": "intersection points do not span a plane"})
    rng = seeded_rng(seed, "residual-plane")
    q = _span_point([ctx.random_nonzero(rng) for _ in pts], pts, ctx)
    anchors = []
    for idx in (0, 1):
        rows = [list(r) for r in zip(*(flats[idx].values(p) for p in pts))]
        ns = la.nullspace(rows, 3, ctx)
        if len(ns) != 1:
            return _failed(name, {"reason": f"plane meets flat {idx} badly"})
        anchors.append(_span_point(ns[0], pts, ctx))
    p0, p1 = anchors
    if la.rank([list(q), list(p0), list(p1)], ctx) != 3:
        return _failed(name, {"reason": "q, p0, p1 collinear"})
    if any(f.evaluate(q.coords) for f in qs):
        return _failed(name, {"reason": "q not on Q_0 and Q_1"})
    res = transversal_through(q, list(flats), ctx)
    if res.kind != "none":
        return _failed(name, {"reason": f"unexpected transversal: {res.kind}"})
    return _passed(
        name,
        {
            "example": "residual plane point",
            "q": q.format(),
            "on_Q0_Q1": True,
            "anchor_lines": 2,
            "five_flat_transversal": "none",
        },
    )


def check_demos(vmap, level, proofs):
    if level == "fast":
        return _skipped("demos", "level fast skips the n-specific demos")
    if vmap.n == 3:
        failure = _meeting_form_failure(proofs.family()[0], vmap.ctx)
        if failure is not None:
            return _failed("demos", failure)
        return _passed(
            "demos", {"example": "transversal count", "count": 2, "disc_nonzero": True}
        )
    if vmap.n == 4:
        return residual_component_example(
            vmap.flats, vmap.Q[:2], proofs.meet, vmap.ctx, proofs.seed
        )
    return _skipped("demos", f"no n-specific demo for n={vmap.n}")


# ---- assembly -----------------------------------------------------------


def build_all(inst):
    """Forward map, b-matrix, and completed inverse for an instance."""
    vmap = maps.build_forward_map(inst.flats, inst.ctx)
    inv = maps.build_inverse_map(vmap, maps.solve_b_matrix(vmap))
    return vmap, inv


class ProofRecord:
    """The facts that several checks of one report read, each proved once.

    `run_suite` makes one record per report from the report's instance, map,
    inverse data and seed.  The first check to read a fact proves it, and
    the record keeps it until the report is done, so a second report, even
    of the same instance, proves everything again.  A proof that raises
    keeps nothing: the crash recurs in every check that reads the fact.  In
    a report the map carries the instance's flats.  The record of the dual
    instance is itself a fact (`dual`), with facts of its own, and `parent`
    is the record it belongs to.  README lists which checks prove and read
    each fact.
    """

    def __init__(self, inst, vmap, inv, seed, parent=None):
        self.inst, self.vmap, self.inv, self.seed = inst, vmap, inv, seed
        self.parent = parent
        self._facts = {}

    def _fact(self, key, prove):
        if key not in self._facts:
            self._facts[key] = prove()
        return self._facts[key]

    def bound(self, name):
        """`projgeo.flats_bound` on the flats' matrix A ("A") or on Aᵀ
        ("Aᵀ"), read by genericity (e) and `dimension`.  The dual record's A
        is b, and it reads its parent's Aᵀ bound when b equals Aᵀ entry by
        entry."""
        def prove():
            parent, a = self.parent, [f.a for f in self.inst.flats]
            if parent and name == "A" and list(zip(*(f.a for f in parent.inst.flats))) == a:
                return parent.bound("Aᵀ")
            return flats_bound(self.inst.flats, name)

        return self._fact(("bound", name), prove)

    def dimension(self):
        """The degree-n dimension: n+1 when the restriction bound on A is
        n+1 (`bound`), since the lemma of `check_dimension` gives n+1 from
        below, and otherwise the eliminated dimension of
        `maps.linear_system_dimension`, so a failing check names it."""
        def prove():
            inst = self.inst
            if self.bound("A") == inst.n + 1:
                return inst.n + 1
            return maps.linear_system_dimension(inst.flats, inst.n, inst.ctx)

        return self._fact("dimension", prove)

    def lattice(self):
        """(H1): `lattice.det_m_failure` of the stored Q_i, the witness of
        the smallest i at which Q_i is not det(M_i), or None when the
        lattice proves every Q_i = det(M_i)."""
        inst, vmap = self.inst, self.vmap
        return self._fact(
            "lattice", lambda: det_m_failure(inst.flats, vmap.Q, inst.ctx.p, self.grid())
        )

    def grid(self):
        """`lattice.grid` of P^n, read by `lattice`: built once per report,
        as the dual record reads its parent's."""
        if self.parent is not None:
            return self.parent.grid()
        return self._fact("grid", lambda: grid(self.inst.n))

    def ties(self):
        """The first i whose stored component v_i is not x_i·Q_i, with Q_i
        the record map's own, or None: once the stored Q_i is det(M_i),
        None when every component is the construction's.  `maps.over_x`
        takes x_i off v_i and the terms are compared: no difference is
        formed.  The dual record's Q'_i are read off its components, so
        `dual` sets its ties in that pass."""
        def prove():
            vmap = self.vmap
            pairs = enumerate(zip(vmap.components, vmap.Q))
            return next((i for i, (v, q) in pairs if maps.over_x(v, i) != (q, True)), None)

        return self._fact("ties", prove)

    def dual(self):
        """The record of the dual instance, or None when a row of b is off
        the canonical pattern.  Its flats (y_i, g_i) are the rows of b and
        its components the stored inverse components w_i.  One pass over
        the w_i (`maps.over_x`) gives its map's Q'_i, the terms of w_i that hold
        y_i, each with one y_i taken off, and its `ties`, the first i whose
        w_i has a term without y_i: w_i = y_i·Q'_i once that is None.  Its
        `lattice` proves each Q'_i = det(M'_i) of the dual flats, so nothing
        is expanded.  It has no inverse data."""
        def prove():
            flats = maps.dual_flats(self.inv.b)
            if not all(f.is_canonical() for f in flats):
                return None
            ws = self.inv.inverse_components
            qs, whole = zip(*(maps.over_x(w, i) for i, w in enumerate(ws)))
            dual = maps.VeneroniMap(self.inst.n, self.inst.ctx, flats, list(qs), ws)
            record = ProofRecord(replace(self.inst, flats=flats), dual, None, self.seed, self)
            tie = next((i for i, ok in enumerate(whole) if not ok), None)
            record._fact("ties", lambda: tie)
            return record

        return self._fact("dual", prove)

    def hypotheses(self):
        """(H1) and (H2) of the zero counts: `_hypotheses_failure`."""
        return self._fact("hypotheses", lambda: _hypotheses_failure(self))

    def family(self):
        """The n = 3 transversal family (m, p, w) of `_n3_family`."""
        vmap = self.vmap
        return self._fact("family", lambda: _n3_family(vmap.flats, vmap.ctx))

    def family_failure(self):
        """The zero count of the family's transversals: `_family_failure`."""
        return self._fact("family-count", lambda: _family_failure(self))

    def meet(self, i, j):
        """A basis of flat_i ∩ flat_j, in the closed form of `projgeo.flat_meet`."""
        flats, ctx = self.inst.flats, self.inst.ctx
        return self._fact(("meet", i, j), lambda: flat_meet(flats[i], flats[j], ctx))

    def pair_failure(self, i, j):
        """The transversal through flat_i ∩ flat_j: `_pair_failure`."""
        return self._fact(("pair", i, j), lambda: _pair_failure(self, i, j))


def run_suite(
    inst,
    vmap=None,
    inv=None,
    *,
    level="full",
    seed=None,
    timings=False,
    version="0",
):
    """Run the 13 named checks in their fixed order and build the report."""
    if seed is None:
        seed = inst.seed
    n = inst.n
    instance_meta = {
        "n": n,
        "seed": inst.seed,
        "field": inst.ctx.describe(),
        "bound": inst.bound,
        "version": version,
    }
    report = Report(instance=instance_meta, checks=[])
    construction_error = None
    if vmap is None:
        try:
            vmap, inv = build_all(inst)
        except maps.ConstructionError as exc:
            construction_error = str(exc)

    def runner(name, fn):
        t0 = time.perf_counter() if timings else None
        try:
            res = fn()
        except Exception as exc:  # a crashed check is a failed check
            res = _failed(name, {"error": f"{type(exc).__name__}: {exc}"})
        res.name = name
        if timings:
            res.ms = round((time.perf_counter() - t0) * 1000.0, 3)
        report.checks.append(res)

    # shared facts live for this report only: the same instance verified
    # again proves them again
    proofs = ProofRecord(inst, vmap, inv, seed)
    runner("genericity", lambda: check_genericity(inst, proofs))
    if construction_error is not None:
        report.checks.append(
            _failed("determinantal", {"construction": construction_error})
        )
        for name in CHECK_ORDER[2:]:
            report.checks.append(_skipped(name, "construction failed"))
        return report.finalize()
    runner("determinantal", lambda: check_determinantal(inst, vmap, proofs))
    runner("linear-system-dimension", lambda: check_dimension(inst, proofs))
    runner("basis-property", lambda: check_basis(inst, vmap, proofs))
    runner("b-matrix", lambda: check_b_matrix(proofs))
    runner("composition", lambda: verify_composition(vmap, proofs))
    runner("round-trip", lambda: verify_roundtrip_sample(proofs))
    runner("base-locus", lambda: verify_base_locus(vmap, proofs))
    runner("transversal-sample", lambda: check_transversal_sample(vmap, proofs))
    runner("multiplicity", lambda: check_multiplicity(vmap, proofs))
    runner("class-matrix", lambda: check_class_matrix(n))
    runner("dual-dimension", lambda: check_dual_dimension(vmap, proofs))
    runner("demos", lambda: check_demos(vmap, level, proofs))
    return report.finalize()
