"""Projective points, codimension-2 flats, and transversal lines.

A flat is stored in canonical coordinates: its ideal is (x_j, f_j) where
f_j = sum_i a_{j,i} x_i with a_{j,j} = 0 and every other a_{j,i} nonzero.
Transversals through a point p are computed by intersecting the cone
hyperplanes <p, flat>: a line through p meets a flat exactly when it lies
inside that hyperplane (`transversal_through` proves this), so the lines
through p meeting every flat of a query sweep out the common nullspace of
the stacked cone forms.  Nullity 2 means a unique transversal, nullity
d+1 >= 3 a d-dimensional family, and nullity 1 no transversal at all.
`meeting_param` gives the point of a line on a flat, in the line's own
parameters.  `genericity_check` certifies an instance; of its conditions,
(c), a unique transversal through a general point for every n-1 flats,
is a lemma of the canonical pattern, proved by the cone rows at a
vertex, so no point is drawn and no matrix is ranked.
"""

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import comb
from operator import add, mul

from . import exactla as la
from .mpoly import Poly
from .scalar import FieldCtx, seeded_rng

__all__ = [
    "ProjPoint",
    "Flat",
    "LineParam",
    "TransversalResult",
    "FlatsInstance",
    "NoGenericInstance",
    "cone_hyperplane",
    "transversal_through",
    "flat_meet",
    "parametrize_flat",
    "meeting_param",
    "random_general_flats",
    "genericity_check",
    "restriction_bound",
    "flats_bound",
]


class ProjPoint:
    """Point of P^n, normalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords, ctx):
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = ctx.inv(lead)
        self.coords = tuple(c * inv for c in coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        if isinstance(other, ProjPoint):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"({' : '.join(str(c) for c in self.coords)})"

    @classmethod
    def parse(cls, text, ctx):
        """Parse a comma-separated coordinate string like "1,2/3,0,5,1"."""
        parts = text.split(",")
        if len(parts) < 2:
            raise ValueError(f"point needs at least 2 coordinates: {text!r}")
        return cls([ctx.parse(s) for s in parts], ctx)

    def format(self):
        return ",".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class Flat:
    """Codimension-2 flat of P^n with ideal (x_j, f_j), in canonical form."""

    j: int
    a: tuple  # coefficients of f_j; a[j] = 0, a[i] != 0 otherwise

    @property
    def nvars(self):
        return len(self.a)

    def form_rows(self, ctx):
        """The two defining forms as coefficient vectors (x_j row first)."""
        e = [ctx.zero] * self.nvars
        e[self.j] = ctx.one
        return [e, list(self.a)]

    def form2_poly(self):
        return Poly.from_linear(self.a)

    def values(self, p):
        """(x_j(p), f_j(p)) at a point p, whose coordinates may be scalars
        or polynomials: f_j(p) is one dot product."""
        return p[self.j], reduce(add, map(mul, self.a, p))

    def reduction(self, ctx):
        """(k, L): on the flat x_j = 0 and x_k = L, a linear form, given by
        its coefficients, in the variables other than x_j and x_k.

        k is the first index other than j with a_{j,k} != 0, and
        L = -sum_{i != j,k} (a_{j,i}/a_{j,k}) x_i.  The map x_j -> 0,
        x_k -> L is the isomorphism k[x]/(x_j, f_j) = k[x_i : i != j,k];
        the coefficient a_{j,j} plays no part (f_j matters only modulo
        x_j).  Raises ValueError when every a_{j,i} with i != j is zero,
        since (x_j, f_j) is then no codimension-2 flat.
        """
        j, a = self.j, self.a
        k = next((i for i, c in enumerate(a) if i != j and c), None)
        if k is None:
            raise ValueError(f"flat {j} is degenerate: f_{j} has no term off x_{j}")
        scale = -ctx.inv(a[k])
        return k, [ctx.zero if i in (j, k) else c * scale for i, c in enumerate(a)]

    def is_canonical(self):
        return not self.a[self.j] and all(
            bool(c) for i, c in enumerate(self.a) if i != self.j
        )


@dataclass(frozen=True)
class LineParam:
    """Line spanned by two independent points, base and dir."""

    base: ProjPoint
    dir: ProjPoint


@dataclass
class TransversalResult:
    """Solution of the cone-hyperplane system for one query."""

    kind: str  # "unique" | "family" | "none"
    line: LineParam | None = None
    dim: int | None = None  # projective dimension d_p of the family span
    basis: list = field(default_factory=list)


def cone_hyperplane(p, flat):
    """Coefficients of the hyperplane spanned by p and the flat.

    The form is x_j(p)·f_j − f_j(p)·x_j: x_j(p)·a with f_j(p) taken off
    entry j.  It vanishes at p and on the whole flat.  Returns None
    (vacuous, no constraint) when p lies on the flat.
    """
    xj, fj = flat.values(p)
    if not xj and not fj:
        return None
    row = [xj * c for c in flat.a]
    row[flat.j] = row[flat.j] - fj
    return row


def meeting_param(line, flat):
    """Where the line meets the flat: (s, t), "contained", or None (misses).

    The line meets the flat iff the 2x2 matrix of the flat's forms at the
    two spanning points is singular; rank 0 means the line lies inside.
    """
    m = list(zip(flat.values(line.base), flat.values(line.dir)))
    if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
        return None
    for row in m:
        if row[0] or row[1]:
            return (row[1], -row[0])
    return "contained"


def transversal_through(p, flats, ctx):
    """All lines through p meeting every flat in the query.

    Stacks the non-vacuous cone forms and reads the answer off the nullity
    of the system (which always contains p itself).  Every line through p
    inside the nullspace meets every queried flat, so no line is tested:
    for a flat (f1, f2) = (x_j, f_j) not holding p, the cone form
    f1(p)·f2 − f2(p)·f1 is nonzero, since x_j and f_j are independent and
    (f1(p), f2(p)) ≠ 0.  It cuts out a hyperplane H that holds p and the
    flat Π.  Π is a hyperplane of H, so any line through p inside H meets
    Π.  A flat holding p is met by every line through p.
    """
    rows = []
    for f in flats:
        c = cone_hyperplane(p, f)
        if c is not None:
            rows.append(c)
    n1 = len(p.coords)
    basis = la.nullspace(rows, n1, ctx)
    nullity = len(basis)
    if nullity < 2:
        return TransversalResult(kind="none")
    pts = [ProjPoint(v, ctx) for v in basis]
    if nullity == 2:
        direction = next(pt for pt in pts if pt != p)
        return TransversalResult(kind="unique", line=LineParam(p, direction))
    return TransversalResult(kind="family", dim=nullity - 1, basis=pts)


def flat_meet(a, b, ctx):
    """Basis of flat_a ∩ flat_b: the four forms' nullspace basis, in closed form.

    The meet is x_i = x_j = 0 and u·x = v·x = 0 on the other columns.  Both
    flats are canonical (genericity (b) runs after (a), and `FlatsInstance`
    admits no other), so u is nonzero there and the echelon form of [u; v]
    pivots at the first column c and at the first l with u_c·v_l − u_l·v_c
    ≠ 0; each free column f gives the point e_f plus the solution at c and l
    by Cramer's rule on that minor, or at c alone when v is a multiple of u.
    """
    u, v = a.a, b.a
    c, *rest = [k for k in range(a.nvars) if k not in (a.j, b.j)]
    l = next((k for k in rest if u[c] * v[k] - u[k] * v[c]), None)
    inv = ctx.inv(u[c] if l is None else u[c] * v[l] - u[l] * v[c])
    basis = []
    for f in (k for k in rest if k != l):
        x = [ctx.zero] * a.nvars
        x[f] = ctx.one
        if l is None:
            x[c] = -u[f] * inv
        else:
            x[c], x[l] = (u[l] * v[f] - v[l] * u[f]) * inv, (v[c] * u[f] - u[c] * v[f]) * inv
        basis.append(ProjPoint(x, ctx))
    return basis


def parametrize_flat(f, ctx):
    """n-1 points spanning the flat: e_i + L_i·e_k for each i other than j
    and k, in increasing i, with (k, L) the flat's `Flat.reduction`."""
    k, line = f.reduction(ctx)
    pts = []
    for i, c in enumerate(line):
        if i not in (f.j, k):
            v = [ctx.zero] * f.nvars
            v[i], v[k] = ctx.one, c
            pts.append(ProjPoint(v, ctx))
    return pts


# ---- instance generation and serialization --------------------------------


@dataclass
class FlatsInstance:
    """A generated set of n+1 canonical flats plus its provenance."""

    n: int
    seed: int
    bound: int
    ctx: FieldCtx
    flats: list
    retries: int = 0

    def to_dict(self, version):
        return {
            "n": self.n,
            "seed": self.seed,
            "field": self.ctx.describe(),
            "bound": self.bound,
            "version": version,
            "retries": self.retries,
            "flats": [
                {"j": f.j, "f2": [str(c) for c in f.a]} for f in self.flats
            ],
        }

    @classmethod
    def from_dict(cls, d):
        ctx = FieldCtx.from_description(d["field"])
        n = d["n"]
        if n < 2:
            raise ValueError("need n >= 2")
        flats = []
        for rec in d["flats"]:
            j = rec["j"]
            if type(j) is not int:  # true == 1, but no flat index
                raise ValueError(f"flat index j must be an integer, got {j!r}")
            a = tuple(ctx.parse(s) for s in rec["f2"])
            if len(a) != n + 1:
                raise ValueError(f"flat {j}: expected {n + 1} coefficients")
            flats.append(Flat(j, a))
        if [f.j for f in flats] != list(range(n + 1)):
            raise ValueError("flats must be indexed 0..n in order")
        for f in flats:
            if not f.is_canonical():
                raise ValueError(f"flat {f.j} is not in canonical form")
        provenance = {
            "seed": d["seed"],
            "bound": d.get("bound", 9),
            "retries": d.get("retries", 0),
        }
        for key, value in provenance.items():
            if type(value) is not int:  # a bool is not an int here
                raise ValueError(f"{key} must be an integer, got {value!r}")
        return cls(n=n, ctx=ctx, flats=flats, **provenance)


_MAX_RETRIES = 32  # resamplings before random_general_flats gives up


class NoGenericInstance(RuntimeError):
    """No attempt of `random_general_flats` passed `genericity_check`."""


def random_general_flats(n, seed, ctx=None, bound=9):
    """n+1 random canonical flats in P^n certified by genericity_check.

    Deterministic in (seed, field, bound).  Resamples with a derived seed
    on a genericity failure; the retry count is recorded on the instance.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if ctx is None:
        ctx = FieldCtx.rationals()
    for attempt in range(_MAX_RETRIES):
        rng = seeded_rng(seed, "flats", attempt)
        flats = []
        for j in range(n + 1):
            a = [
                ctx.zero if i == j else ctx.random_nonzero(rng, bound)
                for i in range(n + 1)
            ]
            flats.append(Flat(j, tuple(a)))
        report = genericity_check(flats, ctx)
        if report.ok:
            return FlatsInstance(n, seed, bound, ctx, flats, retries=attempt)
    raise NoGenericInstance(
        f"no generic instance after {_MAX_RETRIES} attempts (n={n}, seed={seed})"
    )


@dataclass
class GenericityReport:
    ok: bool
    failures: list


def genericity_check(flats, ctx, record=None):
    """Certify that a flat list is general enough for the whole pipeline.

    Checks (a) canonical nonzero pattern, (b) pairwise intersections of the
    expected dimension, read off the pair meets.  (c), a unique transversal
    through a general point for every (n-1)-subset S, follows from (a), so
    it is cited, not tested.  Lemma.  By the cone proof of
    `transversal_through`, (c) asks for cone rows of rank n-1 at p.  At the
    vertex e_k, k not in S, flat m of S has x_m(e_k) = 0 and
    f_m(e_k) = a_{m,k} != 0, so its cone row is -a_{m,k}·e_m, and these
    n-1 rows have rank n-1.  The rows are linear in p, so an (n-1)-minor
    nonzero at e_k is a nonzero form in p, nonzero on a dense open set, over
    Q and over F_p alike; the subsets are finitely many, so a general point
    serves them all.  Condition (d), every det(B_i) exactly
    divisible by x_i, follows from (a): with a_{j,j} = 0 the rows of B sum
    to zero, so det(B_i) = x_i det(M_i) identically (`maps.compute_Q`).
    (e) the degree-n system through the flats and the one through the dual
    flats, the rows of A^T, both have dimension n+1, by a
    `restriction_bound` of n+1 on A and on A^T, name "A" or "Aᵀ".  The
    meets and bounds are `record.meet(i, j)` and `record.bound(name)` when
    the caller keeps them (`checks.ProofRecord`), else `flat_meet` and
    `flats_bound`.  Failures are named; the report carries all of them.
    """
    failures = []
    n1 = len(flats)
    n = n1 - 1
    for f in flats:
        if not f.is_canonical():
            failures.append(f"a: flat {f.j} violates the canonical zero pattern")
    if not failures:
        expected = max(n - 4, -1)  # projective dimension, -1 meaning empty
        for i, j in combinations(range(n1), 2):
            got = len(record.meet(i, j) if record else flat_meet(flats[i], flats[j], ctx)) - 1
            if got != expected:
                failures.append(
                    f"b: intersection {i},{j} has dimension {got}, expected {expected}"
                )
    if not failures:
        for name in ("A", "Aᵀ"):
            got = record.bound(name) if record else flats_bound(flats, name)
            if got != n1:
                failures.append(f"e: restriction bound on {name} is {got}, expected {n1}")
    return GenericityReport(ok=not failures, failures=failures)


def flats_bound(flats, name):
    """`restriction_bound` on the flats' matrix A, name "A", or on Aᵀ, "Aᵀ"."""
    a = [f.a for f in flats]
    return restriction_bound(a if name == "A" else list(zip(*a)))


def restriction_bound(rows):
    """An upper bound on the dimension of the degree-n forms through the
    n+1 flats (x_j, f_j) of P^n, f_j = sum_k a_{j,k} x_k with A = `rows`,
    by restriction to coordinate hyperplanes; None when this proof finds
    none, and None for an A off the canonical pattern, with an
    off-diagonal entry zero.  Only f_j modulo x_j matters, so a_{j,j} is
    never read.

    Proof.  For a set C of coordinates write f_k|_C for f_k with the
    variables outside C dropped, and for a degree m and a set J ⊆ C of
    flats let U(C, m, J) be the forms of degree m in the variables of C
    that lie in (x_k, f_k|_C) for every k in J.  The system is
    U(all, n, all).  Take j in J, J' = J∖{j}, and restrict each h of
    U(C, m, J) to x_j = 0.  Three conditions on entries and 2x2 minors of A:

    (P) every f_k|_{C∖k}, k in J, is nonzero, so (x_k, f_k|_C) is the
        ideal of two independent linear forms, a prime;
    (K) no row k in J' is supported on C∖{k} at column j alone, so x_j,
        of degree 1, lies outside (x_k, f_k|_C);
    (I) when |C| >= 4, row j is proportional to no row k in J' on the
        columns C∖{j, k}.  Then f_k|_{C∖{j,k}} is nonzero, so
        (x_k, f_k|_{C∖j}) is prime, and f_j|_{C∖j} lies outside it.

    Kernel: h = x_j·g with g of degree m-1, and for k in J' the prime
    (x_k, f_k|_C) holds x_j·g but not x_j (K), so it holds g: the kernel
    is x_j·U(C, m-1, J').  Image: h lies in (x_j, f_j|_C), so
    h|_{x_j=0} = f_j|_{C∖j}·β with β of degree m-1 in C∖j, fixed by h
    when f_j|_{C∖j} is nonzero (the image is 0 otherwise).  Setting x_j = 0
    maps (x_k, f_k|_C) into (x_k, f_k|_{C∖j}), which then holds
    f_j|_{C∖j}·β and, by (I), β: the image embeds in U(C∖j, m-1, J').  At
    |C| = 3 no (I) is needed, since the bound on C∖j below counts every
    binary form.  So

        dim U(C, m, J) <= dim U(C, m-1, J') + dim U(C∖j, m-1, J').

    The leaves, in this order: J = ∅ gives the C(|C|-1+m, m) monomials,
    |C| = 2 the m+1 binary forms, and m = 0 gives 0, since no nonzero
    constant lies in an ideal of linear forms.  A node tries each j in J in
    increasing order and keeps the first whose two subtrees both succeed;
    nodes are memoized on (C, m, J).  Only ideal membership is used, so the
    bound holds over Q and F_p alike.  The system is that of the canonical
    flats with a_{j,j} set to 0, for which the lemma of
    `checks.check_dimension` gives dimension >= n+1, so a bound of n+1
    proves the dimension n+1.  (P) and (K) are cited, not tested: at a
    node J ⊆ C and |C| >= 3, and with every off-diagonal entry nonzero
    each f_k|_{C∖k}, k in J, has all |C|-1 >= 2 of its columns, so it is
    nonzero and not supported at column j alone.
    """
    n1 = len(rows)
    if any(not rows[j][k] for j in range(n1) for k in range(n1) if j != k):
        return None

    def proportional(j, k, cols):
        return not any(
            rows[j][u] * rows[k][v] != rows[j][v] * rows[k][u]
            for u, v in combinations(cols, 2)
        )

    memo = {}

    def bound(c, m, js):
        if not js:
            return comb(len(c) - 1 + m, m)
        if len(c) == 2:
            return m + 1
        if m == 0:
            return 0
        if (c, m, js) not in memo:
            memo[c, m, js] = node(c, m, js)
        return memo[c, m, js]

    def node(c, m, js):
        for j in sorted(js):
            rest = js - {j}
            if len(c) >= 4 and any(proportional(j, k, c - {j, k}) for k in rest):
                continue  # (I)
            kernel = bound(c, m - 1, rest)
            image = None if kernel is None else bound(c - {j}, m - 1, rest)
            if image is not None:
                return kernel + image
        return None

    everything = frozenset(range(n1))
    return bound(everything, n1 - 1, everything)
