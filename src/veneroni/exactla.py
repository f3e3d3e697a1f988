"""Exact linear algebra over a field, plus determinants of polynomial matrices.

rref, rank, nullspace, solve and rank_mod_p share one sparse elimination
kernel, `_eliminate`, on rows held as {column: entry} dicts of the nonzero
entries: rationals over Q and plain-int residues mod p over F_p;
`residues` is the one reduction mod p.  rank and rank_mod_p take list
rows or dict rows; rref, nullspace and solve take and return
lists of lists and convert at their boundary.
Determinants accept matrices whose entries are polynomials as
well as scalars, and come in two independent implementations:

* `det_laplace` - cofactor expansion memoized over column subsets, the
  route of every build and verify (no division at all, so it never needs
  exact quotients);
* `det_bareiss` - fraction-free elimination whose interior divisions are
  exact by Sylvester's identity, run only by the tests, as an oracle.

The subset expansion, `_minor_dp`, runs on k x c matrices, k <= c, and
gives every maximal minor from one pass (`maximal_minors`); `det_laplace`
reads the one full column set of a square matrix.

Both cross mpoly's integer boundary once per matrix: `_lower_matrix`
turns every entry into (exponent, int) terms, over F_p one residue per
coefficient and over Q numerators over one common denominator d_r per row,
so a minor is that of the integer matrix over prod d_r.  The expansions
then run on ints: the subset expansion on exponents packed into one int
each, so a monomial product is an int addition, and Bareiss with
`mpoly._product` and its accumulator for products and sums and
`mpoly._quotient` for its exact quotients, which lie in Z[x].  Each
result is lifted back once.  A scalar entry is a constant term, and a
matrix of scalars has scalar minors.  Both refuse matrices of more than
MAX_DET_SIZE rows with a ValueError, since cost explodes beyond that.
"""

from collections import Counter
from math import lcm

from .mpoly import Poly, _lift, _lower, _nonzero, _prime, _product, _quotient
from .scalar import FieldCtx, Fp, Rational

MAX_DET_SIZE = 8
_QQ = FieldCtx.rationals()


def _check_shape(m, square=True):
    """The row count k of m, once m is k x k (k x c with k <= c when not
    `square`) and k is at most MAX_DET_SIZE."""
    k = len(m)
    c = len(m[0]) if m else 0
    if any(len(row) != c for row in m) or c < k or (square and c != k):
        raise ValueError("matrix is not square" if square else "matrix is not k x c with k <= c")
    if k > MAX_DET_SIZE:
        raise ValueError(f"matrix size {k} exceeds determinant cap {MAX_DET_SIZE}")
    return k


def _lower_matrix(m):
    """(rows, p, d, nvars): the entries of m as lists of (e, int) terms.

    p is the prime of the F_p entries, or None over Q; over Q each row is
    scaled by the common denominator of its coefficients and d is the
    product of those, so a minor of m is that of rows over d.  nvars is
    that of the polynomial entries, None for a matrix of scalars.
    """
    nvars = next((e.nvars for row in m for e in row if isinstance(e, Poly)), None)
    const = (0,) * (nvars or 0)
    # a zero scalar, dropped from the terms, still names its field
    p = _prime(*(e.terms.values() if isinstance(e, Poly) else (e,) for row in m for e in row))
    terms = [
        [e.terms if isinstance(e, Poly) else {const: e} if e else {} for e in row]
        for row in m
    ]
    rows, d = [], 1
    for row in terms:
        lowered = [_lower(t, p) for t in row]
        dr = lcm(*(dt for _, dt in lowered))
        rows.append([t if dt == dr else [(e, v * (dr // dt)) for e, v in t] for t, dt in lowered])
        d *= dr
    return rows, p, d, nvars


def _lifted(terms, p, d, nvars):
    """The (e, int) terms of a minor of the lowered matrix, over d, as a
    Poly in nvars variables, or as a scalar when nvars is None."""
    if nvars is not None:
        return _lift(nvars, dict(terms), p, d)
    v = terms[0][1] if terms else 0
    return Rational(v, d) if p is None else Fp(v, p)


def _det(m, expand):
    """The determinant of m, with `expand` run on its integer form."""
    if _check_shape(m) == 0:
        return 1
    rows, p, d, nvars = _lower_matrix(m)
    return _lifted(expand(rows, p), p, d, nvars)


def _negated(terms):
    return [(e, -v) for e, v in terms]


def _minor_dp(rows, p):
    """Every maximal minor of the k x c matrix `rows` of (e, int) terms,
    k <= c, by column-subset dynamic programming: {mask: terms} for the
    k-subsets `mask` of the columns, zero minors left out.

    D[mask] is the minor on the first popcount(mask) rows and the columns in
    mask; expanding each along its last row visits every subset once, which
    is far cheaper than the naive k! expansion and involves no division.
    Zero entries and zero minors are skipped.  Inside the expansion each
    exponent tuple is one int with a field per variable, so a product of
    monomials is one int addition.  An exponent of a minor is at most k
    times the largest entry degree, which takes w bits, so fields of w bits
    (one at least, for a matrix of constants) never carry into the next.
    Each result term is unpacked once.
    """
    k = len(rows)
    exps = [e for row in rows for t in row for e, _ in t]
    nvars = len(exps[0]) if exps else 0
    w = max((k * max(map(sum, exps), default=0)).bit_length(), 1)
    shifts, field = range(0, w * nvars, w), (1 << w) - 1
    pack = lambda e: sum(x << s for x, s in zip(e, shifts))
    unpack = lambda e: tuple([e >> s & field for s in shifts])
    prev = {0: [(0, 1)]}  # the empty minor
    for r, row in enumerate(rows):
        row = [[(pack(e), v) for e, v in t] for t in row]
        signed = (row, [_negated(t) for t in row])
        cur = {}
        for mask, minor in prev.items():
            # extend the column set by one unused column j; the expansion
            # sign depends on j's position within the enlarged set
            for j, t in enumerate(row):
                bit = 1 << j
                if mask & bit or not t:
                    continue
                odd = (r + (mask & (bit - 1)).bit_count()) % 2
                acc = cur.setdefault(mask | bit, {})
                get = acc.get
                for eb, cb in signed[odd][j]:
                    for ea, ca in minor:
                        e = ea + eb
                        acc[e] = get(e, 0) + ca * cb
        prev = {mask: t for mask, acc in cur.items() if (t := _nonzero(acc, p))}
    return {mask: [(unpack(e), v) for e, v in t] for mask, t in prev.items()}


def _bareiss(a, p):
    """Fraction-free elimination on (e, int) terms; the rows `a` are consumed.

    Every interior division is by the previous pivot, and by Sylvester's
    identity the quotient is a minor of the integer matrix, so it lies in
    Z[x] (in F_p[x] over F_p) and the common denominator never grows.  Rows
    are swapped (with a sign flip) when a pivot vanishes.
    """
    k = len(a)
    sign = 1
    prev = None
    for i in range(k - 1):
        if not a[i][i]:
            r = next((r for r in range(i + 1, k) if a[r][i]), None)
            if r is None:
                return []  # the column below the pivot is gone
            a[i], a[r] = a[r], a[i]
            sign = -sign
        pivot = a[i][i]
        for r in range(i + 1, k):
            lead = _negated(a[r][i])
            for c in range(i + 1, k):
                acc = _product(pivot, a[r][c])
                num = _nonzero(_product(lead, a[i][c], acc), p)
                a[r][c] = num if prev is None else _quotient(num, prev, p)[0]
        prev = pivot
    d = a[k - 1][k - 1]
    return d if sign > 0 else _negated(d)


def det_laplace(m):
    """Determinant by column-subset dynamic programming: the one full mask
    of `_minor_dp`."""
    return _det(m, lambda rows, p: _minor_dp(rows, p).get((1 << len(rows)) - 1, []))


def maximal_minors(m):
    """{mask: minor} for a k x c matrix, k <= c: the determinant of the
    columns in each k-subset `mask` (bit j for column j), all from one
    `_minor_dp`; zero minors are left out."""
    _check_shape(m, square=False)
    rows, p, d, nvars = _lower_matrix(m)
    return {mask: _lifted(t, p, d, nvars) for mask, t in _minor_dp(rows, p).items()}


def det_bareiss(m):
    """Determinant by fraction-free Gaussian elimination (`_bareiss`)."""
    return _det(m, _bareiss)


def det_poly_matrix(m, strategy="minor_dp"):
    """Strategy dispatch: "minor_dp" (column-subset DP) or "bareiss"."""
    if strategy == "minor_dp":
        return det_laplace(m)
    if strategy == "bareiss":
        return det_bareiss(m)
    raise ValueError(f"unknown determinant strategy {strategy!r}")


def residues(rows, p):
    """The matrix as plain-int residues mod p, each row in the shape it came
    in (a list, or a {column: entry} dict): F_p entries give their residue,
    rationals num * den^-1.  A denominator divisible by p has no image and
    raises ValueError instead of wrapping silently."""
    return [
        {c: _residue(v, p) for c, v in row.items()}
        if isinstance(row, dict)
        else [_residue(v, p) for v in row]
        for row in rows
    ]


def _residue(v, p):
    if isinstance(v, Fp):
        if v.p != p:
            raise ValueError(f"element of F_{v.p} has no residue mod {p}")
        return v.r
    num, den = int(v.numerator), int(v.denominator)
    if den % p == 0:
        raise ValueError(f"denominator {den} vanishes mod {p}")
    return num % p if den == 1 else num * pow(den, -1, p) % p


def _sparse(rows, p=None):
    """Fresh {column: entry} dicts of the nonzero entries of list or dict
    rows, with every entry reduced mod p when p is given."""
    out = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if p is None:
            out.append({c: v for c, v in items if v})
        else:
            out.append({c: v % p for c, v in items if v % p})
    return out


def _subtract(row, f, prow, p):
    """row -= f * prow in place, dropping the entries that cancel."""
    get = row.get
    for k, v in prow.items():
        x = get(k, 0) - f * v
        if p is not None:
            x %= p
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def _eliminate(rows, p, full):
    """Row-reduce sparse rows; return {pivot column: pivot row}.

    `rows` are {column: entry} dicts of nonzero entries, ints in [0, p) or
    rationals when p is None; they are consumed, shortest first.  Each row
    is reduced against the stored pivot rows in the order they were found
    (a later pivot row is zero in every earlier pivot column, so one pass
    clears them all), and what is left becomes a new pivot row, scaled to 1
    at its pivot.  A stored row omits that 1.  `full` pivots on the
    leftmost column and clears it from the stored rows too, which gives the
    reduced row echelon form; otherwise the pivot is a column with the
    fewest nonzeros in the matrix (Markowitz), which keeps fill-in low and
    is all a rank needs.
    """
    key = None if full else Counter(c for row in rows for c in row).__getitem__
    pivots = {}
    for row in sorted(rows, key=len):
        for c, prow in pivots.items():
            f = row.pop(c, None)
            if f is not None:
                _subtract(row, f, prow, p)
        if not row:
            continue
        c = min(row, key=key)
        lead = row.pop(c)
        if p is None:
            inv = _QQ.inv(lead)
            row = {k: v * inv for k, v in row.items()}
        else:
            inv = pow(lead, -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        if full:
            for prow in pivots.values():
                f = prow.pop(c, None)
                if f is not None:
                    _subtract(prow, f, row, p)
        pivots[c] = row
    return pivots


def rref(rows, ctx):
    """Reduced row echelon form of a list of rows.  Returns (reduced rows,
    pivot column list); the zero rows come last.  Over F_p the elimination
    runs on residues."""
    ncols = len(rows[0]) if rows else 0
    p = None if ctx.kind == "qq" else ctx.p
    pivots = _eliminate(_sparse(rows if p is None else residues(rows, p)), p, True)
    cols = sorted(pivots)
    red = []
    for c in cols:
        row = [0] * ncols
        row[c] = 1
        for k, v in pivots[c].items():
            row[k] = v
        red.append(row)
    red += [[0] * ncols for _ in range(len(rows) - len(cols))]
    if p is None:
        return [[_QQ.convert(v) for v in row] for row in red], cols
    return [[Fp(v, p) for v in row] for row in red], cols


def rank(rows, ctx):
    """Rank of list or {column: entry} dict rows."""
    if ctx.kind == "qq":
        return len(_eliminate(_sparse(rows), None, full=False))
    return rank_mod_p(residues(rows, ctx.p), ctx.p)


def rank_mod_p(int_rows, p):
    """Rank over F_p of an integer matrix of list or dict rows."""
    return len(_eliminate(_sparse(int_rows, p), p, full=False))


def nullspace(rows, ncols, ctx):
    """Basis of the right kernel {v : rows @ v = 0} as a list of vectors."""
    if not rows:
        return [
            [ctx.one if i == j else ctx.zero for i in range(ncols)]
            for j in range(ncols)
        ]
    red, pivots = rref(rows, ctx)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        lead = ctx.inv(next(c for c in v if c))
        basis.append([c * lead for c in v])
    return basis


def solve(a, b, ctx):
    """One solution of a @ x = b, or None when the system is inconsistent.

    Nothing in the package calls it; the tests use it as an oracle and
    perfbench/tracer.py wraps it.
    """
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug, ctx)
    ncols = len(a[0]) if a else 0
    if ncols in pivots:  # pivot in the constants column
        return None
    x = [ctx.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def mat_mul(a, b):
    out = []
    for row in a:
        out.append(
            [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        )
    return out


def identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]
