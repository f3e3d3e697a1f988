"""The proof of each stored Q_i = det(M_i): values on the lattice of P^n.

`det_m_failure` holds the lemma that makes it a proof; `form_values` and
`det_int` give its two sides in integers, with no polynomial multiplied.
"""

import math
from operator import mul

from .maps import monomials_of_degree
from .mpoly import _lower


def grid(n):
    """(points, index, fibres, passes): the lattice of P^n.  The points
    are the β of the monomials x_0^(n-1-|β|)·x^β of degree n-1, `index`
    numbers them, and each fibre, of length >= 2, numbers the points that
    differ only in one β_k, in increasing β_k, axis after axis.
    passes[0][j][m] is the Stirling number S(m, j) of the second kind,
    passes[1][t][j] the falling factorial (t)_j."""
    d = n - 1
    points = [e[1:] for e in monomials_of_degree(n + 1, d)]
    index = {b: k for k, b in enumerate(points)}
    fibres = [
        [index[b[:k] + (t,) + b[k + 1:]] for t in range(d + 1 - sum(b))]
        for k in range(n)
        for b in points
        if not b[k] and sum(b) < d
    ]
    stirling = [[1] + [0] * d]
    for m in range(1, d + 1):
        stirling.append([0] + [j * stirling[-1][j] + stirling[-1][j - 1] for j in range(1, d + 1)])
    falling = [[math.perm(t, j) for j in range(d + 1)] for t in range(d + 1)]
    return points, index, fibres, (list(zip(*stirling)), falling)


def form_values(terms, lattice):
    """Values at the points (1, β) of the `grid` of the form of degree n-1
    with (e, int) terms, by two integer passes along each axis: monomials
    to the Newton basis N_α = ∏_k (x_k)_{α_k}, as x^m = Σ_j S(m, j)·(x)_j,
    then the Newton basis to values, as (t)_j vanishes for j > t.  Each
    matrix is triangular, so each fibre's pass reads and writes points of
    the lattice."""
    points, index, fibres, passes = lattice
    v = [0] * len(points)
    for e, c in terms:
        v[index[e[1:]]] = c
    for matrix in passes:
        for fibre in fibres:
            vals = [v[k] for k in fibre]
            for row, k in zip(matrix, fibre):
                v[k] = sum(map(mul, row, vals))
    return v


def det_int(a):
    """The determinant of a square int matrix by Bareiss's fraction-free
    elimination over Z, whose divisions are exact by Sylvester's identity;
    the rows `a` are consumed."""
    sign, prev, k = 1, 1, len(a)
    for i in range(k - 1):
        if not a[i][i]:
            r = next((r for r in range(i + 1, k) if a[r][i]), None)
            if r is None:
                return 0
            a[i], a[r], sign = a[r], a[i], -sign
        top, piv, cols = a[i], a[i][i], range(i + 1, k)
        for row in a[i + 1:]:
            lead = row[i]
            if lead:
                for c in cols:
                    row[c] = (piv * row[c] - lead * top[c]) // prev
            elif piv != prev:
                for c in cols:
                    row[c] = piv * row[c] // prev
        prev = piv
    return sign * a[-1][-1]


def det_m_failure(flats, qs, p):
    """The smallest i at which Q_i is not det(M_i) of the flats, with its
    first term of degree other than n-1 or else the first lattice point
    where they differ: a witness, or None when Q_i = det(M_i) for every i.
    p is the field's prime, None over Q.

    Lemma.  Let d = n-1.  A form of degree d in x_0..x_n is fixed by its
    values at the points (1, β) of the `grid`, once 0..d are distinct in
    the field, as over Q and in every F_p with p > 2^30 (`FieldCtx`).
    Proof: setting x_0 = 1 maps the forms of degree d one to one onto the
    polynomials of degree <= d in x_1..x_n, whose Newton basis N_α,
    |α| <= d, has N_α(β) = 0 unless α <= β, and N_β(β) = ∏_k β_k!, a
    unit.  So the values on the lattice, ordered by |β|, are a triangular
    image of the coefficients with a unit diagonal, and a form of degree d
    that vanishes there is zero.  det(M_i) is a form of degree d: M_i has
    one column of constants and n-1 of linear forms.  So a Q_i with every
    term of degree d is det(M_i) exactly when they agree at every lattice
    point, and every point is tested.

    The two sides, in integers.  B(1, β) holds, per row j, its entries
    times the common denominator D_j of row j of A (1 over F_p), and each
    numeric M_i is its minor with the constants -a_{j,i}·D_j in the first
    column, whose determinant is det(M_i)·∏_{j != i} D_j.  A column k of
    it with x_k = 0 holds only its diagonal entry -f_k(1, β)·D_k, so the
    determinant is the product of those entries times `det_int` of the
    other rows and columns.  The Q_i are numerators over a denominator dq,
    valued by `form_values`.
    """
    n1 = len(flats)
    lattice = grid(n1 - 1)
    rows, scales = [], []
    for f in flats:
        terms, d = _lower(dict(enumerate(f.a)), p)
        row = dict(terms)
        rows.append([row.get(k, 0) for k in range(n1)])
        scales.append(d)
    sides, witness = [], None
    for i, q in enumerate(qs):
        degree = next((sum(e) for e in q.terms if sum(e) != n1 - 2), None)
        if degree is not None:  # the lattice tests only the smaller i
            witness = {"i": i, "reason": f"a term of degree {degree}, not {n1 - 2}"}
            break
        terms, dq = _lower(q.terms, p)
        others = [j for j in range(n1) if j != i]
        unit = math.prod(scales[j] for j in others)
        sides.append((form_values(terms, lattice), unit, dq, others, [-row[i] for row in rows]))
    for at, b in enumerate(lattice[0]):
        if not sides:
            break
        x = (1, *b)
        bx = [[c * xk for c, xk in zip(row, x)] for row in rows]
        for j, row in enumerate(bx):
            row[j] = -sum(row)
        for i, (values, unit, dq, (first, *rest), consts) in enumerate(sides):
            live = [k for k in rest if x[k]]
            m = [[consts[j], *(bx[j][k] for k in live)] for j in (first, *live)]
            det = math.prod(bx[k][k] for k in rest if not x[k]) * det_int(m)
            diff = values[at] * unit - det * dq
            if diff % p if p else diff:
                # later points need only test the smaller i
                witness = {"i": i, "point": list(x), "reason": "Q_i differs from det(M_i)"}
                del sides[i:]
                break
    return witness
