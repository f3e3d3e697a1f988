"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict mapping exponent tuples to nonzero coefficients,
all from one field: rationals or prime-field elements (see `scalar`), with
plain ints accepted as either (and kept: see `_lift`).  Addition, negation,
scaling and differentiation use the coefficients' own operators.  Products,
evaluation, substitution and exact division cross one boundary instead:
`_lower` turns the coefficients into Python ints (residues mod p, or
numerators over one common denominator), one loop on ints does the work,
and `_lift` turns each result term back into a field element exactly once.
The integer loops, `_product` (with its accumulator, the int-level sum)
and the heap quotient `_quotient`, are also the determinant kernels'
arithmetic: `exactla` lowers a whole matrix once and expands it on ints.
Point values of a fixed list of polynomials come from one `Evaluator`.
The field is read from every operand, so ints met with F_p elements land
in F_p, and elements of two different primes raise ValueError.  Terms are
kept unordered in the dict and sorted into graded reverse-lexicographic
order only at the edges (printing, serialization, lead-term extraction)
and in the division heap.  Text is printed for people only; map files
carry polynomials as JSON term lists (`to_dict` and `from_dict`), so there
is no text parser.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, mul, sub

from .scalar import Fp, Rational


def _grevlex(e):
    # Graded reverse-lex key: higher total degree wins, ties broken so the
    # term with the *smaller* trailing exponents is larger.
    return (sum(e), tuple(-k for k in reversed(e)))


def _heap_key(e):
    # Min-heap form of _grevlex: the grevlex-largest exponent pops first.
    return (-sum(e), e[::-1])


# ---- the integer boundary -------------------------------------------------


def _prime(*groups):
    """The prime of the F_p elements among the coefficient groups, or None
    (the rationals) when there are none.

    A group is read up to its first non-int value, which names its field.
    """
    p = None
    for values in groups:
        for c in values:
            if isinstance(c, Fp):
                if p is None:
                    p = c.p
                elif c.p != p:
                    raise ValueError("elements of different prime fields")
                break
            if not isinstance(c, int):
                break
    return p


def _residue(c, p):
    """The residue mod p of an F_p element or an int."""
    if isinstance(c, Fp):
        if c.p != p:
            raise ValueError("elements of different prime fields")
        return c.r
    if isinstance(c, int):
        return c % p
    raise TypeError(f"coefficient {c!r} is not in F_{p}")


def _denominator(values):
    """The least common denominator of rationals and ints."""
    try:
        return lcm(*[c.denominator for c in values])
    except AttributeError:
        raise TypeError("coefficients must be rationals or ints") from None


def _lower(terms, p):
    """The terms as ([(e, v)], d) with every v a nonzero int.

    Over F_p (p a prime) v is the residue of the coefficient and d is 1;
    over Q (p None) v is its numerator over the common denominator d.
    """
    if p is not None:
        out = [(e, c.r) for e, c in terms.items() if c.__class__ is Fp and c.p == p]
        if len(out) < len(terms):  # ints among the coefficients, or errors
            out = [(e, r) for e, c in terms.items() if (r := _residue(c, p))]
        return out, 1
    d = _denominator(terms.values())
    if d == 1:
        return [(e, c.numerator) for e, c in terms.items()], 1
    return [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()], d


def _lift(nvars, acc, p, d, *operands):
    """The Poly with coefficients acc[e] mod p, or acc[e]/d over Q; zeros
    drop.  Plain ints stay plain when d is 1 and so are all coefficients of
    the `operands`, the terms dicts the result came from."""
    out = Poly(nvars)
    if p is not None:
        new = Fp._from_residue
        out.terms = {e: new(r, p) for e, r in _nonzero(acc, p)}
    elif d == 1 and operands and all(c.__class__ is int for t in operands for c in t.values()):
        out.terms = dict(_nonzero(acc, p))
    elif d == 1:
        out.terms = {e: Rational(v) for e, v in _nonzero(acc, p)}
    else:
        out.terms = {e: Rational(v, d) for e, v in _nonzero(acc, p)}
    return out


def _product(a, b, acc=None):
    """{e: sum of ca*cb over ea + eb = e} for two lists of (e, int) terms,
    added into the accumulator `acc` when one is given: the int-level sum.
    Values are left unreduced; `_nonzero` reads them out."""
    if len(a) > len(b):
        a, b = b, a
    if acc is None:
        acc = {}
    get = acc.get
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(map(add, ea, eb))
            acc[e] = get(e, 0) + ca * cb
    return acc


def _quotient(num, div, p):
    """(quo, s) with s·num = quo·div, for lists of (e, int) terms and a
    nonzero `div`; raises ValueError when div does not divide num.

    Heap division after Monagan and Pearce ("Sparse polynomial division
    using a heap", 2011).  Their heap merges the products q_j*g_i; here the
    remainder is a dict of ints updated in place and the heap holds its
    exponents, so each step finds the grevlex-leading term without a scan.
    An entry whose term cancelled after it was pushed is skipped when
    popped.  Over F_p (p a prime) s is 1 and a quotient term costs one
    product with the inverse of the lead coefficient of div.  Over Z (p
    None) remainder and quotient are scaled by s, which grows only when
    the lead coefficient of div does not divide the next leading one; so
    s is 1 whenever the quotient lies in Z[x].
    """
    rem = dict(num)
    eg, lg = max(div, key=lambda t: _grevlex(t[0]))
    tail = [(e, c) for e, c in div if e != eg]
    if p is not None:
        inv = pow(lg, -1, p)
    heap = [_heap_key(e) for e in rem]
    heapify(heap)
    quo, scale = {}, 1
    while heap:
        e = heappop(heap)[1][::-1]
        v = rem.pop(e, None)
        if v is None:
            continue  # cancelled after it was pushed
        if p is not None:
            t = v * inv % p
            if not t:
                continue  # a sum of residues that vanishes mod p
        else:
            s = abs(lg) // gcd(v, lg)
            if s != 1:  # make the leading numerator divisible by lg
                v *= s
                scale *= s
                for f in rem:
                    rem[f] *= s
                for f in quo:
                    quo[f] *= s
            t = v // lg
        de = tuple(map(sub, e, eg))
        if min(de, default=0) < 0:
            raise ValueError("not an exact multiple")
        quo[de] = t
        for f, c in tail:
            f = tuple(map(add, de, f))
            tc = t * c
            w = rem.get(f)
            if w is None:
                rem[f] = -tc
                heappush(heap, _heap_key(f))
            elif w == tc:
                del rem[f]
            else:
                rem[f] = w - tc
    return list(quo.items()), scale


def _powers(x, top):
    """[x**0, ..., x**top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _nonzero(acc, p):
    """The (e, int) terms of an accumulator, reduced mod p when p is given."""
    if p is None:
        return [(e, v) for e, v in acc.items() if v]
    return [(e, r) for e, v in acc.items() if (r := v % p)]


class Poly:
    """Sparse polynomial in `nvars` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, c, nvars):
        p = cls(nvars)
        if c:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def var(cls, i, nvars, one=1):
        """The variable x_i, with coefficient `one` from the active field."""
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): one})

    @classmethod
    def from_linear(cls, coeffs):
        """The linear form sum_i coeffs[i] * x_i."""
        n = len(coeffs)
        p = cls(n)
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                p.terms[tuple(e)] = c
        return p

    # ---- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: _grevlex(t[0]), reverse=True)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ---- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        p = Poly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Rational, Fp)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        if not self.terms or not other.terms:
            return Poly(self.nvars)
        p = _prime(self.terms.values(), other.terms.values())
        a, da = _lower(self.terms, p)
        b, db = _lower(other.terms, p)
        return _lift(self.nvars, _product(a, b), p, da * db, self.terms, other.terms)

    def __rmul__(self, c):
        return self.__mul__(c)  # scalar · Poly; Poly · Poly never lands here

    def scale(self, c):
        """Multiply by a scalar, as `self * c` and `c * self` do."""
        p = Poly(self.nvars)
        if c:
            p.terms = {e: k * c for e, k in self.terms.items()}
        return p

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            if not self.terms:
                return Poly.const(1, self.nvars)  # no coefficient names a field
            p = _prime(self.terms.values())
            return _lift(self.nvars, {(0,) * self.nvars: 1}, p, 1, self.terms)
        return result

    # ---- division -----------------------------------------------------

    def exact_div(self, g):
        """Exact quotient self/g; raises ValueError when g does not divide.

        The operands cross the integer boundary once and `_quotient` divides
        their integer forms: over Q self = A/da and g = G/dg, and
        s·A = Q·G gives self/g = Q·dg/(s·da).
        """
        if not isinstance(g, Poly):
            raise TypeError("divisor must be a polynomial")
        self._check(g)
        p = _prime(self.terms.values(), g.terms.values())
        div, dg = _lower(g.terms, p)
        if not div:
            raise ZeroDivisionError("division by the zero polynomial")
        num, da = _lower(self.terms, p)
        quo, s = _quotient(num, div, p)
        return _lift(self.nvars, {e: v * dg for e, v in quo}, p, da * s, self.terms, g.terms)

    def partial(self, i):
        """Partial derivative with respect to x_i."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        p = Poly(self.nvars)
        p.terms = out
        return p

    # ---- evaluation and substitution -----------------------------------

    def evaluate(self, point):
        """Value at a tuple of field elements (one per variable); see
        `Evaluator`, which evaluates several polynomials at once.  Nothing in
        the package calls it; the tests do, and perfbench/tracer.py wraps it."""
        return Evaluator([self])(point)[0]

    def substitute(self, images):
        """Ring map x_i -> images[i]; images are any polynomials in a common
        ring, of any degrees (a zero image kills its variable)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        m = images[0].nvars
        p = _prime(self.terms.values(), *(im.terms.values() for im in images))
        terms, dc = _lower(self.terms, p)
        lowered = [_lower(im.terms, p) for im in images]
        di = lcm(*(d for _, d in lowered))  # images are numerators over di
        imgs = [t if d == di else [(e, v * (di // d)) for e, v in t] for t, d in lowered]
        one = [((0,) * m, 1)]
        pows = [[one, img] for img in imgs]  # pows[i][k] = imgs[i]**k
        top = max((sum(e) for e, _ in terms), default=0)
        dpow = _powers(di, top)  # a degree-k term is over di**k: bring all to di**top
        acc = {}
        get = acc.get
        for e, c in terms:
            v = one
            for i, k in enumerate(e):
                if k:
                    pi = pows[i]
                    while len(pi) <= k:
                        pi.append(_nonzero(_product(pi[-1], imgs[i]), p))
                    v = pi[k] if v is one else _nonzero(_product(v, pi[k]), p)
            c *= dpow[top - sum(e)]
            for f, x in v:
                acc[f] = get(f, 0) + c * x
        return _lift(m, acc, p, dc * dpow[top], self.terms, *(im.terms for im in images))

    # ---- text and JSON --------------------------------------------------

    def text(self, names=None):
        """Human-readable form, terms in descending grevlex order."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            mono = [
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e)
                if k
            ]
            cs = str(c)
            if mono and cs == "1":
                body = "*".join(mono)
            elif mono and cs == "-1":
                body = "-" + "*".join(mono)
            else:
                body = "*".join([cs] + mono)
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out

    def to_dict(self):
        """JSON form: degree plus terms in canonical (grevlex-descending) order."""
        return {
            "degree": self.degree(),
            "terms": [{"c": str(c), "e": list(e)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_dict(cls, d, nvars, ctx):
        p = cls(nvars)
        seen = set()
        for t in d["terms"]:
            e = tuple(t["e"])
            if len(e) != nvars:
                raise ValueError("exponent length does not match variable count")
            if any(type(k) is not int or k < 0 for k in e):
                raise ValueError(f"exponent {list(e)} is not a list of naturals")
            if e in seen:
                raise ValueError(f"exponent {list(e)} appears in two terms")
            seen.add(e)
            c = ctx.parse(t["c"])
            if c:
                p.terms[e] = c
        deg = p.degree()
        if d.get("degree", deg) != deg:
            raise ValueError(f"declared degree {d['degree']} but terms have degree {deg}")
        return p

    def __repr__(self):
        return f"Poly({self.text()})"


class Evaluator:
    """Values of a fixed list of polynomials at points, all from one table.

    The polynomials are lowered to ints once per field, on the first point
    of that field.  Their monomials are numbered once, in a table where
    each entry but the constant 1 names a parent entry that lacks one
    variable; at a point every entry is then one integer product (reduced
    mod p over F_p), and each polynomial is a dot product of its
    coefficients with the entries, so monomials shared by the polynomials
    are computed once.  A polynomial of degree d is homogenized to degree
    d by one extra variable h.  Over Q a point becomes numerators X over
    one common denominator dx and h = dx, so a term c·x^e becomes
    c·X^e·dx^(d−|e|) over dx^d, which keeps non-homogeneous input exact;
    over F_p h = 1.  The field is read from the coefficients and the point
    as in `Poly` arithmetic: ints are in either field, and elements of two
    primes raise ValueError.
    """

    __slots__ = ("nvars", "_polys", "_prime", "_steps", "_places", "_tops", "_lowered")

    def __init__(self, polys):
        self._polys = list(polys)
        if not self._polys:
            raise ValueError("need at least one polynomial")
        self.nvars = self._polys[0].nvars
        for q in self._polys:
            q._check(self._polys[0])
        self._prime = _prime(*(q.terms.values() for q in self._polys))
        h = self.nvars  # the homogenizing variable
        index = {(0,) * (h + 1): 0}
        self._steps = []  # entry k + 1 is entry parent times variable v
        self._tops, self._places = [], []  # per polynomial: degree, {e: entry}

        def number(m):
            # the entry of monomial m, after its parent: m less one unit of
            # the first variable it holds
            k = index.get(m)
            if k is None:
                v = next(i for i, x in enumerate(m) if x)
                self._steps.append((number(m[:v] + (m[v] - 1,) + m[v + 1:]), v))
                k = index[m] = len(self._steps)
            return k

        for q in self._polys:
            degrees = {e: sum(e) for e in q.terms}
            top = max(degrees.values(), default=0)
            self._tops.append(top)
            self._places.append({e: number(e + (top - d,)) for e, d in degrees.items()})
        self._lowered = {}  # p (None for Q) -> per polynomial (entries, ints, d)

    def _rows(self, p):
        """Per polynomial: its table entries, int coefficients and common
        denominator in the field of p, lowered on first use."""
        rows = self._lowered.get(p)
        if rows is None:
            rows = []
            for q, place in zip(self._polys, self._places):
                terms, d = _lower(q.terms, p)
                rows.append(([place[e] for e, _ in terms], [v for _, v in terms], d))
            self._lowered[p] = rows
        return rows

    def __call__(self, point):
        """The values of the polynomials at the point, in list order."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        p = self._prime if self._prime is not None else _prime(point)
        rows = self._rows(p)
        vals = [1]
        push = vals.append
        if p is not None:
            xs = [_residue(x, p) for x in point] + [1]
            for parent, v in self._steps:
                push(vals[parent] * xs[v] % p)
        else:
            dx = _denominator(point)
            xs = [x.numerator * (dx // x.denominator) for x in point] + [dx]
            for parent, v in self._steps:
                push(vals[parent] * xs[v])
        get = vals.__getitem__
        totals = [sum(map(mul, cs, map(get, ks))) for ks, cs, _ in rows]
        if p is not None:
            new = Fp._from_residue
            return [new(t % p, p) for t in totals]
        return [Rational(t, d * dx**top) for t, (_, _, d), top in zip(totals, rows, self._tops)]
