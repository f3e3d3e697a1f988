"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict mapping exponent tuples to nonzero coefficients;
coefficients are whatever the active field context produces (rationals or
prime-field elements) and all arithmetic goes through their operators, so
one implementation serves both fields.  Terms are kept unordered in the
dict and sorted into graded reverse-lexicographic order only at the edges
(printing, serialization, lead-term extraction), which keeps the hot
paths (multiplication, substitution) cheap.  Text is printed for people
only; map files carry polynomials as JSON term lists (`to_dict` and
`from_dict`), so there is no text parser.
"""


def _grevlex(e):
    # Graded reverse-lex key: higher total degree wins, ties broken so the
    # term with the *smaller* trailing exponents is larger.
    return (sum(e), tuple(-k for k in reversed(e)))


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

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def lead(self):
        """(exponent, coefficient) of the grevlex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grevlex)
        return e, self.terms[e]

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
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def scale(self, c):
        """Multiply by a scalar."""
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
            one = next(iter(self.terms.values()), None)
            unit = 1 if one is None else one - one + 1  # 1 in the coefficient field
            return Poly.const(unit, self.nvars)
        return result

    # ---- division -----------------------------------------------------

    def div_var(self, i):
        """Exact quotient by the variable x_i; raises if any term lacks it."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                raise ValueError(f"not divisible by x{i}")
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        p = Poly(self.nvars)
        p.terms = out
        return p

    def exact_div(self, g):
        """Exact quotient self/g; raises ValueError when g does not divide."""
        if not isinstance(g, Poly):
            raise TypeError("divisor must be a polynomial")
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        eg, cg = g.lead()
        q = Poly(self.nvars)
        r = self
        while r.terms:
            er, cr = r.lead()
            de = tuple(a - b for a, b in zip(er, eg))
            if any(d < 0 for d in de):
                raise ValueError("not an exact multiple")
            t = Poly(self.nvars)
            t.terms = {de: cr / cg}
            q = q + t
            r = r - t * g
        return q

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
        """Value at a tuple of field elements (one per variable)."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        pows = [[None] for _ in range(self.nvars)]  # pows[i][k] = point[i]**k
        total = None
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                pi = pows[i]
                while len(pi) <= k:
                    pi.append(point[i] if len(pi) == 1 else pi[-1] * point[i])
                v = v * pi[k]
            total = v if total is None else total + v
        if total is None:
            z = point[0] - point[0] if point else 0
            return z
        return total

    def substitute(self, images):
        """Ring map x_i -> images[i]; images are polynomials in a common ring.

        Nonzero images must be homogeneous of one shared degree, so that
        homogeneous inputs stay homogeneous (zero images are fine and just
        kill their variable).
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        degs = {im.degree() for im in images if not im.is_zero()}
        if len(degs) > 1 or any(not im.is_homogeneous() for im in images):
            raise ValueError("images must share one homogeneous degree")
        m = images[0].nvars
        pows = [[None] for _ in range(self.nvars)]
        total = Poly.zero(m)
        for e, c in self.sorted_terms():
            v = Poly.const(c, m)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                pi = pows[i]
                while len(pi) <= k:
                    pi.append(images[i] if len(pi) == 1 else pi[-1] * images[i])
                v = v * pi[k]
            total = total + v
        return total

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
        for t in d["terms"]:
            e = tuple(t["e"])
            if len(e) != nvars:
                raise ValueError("exponent length does not match variable count")
            c = ctx.parse(t["c"])
            if c:
                p.terms[e] = p.terms.get(e, ctx.zero) + c
        deg = p.degree()
        if d.get("degree", deg) != deg:
            raise ValueError(f"declared degree {d['degree']} but terms have degree {deg}")
        return p

    def __repr__(self):
        return f"Poly({self.text()})"
