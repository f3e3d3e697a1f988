"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Every computation in this package happens over one shared field context,
either the rationals (the default, exact characteristic 0) or a prime field
F_p used as a fast randomized sampling backend.  Rational elements are
`gmpy2.mpq` when gmpy2 is importable and `fractions.Fraction` otherwise;
both keep lowest terms and a positive denominator, and both print as
"num/den" with the denominator omitted when it is 1.  Prime-field elements
are `Fp` instances reduced to [0, p).
"""

import random

try:
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover - gmpy2 is an optional accelerator
    from fractions import Fraction as _rat

Rational = _rat

# Deterministic Miller-Rabin witnesses, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.317e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test only deterministic below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of F_p, stored as a residue in [0, p)."""

    __slots__ = ("r", "p")

    def __init__(self, r, p):
        self.r = r % p
        self.p = p

    @classmethod
    def _from_residue(cls, r, p):
        """The element with residue r, which must already lie in [0, p)."""
        x = object.__new__(cls)
        x.r = r
        x.p = p
        return x

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("elements of different prime fields")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(self.r + o.r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(self.r - o.r, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(o.r - self.r, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(self.r * o.r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else self * o.inv()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o * self.inv()

    def __neg__(self):
        return Fp(-self.r, self.p)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return Fp(pow(self.r, k, self.p), self.p)

    def inv(self):
        if self.r == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return Fp._from_residue(pow(self.r, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __bool__(self):
        return self.r != 0

    def __str__(self):
        return str(self.r)

    def __repr__(self):
        return f"Fp({self.r}, {self.p})"

    def sqrt(self):
        """A square root in F_p, or None if self is a non-residue."""
        if self.r == 0:
            return Fp(0, self.p)
        if pow(self.r, (self.p - 1) // 2, self.p) != 1:
            return None
        p = self.p
        if p % 4 == 3:
            r = pow(self.r, (p + 1) // 4, p)
        else:
            r = _tonelli(self.r, p)
        return Fp(min(r, p - r), p)


def _tonelli(a, p):
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t, m = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p), s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r, c, t, m = r * b % p, b * b % p, t * b * b % p, i
    return r


MIN_PRIME = 1 << 30


class FieldCtx:
    """Shared field context: either the rationals or F_p for a prime p > 2^30.

    All scalars taking part in one computation must come from one context.
    The prime bound keeps accidental vanishing of random samples negligible.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind="qq", p=None):
        if kind == "qq":
            if p is not None:
                raise ValueError("rationals take no modulus")
        elif kind == "fp":
            if p is None or p <= MIN_PRIME:
                raise ValueError(f"prime modulus must exceed 2^30, got {p}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls):
        return cls("qq")

    @classmethod
    def prime(cls, p):
        return cls("fp", p)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "FieldCtx.rationals()" if self.kind == "qq" else f"FieldCtx.prime({self.p})"

    def describe(self) -> dict:
        """JSON header fragment naming the field."""
        if self.kind == "qq":
            return {"kind": "qq"}
        return {"kind": "fp", "p": self.p}

    @classmethod
    def from_description(cls, d: dict) -> "FieldCtx":
        return cls(d["kind"], d.get("p"))

    @property
    def zero(self):
        return Rational(0) if self.kind == "qq" else Fp(0, self.p)

    @property
    def one(self):
        return Rational(1) if self.kind == "qq" else Fp(1, self.p)

    def from_int(self, k: int):
        return Rational(k) if self.kind == "qq" else Fp(k, self.p)

    def convert(self, a):
        """Map an int, rational, or Fp value into this field.

        Rationals map into F_p by num * den^-1; a denominator divisible
        by p is rejected rather than silently wrapped.
        """
        if isinstance(a, int):
            return self.from_int(a)
        if isinstance(a, Fp):
            if self.kind == "fp" and a.p == self.p:
                return a
            raise ValueError("cannot convert a prime-field element across fields")
        if self.kind == "qq":
            return Rational(a)
        num, den = a.numerator, a.denominator
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes mod {self.p}")
        return Fp(num, self.p) * Fp(den, self.p).inv()

    def inv(self, a):
        """Multiplicative inverse; rejects zero."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "qq":
            return 1 / Rational(a)
        return a.inv()

    def parse(self, text: str):
        """Parse "num/den" (rationals) or a decimal residue (prime field)."""
        text = text.strip()
        if self.kind == "fp":
            return Fp(int(text), self.p)
        if "/" in text:
            num, den = text.split("/", 1)
            d = int(den)
            if d == 0:
                raise ZeroDivisionError(f"zero denominator in {text!r}")
            return Rational(int(num), d)
        return Rational(int(text))

    def random_nonzero(self, rng: random.Random, bound: int = 9):
        """Uniform nonzero draw: an integer in [-bound, bound] without 0,
        or a nonzero residue.  Deterministic given the rng state."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if self.kind == "fp":
            return Fp(rng.randrange(1, self.p), self.p)
        k = rng.randrange(2 * bound)  # 0..2b-1 -> [-b..-1] + [1..b]
        v = k - bound
        return Rational(v if v < 0 else v + 1)


def seeded_rng(seed, *scope) -> random.Random:
    """A Random stream bound to (seed, scope...).

    Scope labels separate independent uses of one user-facing seed so that
    adding a draw in one place never shifts the stream of another.  String
    seeding hashes with SHA-512 internally, so this is stable across runs.
    """
    tag = ":".join([str(seed), *map(str, scope)])
    return random.Random(tag)
