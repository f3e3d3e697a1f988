import random

import pytest

from veneroni.scalar import MIN_PRIME, FieldCtx, Fp, Rational, is_prime, seeded_rng

from oracles import random_scalar

P = (1 << 31) - 1  # Mersenne prime just above the 2^30 floor


def test_is_prime_small_and_known():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919, P, (1 << 61) - 1]
    comps = [0, 1, 4, 9, 91, 561, 1 << 31, P + 2, 7919 * 7907]
    for n in primes:
        assert is_prime(n), n
    for n in comps:
        assert not is_prime(n), n


def test_field_ctx_validation():
    with pytest.raises(ValueError):
        FieldCtx("fp", p=1000003)  # below the 2^30 floor
    with pytest.raises(ValueError):
        FieldCtx("fp", p=MIN_PRIME + 1)  # even, not prime
    with pytest.raises(ValueError):
        FieldCtx("qq", p=7)
    with pytest.raises(ValueError):
        FieldCtx("zz")
    assert FieldCtx.prime(P).p == P
    assert FieldCtx.from_description({"kind": "fp", "p": P}) == FieldCtx.prime(P)
    assert FieldCtx.from_description({"kind": "qq"}) == FieldCtx.rationals()


@pytest.mark.parametrize("ctx", [FieldCtx.rationals(), FieldCtx.prime(P)])
def test_field_laws_random(ctx):
    rng = random.Random(20240811)
    for _ in range(200):
        a = ctx.random_nonzero(rng)
        b = ctx.random_nonzero(rng)
        c = random_scalar(ctx, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * ctx.inv(a) == ctx.one
        assert a + (-a) == ctx.zero
        assert a - b == a + (-b)


def test_fp_arithmetic_examples():
    x = Fp(5, P)
    assert x + (P - 5) == 0
    assert x * x == 25
    assert (x / Fp(3, P)) * 3 == 5
    assert x ** (P - 1) == 1  # Fermat
    assert 2 - x == Fp(-3, P)
    assert 1 / x * 5 == 1
    with pytest.raises(ZeroDivisionError):
        Fp(0, P).inv()
    with pytest.raises(ValueError):
        Fp(1, P) + Fp(1, (1 << 61) - 1)


def test_fp_sqrt():
    ctx = FieldCtx.prime(P)
    rng = random.Random(5)
    hits = 0
    for _ in range(60):
        a = ctx.random_nonzero(rng)
        s = (a * a).sqrt()
        assert s is not None and s * s == a * a
        if a.sqrt() is not None:
            hits += 1
    assert 10 < hits < 50  # residues are about half of all draws
    # p = 3 mod 4 path
    q = 2305843009213693951  # 2^61 - 1, also 3 mod 4
    assert (Fp(4, q)).sqrt() == Fp(2, q)


def test_rational_parse_format_roundtrip():
    ctx = FieldCtx.rationals()
    cases = ["0", "7", "-7", "3/2", "-3/2", "22/7"]
    for s in cases:
        assert str(ctx.parse(s)) == s
    assert ctx.parse("-4/8") == Rational(-1, 2)
    assert str(ctx.parse("6/3")) == "2"  # lowest terms drop the /1
    with pytest.raises(ZeroDivisionError):
        ctx.parse("1/0")


def test_convert_rational_into_fp():
    ctx = FieldCtx.prime(P)
    x = ctx.convert(Rational(3, 2))
    assert x * 2 == 3
    with pytest.raises(ZeroDivisionError):
        ctx.convert(Rational(1, P))
    with pytest.raises(ValueError):
        FieldCtx.rationals().convert(Fp(1, P))


def test_random_nonzero_range_and_coverage():
    ctx = FieldCtx.rationals()
    rng = random.Random(0)
    seen = set()
    for _ in range(500):
        v = ctx.random_nonzero(rng, bound=3)
        assert v != 0 and -3 <= v <= 3
        seen.add(int(v))
    assert seen == {-3, -2, -1, 1, 2, 3}


def test_seeded_rng_deterministic_and_scoped():
    a = [seeded_rng(42, "flats").random() for _ in range(4)]
    b = [seeded_rng(42, "flats").random() for _ in range(4)]
    c = [seeded_rng(42, "points").random() for _ in range(4)]
    assert a == b
    assert a != c
