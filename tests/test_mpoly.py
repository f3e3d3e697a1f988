import random

import pytest

from veneroni.mpoly import Poly
from veneroni.scalar import FieldCtx, Rational

QQ = FieldCtx.rationals()
FP = FieldCtx.prime((1 << 31) - 1)


def rand_poly(ctx, rng, nvars=3, maxdeg=3, nterms=6):
    p = Poly.zero(nvars)
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randrange(maxdeg + 1)):
            e[rng.randrange(nvars)] += 1
        p = p + Poly(nvars, {tuple(e): ctx.random(rng)})
    return p


def rand_homogeneous(ctx, rng, nvars=3, deg=3, nterms=6):
    p = Poly.zero(nvars)
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(deg):
            e[rng.randrange(nvars)] += 1
        p = p + Poly(nvars, {tuple(e): ctx.random_nonzero(rng)})
    return p


@pytest.mark.parametrize("ctx", [QQ, FP])
def test_ring_laws(ctx):
    rng = random.Random(101)
    for _ in range(40):
        a = rand_poly(ctx, rng)
        b = rand_poly(ctx, rng)
        c = rand_poly(ctx, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly.zero(3)
        assert a * Poly.const(ctx.one, 3) == a


def test_pow_matches_repeated_product():
    rng = random.Random(5)
    a = rand_poly(QQ, rng)
    prod = Poly.const(QQ.one, 3)
    for k in range(5):
        assert a ** k == prod
        prod = prod * a


def test_zero_handling():
    z = Poly.zero(4)
    assert z.is_zero() and z.degree() == -1 and z.is_homogeneous()
    assert not z
    assert z.evaluate([QQ.one] * 4) == 0
    with pytest.raises(ValueError):
        z.lead()


def test_euler_identity_on_homogeneous_polys():
    # sum_i x_i * dp/dx_i == deg(p) * p for homogeneous p
    rng = random.Random(77)
    for deg in (1, 2, 3, 4):
        p = rand_homogeneous(QQ, rng, nvars=4, deg=deg)
        acc = Poly.zero(4)
        for i in range(4):
            acc = acc + Poly.var(i, 4, QQ.one) * p.partial(i)
        assert acc == p.scale(QQ.from_int(deg))


def test_div_var():
    x0, x1 = Poly.var(0, 2, QQ.one), Poly.var(1, 2, QQ.one)
    p = x0 * x1 + x0 * x0
    assert p.div_var(0) == x1 + x0
    with pytest.raises(ValueError):
        (p + Poly.const(QQ.one, 2)).div_var(0)


@pytest.mark.parametrize("ctx", [QQ, FP])
def test_exact_div_roundtrip(ctx):
    rng = random.Random(13)
    for _ in range(25):
        a = rand_poly(ctx, rng) + Poly.const(ctx.one, 3)
        b = rand_poly(ctx, rng) + Poly.var(0, 3, ctx.one)
        assert (a * b).exact_div(b) == a
    with pytest.raises(ValueError):
        x0, x1 = Poly.var(0, 2, ctx.one), Poly.var(1, 2, ctx.one)
        (x0 * x0 + x1).exact_div(x0 + x1)


def test_evaluate_agrees_with_substitute_constants():
    rng = random.Random(3)
    p = rand_poly(QQ, rng, nvars=3)
    pt = [QQ.from_int(2), Rational(-1, 3), QQ.from_int(5)]
    consts = [Poly.const(v, 1) for v in pt]
    assert Poly.const(p.evaluate(pt), 1) == p.substitute(consts)


def test_substitute_is_a_ring_map():
    rng = random.Random(9)
    imgs = [rand_homogeneous(QQ, rng, nvars=2, deg=2) for _ in range(3)]
    a = rand_poly(QQ, rng)
    b = rand_poly(QQ, rng)
    assert (a * b).substitute(imgs) == a.substitute(imgs) * b.substitute(imgs)
    assert (a + b).substitute(imgs) == a.substitute(imgs) + b.substitute(imgs)


def test_substitute_rejects_mixed_degrees():
    x0, x1 = Poly.var(0, 2, QQ.one), Poly.var(1, 2, QQ.one)
    with pytest.raises(ValueError):
        (x0 + x1).substitute([x0, x0 * x0])
    with pytest.raises(ValueError):
        (x0 + x1).substitute([x0 + Poly.const(QQ.one, 2), x1])
    # zero images are allowed and kill the variable
    assert (x0 * x1).substitute([x0, Poly.zero(2)]).is_zero()
    assert (x0 + x1).substitute([x1, Poly.zero(2)]) == x1


def test_grevlex_order():
    p = (Poly.var(0, 3, QQ.one) + Poly.var(1, 3, QQ.one) + Poly.var(2, 3, QQ.one)) ** 2
    assert [e for e, _ in p.sorted_terms()] == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    ]
    assert p.lead()[0] == (2, 0, 0)


def test_text_formatting():
    x0, x1 = Poly.var(0, 2, QQ.one), Poly.var(1, 2, QQ.one)
    p = x0 * x0 - x1.scale(Rational(1, 2)) + Poly.const(QQ.from_int(-3), 2)
    assert p.text() == "x0^2 - 1/2*x1 - 3"
    assert Poly.zero(2).text() == "0"
    assert (-x0).text() == "-x0"
    assert p.text(names=["u", "v"]) == "u^2 - 1/2*v - 3"


def test_json_roundtrip_and_canonical_order():
    rng = random.Random(21)
    for ctx in (QQ, FP):
        p = rand_poly(ctx, rng)
        d = p.to_dict()
        assert d["degree"] == p.degree()
        keys = [tuple(t["e"]) for t in d["terms"]]
        assert keys == [e for e, _ in p.sorted_terms()]
        assert Poly.from_dict(d, 3, ctx) == p
    with pytest.raises(ValueError):
        Poly.from_dict({"degree": 5, "terms": [{"c": "1", "e": [1, 0, 0]}]}, 3, QQ)
