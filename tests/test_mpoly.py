import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veneroni.mpoly import Poly
from veneroni.scalar import FieldCtx, Fp, Rational

from oracles import div_var, is_homogeneous, lead, poly_to_dict, random_scalar

QQ = FieldCtx.rationals()
FP = FieldCtx.prime((1 << 31) - 1)
P = FP.p
P2 = (1 << 61) - 1


def rand_poly(ctx, rng, nvars=3, maxdeg=3, nterms=6):
    p = Poly.zero(nvars)
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randrange(maxdeg + 1)):
            e[rng.randrange(nvars)] += 1
        p = p + Poly(nvars, {tuple(e): random_scalar(ctx, rng)})
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


@pytest.mark.parametrize("ctx", [QQ, FP])
def test_a_product_with_a_field_scalar_is_a_scaling(ctx):
    rng = random.Random(17)
    a = rand_poly(ctx, rng)
    for c in (ctx.from_int(-3), random_scalar(ctx, rng), 5, 0):
        assert a * c == a.scale(c) == c * a
        assert (a * c).nvars == (c * a).nvars == 3
    assert a * ctx.zero == Poly.zero(3)
    for other in ("2", 2.0, None, [1]):
        assert a.__mul__(other) is NotImplemented
        assert a.__rmul__(other) is NotImplemented
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            other * a


def test_pow_matches_repeated_product():
    rng = random.Random(5)
    a = rand_poly(QQ, rng)
    prod = Poly.const(QQ.one, 3)
    for k in range(5):
        assert a ** k == prod
        prod = prod * a


def test_zero_handling():
    z = Poly.zero(4)
    assert z.is_zero() and z.degree() == -1 and is_homogeneous(z)
    assert not z
    assert z.evaluate([QQ.one] * 4) == 0
    with pytest.raises(ValueError):
        lead(z)


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
    assert div_var(p, 0) == x1 + x0
    with pytest.raises(ValueError):
        div_var(p + Poly.const(QQ.one, 2), 0)


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


def test_substitute_takes_images_of_mixed_degrees():
    x0, x1 = Poly.var(0, 2, QQ.one), Poly.var(1, 2, QQ.one)
    one = Poly.const(QQ.one, 2)
    assert (x0 + x1).substitute([x0, x0 * x0]) == x0 + x0 * x0
    assert (x0 * x1).substitute([x0 + one, x1]) == x0 * x1 + x1
    # zero images kill their variable
    assert (x0 * x1).substitute([x0, Poly.zero(2)]).is_zero()
    assert (x0 + x1).substitute([x1, Poly.zero(2)]) == x1


def test_grevlex_order():
    p = (Poly.var(0, 3, QQ.one) + Poly.var(1, 3, QQ.one) + Poly.var(2, 3, QQ.one)) ** 2
    assert [e for e, _ in p.sorted_terms()] == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    ]
    assert lead(p)[0] == (2, 0, 0)


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
        d = poly_to_dict(p)
        assert d["degree"] == p.degree()
        keys = [tuple(t["e"]) for t in d["terms"]]
        assert keys == [e for e, _ in p.sorted_terms()]
        assert Poly.from_dict(d, 3, ctx) == p
        assert json.loads(json.dumps(p.to_dict())) == d
    with pytest.raises(ValueError):
        Poly.from_dict({"degree": 5, "terms": [{"c": "1", "e": [1, 0, 0]}]}, 3, QQ)


def test_from_dict_rejects_a_duplicate_exponent():
    # a repeated exponent would otherwise add up, here to a stored zero
    d = {"terms": [{"c": "1", "e": [1, 0]}, {"c": "-1", "e": [1, 0]}]}
    with pytest.raises(ValueError, match=r"exponent \[1, 0\] appears in two terms"):
        Poly.from_dict(d, 2, QQ)


@pytest.mark.parametrize("e", [[1.5, 0.5], [2, -1], [True, True]])
def test_from_dict_rejects_an_exponent_off_the_naturals(e):
    # such a term would load, then crash checks that index or sum exponents
    d = {"terms": [{"c": "1", "e": e}]}
    with pytest.raises(ValueError, match="is not a list of naturals"):
        Poly.from_dict(d, 2, QQ)


def test_exact_div_of_int_coefficients_stays_exact():
    q = Poly(1, {(1,): 1}).exact_div(Poly(1, {(1,): 2}))
    assert q.terms == {(0,): Rational(1, 2)}
    assert type(q.terms[(0,)]) is Rational


def test_fp_products_drop_terms_that_cancel_mod_p():
    x, y = Poly.var(0, 2, FP.one), Poly.var(1, 2, FP.one)
    assert ((x + y) * (x - y)).terms == {(2, 0): FP.one, (0, 2): FP.from_int(-1)}


def test_mismatched_primes_raise():
    a = Poly(2, {(1, 0): Fp(3, P), (0, 1): Fp(1, P)})
    b = Poly(2, {(1, 0): Fp(3, P2), (0, 1): Fp(1, P2)})
    with pytest.raises(ValueError, match="different prime fields"):
        a * b
    with pytest.raises(ValueError, match="different prime fields"):
        a.exact_div(b)
    for point in ((Fp(1, P2), Fp(2, P2)), (Fp(1, P), Fp(2, P2))):
        with pytest.raises(ValueError, match="different prime fields"):
            a.evaluate(point)
    with pytest.raises(ValueError, match="different prime fields"):
        a.substitute([b, b])
    mixed = Poly(2, {(1, 0): Fp(3, P), (0, 1): Fp(1, P2)})
    with pytest.raises(ValueError, match="different prime fields"):
        mixed * a


def test_zero_divisor_and_ring_mismatch_raise():
    a = Poly.var(0, 2, QQ.one)
    with pytest.raises(ZeroDivisionError):
        a.exact_div(Poly.zero(2))
    with pytest.raises(ZeroDivisionError):
        Poly.zero(2).exact_div(Poly.zero(2))
    with pytest.raises(ValueError, match="different rings"):
        a * Poly.var(0, 3, QQ.one)
    with pytest.raises(ValueError, match="different rings"):
        a.exact_div(Poly.var(0, 3, QQ.one))


# ---- the field-object loops the integer kernel replaced, kept as oracles ----


def oracle_mul(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    p = Poly(a.nvars)
    p.terms = out
    return p


def oracle_pow(a, k, one):
    out = Poly.const(one, a.nvars)
    for _ in range(k):
        out = oracle_mul(out, a)
    return out


def oracle_exact_div(f, g):
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    eg, cg = lead(g)
    q = Poly(f.nvars)
    r = f
    while r.terms:
        er, cr = lead(r)
        de = tuple(a - b for a, b in zip(er, eg))
        if any(d < 0 for d in de):
            raise ValueError("not an exact multiple")
        t = Poly(f.nvars, {de: cr / cg})
        q = q + t
        r = r - oracle_mul(t, g)
    return q


def oracle_evaluate(p, point):
    pows = [[None] for _ in range(p.nvars)]
    total = None
    for e, c in p.terms.items():
        v = c
        for i, k in enumerate(e):
            if k == 0:
                continue
            pi = pows[i]
            while len(pi) <= k:
                pi.append(point[i] if len(pi) == 1 else pi[-1] * point[i])
            v = v * pi[k]
        total = v if total is None else total + v
    return point[0] - point[0] if total is None else total


def oracle_substitute(p, images):
    m = images[0].nvars
    total = Poly.zero(m)
    for e, c in p.terms.items():
        v = Poly.const(c, m)
        for i, k in enumerate(e):
            for _ in range(k):
                v = oracle_mul(v, images[i])
        total = total + v
    return total


def rationals(make):
    """Rationals with mixed small denominators, built by `make(num, den)`."""
    return st.builds(make, st.integers(-30, 30), st.integers(1, 12))


# Residues that cancel mod p in sums of products: 1 + (p - 1) = p, etc.
RESIDUES = st.sampled_from([1, 2, 3, P - 1, P - 2, (P + 1) // 2]) | st.integers(0, P - 1)
FIELDS = {"qq": rationals(Rational), "fp": RESIDUES.map(lambda r: Fp(r, P))}


@st.composite
def polys(draw, scalars, nvars, degree=None, maxdeg=2, max_terms=5):
    """A polynomial; non-homogeneous unless `degree` is given."""
    if degree is None:
        exps = st.tuples(*[st.integers(0, maxdeg)] * nvars)
    else:
        exps = st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree).map(
            lambda idx: tuple(idx.count(i) for i in range(nvars))
        )
    return Poly(nvars, draw(st.dictionaries(exps, scalars, max_size=max_terms)))


def in_field(x, kind):
    """Every coefficient of a Poly, or a scalar, is of the field's own type."""
    values = x.terms.values() if isinstance(x, Poly) else [x]
    rational = kind == "qq" or kind is Rational
    return all(
        type(c) is Rational if rational else (type(c) is Fp and 0 <= c.r < P)
        for c in values
    )


def check_against_oracles(data, scalars, kind, one):
    """Every integer-kernel operation equals its field-object loop."""
    n = data.draw(st.integers(1, 3), label="nvars")
    a = data.draw(polys(scalars, n), label="a")
    b = data.draw(polys(scalars, n), label="b")
    prod = a * b
    assert prod == oracle_mul(a, b) and in_field(prod, kind)
    k = data.draw(st.integers(0, 3), label="k")
    if a:
        power = a**k
        assert power == oracle_pow(a, k, one) and in_field(power, kind)
    point = data.draw(st.tuples(*[scalars] * n), label="point")
    value = a.evaluate(point)
    assert value == oracle_evaluate(a, point) and in_field(value, kind)
    if b:
        q = prod.exact_div(b)
        assert q == a and in_field(q, kind)
        assert q == oracle_exact_div(prod, b)
        f = data.draw(polys(scalars, n), label="f")
        try:
            expected = oracle_exact_div(f, b)
        except ValueError:
            with pytest.raises(ValueError, match="not an exact multiple"):
                f.exact_div(b)
        else:
            q = f.exact_div(b)
            assert q == expected and in_field(q, kind)
    m = data.draw(st.integers(1, 3), label="m")
    deg = data.draw(st.integers(0, 2), label="image degree")
    images = [data.draw(polys(scalars, m, degree=deg), label="image") for _ in range(n)]
    image = a.substitute(images)
    assert image == oracle_substitute(a, images) and in_field(image, kind)


@pytest.mark.parametrize("kind", ["qq", "fp"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_kernel_matches_field_loops(kind, data):
    one = QQ.one if kind == "qq" else FP.one
    check_against_oracles(data, FIELDS[kind], kind, one)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ints_mixed_into_fp_polynomials_land_in_fp(data):
    ints = st.integers(-3 * P, 3 * P)
    mixed = st.one_of(ints, FIELDS["fp"])
    n = data.draw(st.integers(1, 3), label="nvars")
    a = data.draw(polys(mixed, n), label="a")
    b = data.draw(polys(FIELDS["fp"], n), label="b")
    point = data.draw(st.tuples(*[mixed] * n), label="point")
    fa = Poly(n, {e: FP.convert(c) for e, c in a.terms.items()})
    fpoint = tuple(FP.convert(c) for c in point)
    for prod in (a * b, b * a):
        assert prod == oracle_mul(fa, b) and in_field(prod, "fp")
    for poly, fpoly in ((a, fa), (b, b)):
        value = poly.evaluate(point)
        if any(type(c) is Fp for c in [*poly.terms.values(), *point]):
            assert type(value) is Fp and value == oracle_evaluate(fpoly, fpoint)
        else:  # only ints: the value is the rational one, which maps onto F_p's
            assert type(value) is Rational
            assert FP.convert(value) == (oracle_evaluate(fpoly, fpoint) if fpoly else 0)
    if b:
        q = oracle_mul(fa, b).exact_div(b)
        assert q == fa and in_field(q, "fp")
    if a and any(type(c) is Fp for c in a.terms.values()):
        assert in_field(a**2, "fp")


@pytest.mark.parametrize("kind", ["qq", "fp"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_evaluate_matches_the_field_loop(kind, data):
    ctx = QQ if kind == "qq" else FP
    scalars = FIELDS[kind]
    n = data.draw(st.integers(1, 3), label="nvars")
    degree = data.draw(st.integers(0, 3), label="degree")
    shapes = st.one_of(polys(scalars, n), polys(scalars, n, degree=degree), st.just(Poly.zero(n)))
    batch = data.draw(st.lists(shapes, min_size=1, max_size=4), label="polys")
    mixed = st.one_of(scalars, st.integers(-5, 5))
    points = data.draw(st.lists(st.tuples(*[mixed] * n), min_size=1, max_size=3), label="points")
    for point in points:
        field_point = tuple(ctx.convert(x) for x in point)
        for q in batch:
            value = q.evaluate(point)
            assert ctx.convert(value) == oracle_evaluate(q, field_point)
            # ints alone, in the point and the polynomial, name no field:
            # the value is then rational
            named = kind == "qq" or any(type(c) is Fp for c in [*point, *q.terms.values()])
            assert in_field(value, kind if named else "qq")


def test_evaluate_refuses_a_wrong_point_and_two_primes():
    a = Poly(2, {(1, 0): Fp(3, P), (0, 1): Fp(1, P)})
    assert a.evaluate((Fp(2, P), 5)) == Fp(11, P)
    assert in_field(Poly.zero(2).evaluate((Fp(2, P), 5)), "fp")
    with pytest.raises(ValueError, match="point length"):
        a.evaluate((Fp(1, P),))
    with pytest.raises(ValueError, match="different prime fields"):
        a.evaluate((Fp(1, P2), Fp(2, P2)))
    # int coefficients take the field of the point
    ints = Poly(2, {(1, 1): 2, (0, 0): 1})
    assert ints.evaluate((Fraction(1, 2), 3)) == Rational(4)
    assert ints.evaluate((Fp(2, P), 3)) == Fp(13, P)
    with pytest.raises(ValueError, match="different prime fields"):
        ints.evaluate((Fp(1, P), Fp(1, P2)))


def test_int_coefficients_stay_ints():
    # plain ints name no field, so a polynomial made from int-only operands
    # keeps them and can still meet F_p; a value is rational
    a = Poly(2, {(1, 0): 2, (0, 1): -3})
    x = Poly.var(0, 2, FP.one)
    for out in (a * a, a**0, a**3, (a * a).exact_div(a), a.substitute([a, a])):
        assert out and all(type(c) is int for c in out.terms.values())
        assert in_field(out * x, "fp") and in_field(x * out, "fp")
        assert in_field(out * Poly.var(0, 2, QQ.one), "qq")
    assert (a * a) * x == a * (a * x)
    assert in_field(a.evaluate((1, 2)), "qq")
    assert in_field(a.evaluate((Fraction(1, 2), 2)), "qq")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_kernel_on_gmpy2_rationals(data):
    gmpy2 = pytest.importorskip("gmpy2")
    check_against_oracles(data, rationals(gmpy2.mpq), gmpy2.mpq, gmpy2.mpq(1))


# ---- substitution into images of any degrees, against repeated products -----


def oracle_compose(q, images, nvars_out):
    """Substitution by repeated products, images of any degrees."""
    total = Poly.zero(nvars_out)
    cache = {}
    for e, c in q.terms.items():
        term = Poly.const(c, nvars_out)
        for k, ek in enumerate(e):
            if not ek:
                continue
            if (k, ek) not in cache:
                cache[(k, ek)] = images[k] ** ek
            term = term * cache[(k, ek)]
        total = total + term
    return total


@pytest.mark.parametrize("kind", ["qq", "fp"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_family_loops_match_substitute_and_exact_div(kind, data):
    scalars = FIELDS[kind]
    # substitution into images of mixed degrees, zero images included
    n = data.draw(st.integers(1, 4), label="nvars")
    m = data.draw(st.integers(1, 4), label="image nvars")
    q = data.draw(polys(scalars, n), label="q")
    images = [data.draw(polys(scalars, m, maxdeg=3), label="image") for _ in range(n)]
    image = q.substitute(images)
    assert image == oracle_compose(q, images, m) and in_field(image, kind)
