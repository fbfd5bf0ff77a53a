import copy
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from cgk.algebra import AlgebraSpec
from cgk.scalars import (
    _POLY_ONE,
    NSYM,
    SYMBOLS,
    DivisionByZero,
    ParamPoly,
    Scalar,
    UnsupportedFamily,
    central_constant,
    parse_scalar,
    poly_div_exact,
    poly_gcd,
    render_scalar,
)


def sym(name):
    return Scalar.symbol(name)


def test_arith_examples():
    delta, mu = sym("delta"), sym("mu")
    assert delta - delta == Scalar.zero()
    assert (mu / delta) * delta == mu
    two_d1 = 2 * delta + 1
    assert (two_d1 / mu) / two_d1 == 1 / mu


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        sym("delta") / Scalar.zero()
    with pytest.raises(DivisionByZero):
        Scalar(ParamPoly.const(1), ParamPoly.zero())


def test_canonical_form():
    delta, mu = sym("delta"), sym("mu")
    s = (2 * delta * mu + mu) / (mu * mu)
    # gcd cancellation and a monic denominator
    assert s == (2 * delta + 1) / mu
    assert render_scalar(s) == "(2*delta+1)/mu"
    t = (3 * delta) / (6 * mu)
    assert render_scalar(t) == "1/2*delta/mu"
    assert t * mu * 2 == delta


def test_zero_and_eq_coercion():
    assert Scalar.const(Fraction(3, 4)) == Fraction(3, 4)
    assert sym("delta") - sym("delta") == 0
    assert not (sym("delta") == sym("mu"))
    assert bool(sym("theta"))
    assert not bool(Scalar.zero())


def test_poly_gcd_basics():
    delta = ParamPoly.symbol("delta")
    mu = ParamPoly.symbol("mu")
    a = (delta + 1) * (delta + 1) * mu
    b = (delta + 1) * mu * mu
    g = poly_gcd(a, b)
    assert g == (delta + 1) * mu
    assert poly_div_exact(a, g) == delta + 1
    assert poly_div_exact(b, g) == mu
    assert poly_div_exact(delta + 1, mu) is None


def test_poly_gcd_multivariate():
    delta = ParamPoly.symbol("delta")
    theta = ParamPoly.symbol("theta")
    kappa = ParamPoly.symbol("kappa")
    common = delta * theta + kappa + 2
    a = common * (delta - kappa)
    b = common * (theta ** 2 + 1)
    assert poly_gcd(a, b) == common


def _random_scalar(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        choice = rng.random()
        if choice < 0.5:
            return Scalar.const(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        return Scalar.symbol(rng.choice(("delta", "mu", "r", "theta", "kappa")))
    a = _random_scalar(rng, depth - 1)
    b = _random_scalar(rng, depth - 1)
    op = rng.choice((operator.add, operator.sub, operator.mul, operator.mul,
                     operator.truediv))
    if op is operator.truediv and b.is_zero():
        op = operator.add
    return op(a, b)


def test_field_axioms_random():
    rng = random.Random(20260822)
    for _ in range(1000):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a / a == Scalar.one()


def test_canonicalization_idempotent_random():
    rng = random.Random(7)
    for _ in range(200):
        s = _random_scalar(rng, depth=3)
        again = Scalar(s.num, s.den)
        assert again.num == s.num and again.den == s.den


def test_central_constant_pinned():
    assert central_constant(AlgebraSpec(1, 1, "mass"), 0) == -1
    assert central_constant(AlgebraSpec(2, 2, "exotic"), 1) == -1
    # (-1)^(3+2) 0! 3! from the mass formula at twoEll=3, m=3
    assert central_constant(AlgebraSpec(2, 3, "mass"), 3) == -6


def test_central_constant_antisymmetry():
    for two_ell in (1, 3, 5):
        spec = AlgebraSpec(1, two_ell, "mass")
        for m in range(two_ell + 1):
            assert central_constant(spec, two_ell - m) == -central_constant(spec, m)
    for two_ell in (2, 4, 6):
        spec = AlgebraSpec(2, two_ell, "exotic")
        for m in range(two_ell + 1):
            assert central_constant(spec, two_ell - m) == central_constant(spec, m)


def test_central_constant_domain():
    with pytest.raises(UnsupportedFamily):
        central_constant(AlgebraSpec(1, 2, "none"), 0)
    with pytest.raises(ValueError):
        central_constant(AlgebraSpec(1, 1, "mass"), 2)


def test_parse_render_round_trip():
    cases = [
        "0",
        "1",
        "-1/2",
        "(2*delta+1)/mu",
        "delta^2-2*delta+1",
        "1/mu",
        "theta*kappa/(delta+1)",
    ]
    for text in cases:
        value = parse_scalar(text)
        assert parse_scalar(render_scalar(value)) == value


def test_parse_rejects_garbage():
    for text in ("delta +", "(mu", "2 ** delta", "foo", "delta^mu"):
        with pytest.raises(ValueError):
            parse_scalar(text)
    with pytest.raises(ValueError, match="bad character"):
        parse_scalar("delta $")
    with pytest.raises(ValueError, match="trailing input"):
        parse_scalar("delta mu")
    # trailing blanks are no input
    assert parse_scalar("delta ") == sym("delta")


def test_random_render_round_trip():
    rng = random.Random(99)
    for _ in range(150):
        s = _random_scalar(rng, depth=3)
        assert parse_scalar(render_scalar(s)) == s


def test_parameter_free_denominator_is_shared():
    delta, mu = sym("delta"), sym("mu")
    for s in (Scalar.zero(), Scalar.one(), Scalar.const(Fraction(-3, 4)), delta,
              Scalar(2 * delta.num, ParamPoly.const(4)),
              ((delta + 1) * mu) / (delta + 1), delta / delta - 1):
        assert s.den is _POLY_ONE, s
    rng = random.Random(11)
    for _ in range(200):
        s = _random_scalar(rng, depth=3)
        assert s.den is _POLY_ONE or not s.den.is_const(), s


def test_fast_path_matches_constructor_random():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    expos = st.tuples(*[st.integers(0, 2)] * 5)
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    polys = st.dictionaries(expos, fracs, max_size=4).map(ParamPoly)
    scalars = polys.map(Scalar)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(scalars, scalars, st.integers(-4, 4))
    def check(a, b, k):
        # the oracle: the normalising constructor over a fresh constant
        # denominator (not the shared object, and not always 1)
        three = ParamPoly.const(3)
        cases = [
            (a + b, Scalar((a.num + b.num) * 3, three)),
            (a - b, Scalar((a.num - b.num) * 3, three)),
            (a * b, Scalar(a.num * b.num * 3, three)),
            (a * k, Scalar(a.num * (3 * k), three)),
            (k * a, Scalar(a.num * k, ParamPoly.const(1))),
        ]
        for got, want in cases:
            assert got.num == want.num and got.den == want.den
            assert got.den is _POLY_ONE and want.den is _POLY_ONE

    check()


def test_copies_keep_the_shared_denominator():
    for s in (Scalar.const(Fraction(5, 3)), 2 * sym("delta") + 1,
              sym("mu") / (sym("delta") + 1)):
        for again in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert again == s and render_scalar(again) == render_scalar(s)
            assert (again.den is _POLY_ONE) == (s.den is _POLY_ONE)


def _canonical(poly):
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in poly.terms.values())


def test_coefficients_stay_canonical_against_sympy():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    names = sympy.symbols(" ".join(SYMBOLS))

    def to_sympy(poly):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[s ** e for s, e in zip(names, expo)])
                    for expo, c in poly.terms.items()), sympy.Integer(0))

    expos = st.tuples(*[st.integers(0, 2)] * NSYM)
    coefs = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    polys = st.dictionaries(expos, coefs, max_size=3).map(ParamPoly)

    @hyp.settings(max_examples=120, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(polys, polys, coefs)
    def check(a, b, k):
        A, B = to_sympy(a), to_sympy(b)
        assert _canonical(a) and _canonical(b)
        for got, want in ((a + b, A + B), (a - b, A - B), (a * b, A * B),
                          (a * k, A * sympy.Rational(k.numerator, k.denominator))):
            assert _canonical(got)
            assert sympy.expand(to_sympy(got) - want) == 0
        if b.is_zero():
            return
        quot = poly_div_exact(a * b, b)
        assert _canonical(quot) and quot == a
        g = poly_gcd(a, b)
        assert _canonical(g)
        ratio = sympy.cancel(to_sympy(g) / sympy.gcd(A, B))
        assert ratio.is_number and ratio != 0
        for s in (Scalar(a) / Scalar(b), Scalar(a, b), Scalar(a * b, b * 2)):
            assert _canonical(s.num) and _canonical(s.den)
        assert Scalar(a) / Scalar(b) == Scalar(a, b)
        assert sympy.cancel(to_sympy(Scalar(a, b).num) / to_sympy(Scalar(a, b).den)
                            - A / B) == 0

    check()


# The pair on which the pseudo-remainder sequence used to run for minutes:
# its remainders were never made primitive over the integers.
_BLOWUP_A = (
    "3*r^4+27/4*mu*r^3+27/4*delta*r^3-9/4*mu^2*r^2-1/2*delta*mu*r^2"
    "-1/2*delta^2*r^2-27/2*mu^3*r-99/4*delta*mu^2*r-63/4*delta^2*mu*r"
    "-9/2*delta^3*r-15/2*mu^4-61/4*delta*mu^3-13*delta^2*mu^2-11/2*delta^3*mu"
    "-delta^4+3/2*r^3-3/2*mu*r^2+31/4*delta*r^2-3*mu^2*r+13/2*delta*mu*r"
    "+8*delta^2*r+3*mu^3+3/4*delta^2*mu-1/2*delta^3+3/2*r^2-27/4*mu*r"
    "-19/4*delta*r-51/4*mu^2-14*delta*mu+1/2*delta^2-3/2*r+3/2*mu+9/4*delta-9/2"
)
_BLOWUP_B = (
    "mu*r^2+1/2*delta*r^2+7/4*mu^2*r+3*delta*mu*r+delta^2*r-1/2*mu^3"
    "-1/2*delta*mu^2-1/2*r^2-mu*r-delta*r+9/4*mu^2+3*delta*mu+delta^2+r"
    "+1/2*delta-1/2"
)


def test_poly_gcd_remainders_stay_small():
    a, b = parse_scalar(_BLOWUP_A).num, parse_scalar(_BLOWUP_B).num
    start = time.perf_counter()
    g = poly_gcd(a, b)
    elapsed = time.perf_counter() - start
    assert g == ParamPoly.const(1)
    assert elapsed < 1.0, "poly_gcd took %.2f s" % elapsed
    # a common factor is still found through the same sequence
    c = parse_scalar("delta*mu-r+2").num
    assert poly_gcd(a * c, b * c) == c


def test_poly_gcd_against_sympy_dense_trivariate():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    names = sympy.symbols("delta mu r")
    slots = [SYMBOLS.index(str(n)) for n in names]

    def dense(degree):
        # every monomial of total degree <= degree in delta, mu, r
        expos = [
            tuple(dict(zip(slots, (i, j, k))).get(s, 0) for s in range(NSYM))
            for i in range(degree + 1) for j in range(degree + 1 - i)
            for k in range(degree + 1 - i - j)
        ]
        coefs = st.one_of(st.integers(-4, 4),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4))
        return st.tuples(*[coefs] * len(expos)).map(
            lambda cs: ParamPoly(dict(zip(expos, cs))))

    def to_sympy(poly):
        return sympy.Poly(sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*[n ** expo[s] for n, s in zip(names, slots)])
             for expo, c in poly.terms.items()), sympy.Integer(0)), *names)

    # a common factor of degree <= 2 times cofactors of degree <= 2
    @hyp.settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(dense(2), dense(2), dense(2))
    def check(f, g, h):
        a, b = f * g, f * h
        hyp.assume(not a.is_zero() and not b.is_zero())
        got = poly_gcd(a, b)
        want = sympy.gcd(to_sympy(a), to_sympy(b))
        assert to_sympy(got).monic() == want.monic()
        assert poly_div_exact(a, got) is not None
        assert poly_div_exact(b, got) is not None

    check()


# The former division, kept as an oracle: it found each leading term by a
# max over the remainder and rebuilt the remainder on every step.  The gcd
# oracle is sympy's.

def _reference_div_exact(a, b):
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return ParamPoly.zero()
    eb, cb = b.leading()
    quot = {}
    rem = a
    while rem:
        ea, ca = rem.leading()
        expo = tuple(x - y for x, y in zip(ea, eb))
        if min(expo) < 0:
            return None
        coef = Fraction(ca) / cb
        quot[expo] = coef
        rem = rem - ParamPoly({expo: coef}) * b
    return ParamPoly(quot)


def _reference_gcd(sympy, a, b):
    """sympy's gcd of a and b, made monic under grlex like poly_gcd."""
    names = sympy.symbols(" ".join(SYMBOLS))

    def to_sympy(poly):
        return sympy.Poly({expo: sympy.Rational(c.numerator, c.denominator)
                           for expo, c in poly.terms.items()}, *names)

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    g = ParamPoly({expo: Fraction(int(c.p), int(c.q))
                   for expo, c in g.as_dict().items()})
    return g * Fraction(1, g.leading()[1])


def _same(p, q):
    """Equal terms, and equal coefficient types term by term."""
    return p.terms == q.terms and all(
        type(c) is type(q.terms[e]) for e, c in p.terms.items())


def test_division_is_exact_or_none_examples():
    delta, mu = ParamPoly.symbol("delta"), ParamPoly.symbol("mu")
    one = ParamPoly.const(1)
    # the leading term divides at every step, the remainder never vanishes
    assert poly_div_exact(delta * delta + one, delta + one * 2) is None
    assert poly_div_exact(delta * mu + one, delta) is None
    assert poly_div_exact(ParamPoly.zero(), delta + one) == ParamPoly.zero()
    assert poly_div_exact(delta * mu * 6, mu * 4) == delta * Fraction(3, 2)
    long = sum((delta ** k * mu ** (5 - k) for k in range(6)), ParamPoly.zero())
    assert poly_div_exact(long * (delta - mu), delta - mu) == long
    with pytest.raises(DivisionByZero):
        poly_div_exact(delta, ParamPoly.zero())


def test_gcd_splits_monomial_content_examples():
    delta, mu, r = (ParamPoly.symbol(n) for n in ("delta", "mu", "r"))
    one = ParamPoly.const(1)
    a = (delta * delta * 8 - delta * 12 + one * 4) * mu * -1
    assert poly_gcd(a, mu * mu * 6) == mu
    assert poly_gcd(delta ** 3 * mu, delta * mu ** 2 * r) == delta * mu
    f = delta * r + mu + one
    assert poly_gcd(f * delta ** 2 * mu, f * delta * r * 3) == f * delta
    assert poly_gcd(delta * 2 + one, delta * mu) == one
    assert poly_gcd(ParamPoly.const(4), ParamPoly.const(6)) == one


def _monomials(st):
    return st.tuples(*[st.integers(0, 3)] * NSYM).map(
        lambda e: ParamPoly({e: 1}))


def test_gcd_and_division_match_reference():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    expos = st.tuples(*[st.integers(0, 2)] * 3 + [st.just(0)] * (NSYM - 3))
    coefs = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=3))
    polys = st.dictionaries(expos, coefs, min_size=1, max_size=3).map(ParamPoly)

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(polys, polys, polys, _monomials(st), _monomials(st))
    def check(f, g, h, m1, m2):
        hyp.assume(f and g and h)
        a, b = f * g * m1, f * h * m2
        got = poly_gcd(a, b)
        assert _same(got, _reference_gcd(sympy, a, b))
        for num, den in ((a, got), (b, got), (a, b), (b, a), (a * b, a),
                         (a + m1, b), (a * m2, m1), (m1, a)):
            quot, want = poly_div_exact(num, den), _reference_div_exact(num, den)
            if want is None:
                assert quot is None
            else:
                assert _same(quot, want) and quot * den == num

    check()


def test_inexact_division_is_none():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    expos = st.tuples(*[st.integers(0, 2)] * 3 + [st.just(0)] * (NSYM - 3))
    coefs = st.integers(-4, 4).filter(bool)
    polys = st.dictionaries(expos, coefs, min_size=1, max_size=4).map(ParamPoly)

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(polys, polys, polys, _monomials(st))
    def check(den, quot, rest, m):
        # num = den*quot + rest with rest of lower total degree than den:
        # den's leading term divides num's, yet den does not divide num
        den = den * m
        hyp.assume(den.total_degree() > 0)
        rest = ParamPoly({e: c for e, c in rest.terms.items()
                          if sum(e) < den.total_degree()})
        hyp.assume(rest)
        num = den * quot + rest
        assert poly_div_exact(num, den) is None
        assert _reference_div_exact(num, den) is None
        assert _same(poly_div_exact(den * quot, den), quot)

    check()
