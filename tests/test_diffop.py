import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from cgk.algebra import AlgebraSpec, Gen, enumerate_generators, supported_specs
from cgk.diffop import (
    CoefPoly,
    DiffOp,
    Var,
    VariableMismatch,
    _flat,
    _leibniz_table,
    commutator,
    compose,
    latex_diffop,
    make_chart,
    op_power,
    parse_diffop,
    render_diffop,
)
from cgk.invariants import invariant_operator
from cgk.reps import bracket_failures, left_action
from cgk.scalars import _POLY_ONE, DivisionByZero, Scalar, parse_scalar
from cgk.singular import weight_shift
from cgk.verma import resolve_params

TX = make_chart("t", "x0")
MU = Scalar.symbol("mu")
DELTA = Scalar.symbol("delta")


def heat():
    return parse_diffop("2*mu*d/dt + (d/dx0)^2", TX)


def test_var_ordering_and_chart():
    assert make_chart("x1", "t", "x0", "y0") == (
        Var("t"),
        Var("x", 0),
        Var("x", 1),
        Var("y", 0),
    )
    with pytest.raises(ValueError):
        make_chart("t", "t")
    with pytest.raises(ValueError):
        Var.parse("z3")


def test_var_is_a_tuple_with_the_dataclass_face():
    # the faces that charts, the renderers and the %r error messages rely on
    x3, t = Var("x", 3), Var("t")
    assert (x3.kind, x3.n) == ("x", 3) and (t.kind, t.n) == ("t", -1)
    assert Var("t", 5).n == -1 and Var("t", 5) == t
    assert Var(kind="y", n=1) == Var("y", 1)
    assert sorted([Var("y", 0), Var("x", 2), t, Var("x", 0), Var("x", 10)]) == [
        t, Var("x", 0), Var("x", 2), Var("x", 10), Var("y", 0)]
    assert str(x3) == "x3" and str(t) == "t"
    assert repr(x3) == "Var(kind='x', n=3)" and repr(t) == "Var(kind='t', n=-1)"
    assert hash(x3) == hash(("x", 3))
    assert "d/d%s" % (x3,) == "d/dx3"
    for bad, message in [(("z",), "unknown variable kind 'z'"),
                         (("x",), "indexed variable needs a nonnegative index"),
                         (("y", -2), "indexed variable needs a nonnegative index")]:
        with pytest.raises(ValueError, match="^%s$" % message):
            Var(*bad)
    for obj in (x3, t):
        copies = [copy.deepcopy(obj), copy.copy(obj)]
        copies += [pickle.loads(pickle.dumps(obj, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert twin == obj and type(twin) is Var, (obj, twin)
    with pytest.raises(AttributeError):
        x3.n = 4
    assert Var._fields == ("kind", "n")
    match x3:
        case Var(kind, n):
            assert (kind, n) == ("x", 3)
        case _:
            pytest.fail("Var does not destructure by position")


def test_leibniz_base_case():
    dx = DiffOp.partial(TX, "x0")
    x = DiffOp.of_poly(CoefPoly.var(TX, Var("x", 0)))
    got = compose(dx, x)
    want = compose(x, dx) + DiffOp.const(TX, 1)
    assert got == want
    assert commutator(dx, x) == DiffOp.const(TX, 1)


def test_heat_square_expansion():
    a = heat()
    got = compose(a, a)
    want = parse_diffop(
        "4*mu^2*(d/dt)^2 + 4*mu*d/dt*(d/dx0)^2 + (d/dx0)^4", TX
    )
    assert got == want
    assert op_power(a, 2) == want
    assert op_power(a, 0) == DiffOp.const(TX, 1)
    with pytest.raises(ValueError, match="negative operator power"):
        op_power(a, -1)


def test_op_power_starts_from_the_operator():
    # op_power(a, q) for q >= 1 starts from a, not from the identity: the
    # same operator as q products from DiffOp.const(chart, 1)
    x = DiffOp.of_poly(CoefPoly.var(TX, Var("x", 0)))
    for a in (heat(), heat() + compose(x, DiffOp.partial(TX, "t")).scaled(MU)):
        assert op_power(a, 1) == a
        want = DiffOp.const(TX, 1)
        for q in (1, 2, 3):
            want = compose(want, a)
            assert op_power(a, q) == want, q


def test_constant_coefficient_operators_commute():
    a = heat()
    b = parse_diffop("-d/dt", TX)
    assert commutator(a, b).is_zero()


def test_onshell_seed_case():
    # [2*mu*dt + dx^2, delta - 2t*dt - x*dx] = -2 * (2*mu*dt + dx^2)
    a = heat()
    d = parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    assert commutator(a, d) == a.scaled(-2)


def _apply(a, p):
    """a applied to the polynomial p: the order-zero coefficient of a o p."""
    zero = (0,) * len(a.chart)
    return compose(a, DiffOp.of_poly(p)).terms.get(zero, CoefPoly.zero(a.chart))


def test_apply():
    dx = DiffOp.partial(TX, "x0")
    x2 = parse_diffop("x0^2", TX).terms[(0, 0)]
    assert _apply(dx, x2) == parse_diffop("2*x0", TX).terms[(0, 0)]
    # degree-2 kernel element of the heat operator: x0^2 - t/mu
    kernel = parse_diffop("x0^2 - mu^-1*t", TX).terms[(0, 0)]
    assert _apply(heat(), kernel).is_zero()
    assert _apply(heat(), CoefPoly.zero(TX)).is_zero()


def test_recanonicalization_fixed_point():
    a = heat()
    assert DiffOp(a.chart, dict(a.terms)) == a
    d = parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    assert DiffOp(d.chart, dict(d.terms)) == d


def _random_op(rng, chart, nterms=2):
    coef_pool = [
        Scalar.const(1),
        Scalar.const(-2),
        Scalar.const(3),
        MU,
        DELTA,
        Scalar.const(1) / Scalar.const(2),
    ]
    terms = {}
    for _ in range(nterms):
        dexpo = tuple(rng.randrange(3) for _ in chart)
        expo = tuple(rng.randrange(3) for _ in chart)
        poly = CoefPoly(chart, {expo: rng.choice(coef_pool)})
        cur = terms.get(dexpo)
        terms[dexpo] = poly if cur is None else cur + poly
    return DiffOp(chart, terms)


def test_associativity_random():
    rng = random.Random(20260822)
    for _ in range(200):
        a = _random_op(rng, TX)
        b = _random_op(rng, TX)
        c = _random_op(rng, TX)
        assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def test_bilinearity_and_jacobi_random():
    rng = random.Random(404)
    for _ in range(40):
        a = _random_op(rng, TX)
        b = _random_op(rng, TX)
        c = _random_op(rng, TX)
        assert compose(a, b + c) == compose(a, b) + compose(a, c)
        jac = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jac.is_zero()


def test_variable_mismatch():
    other = make_chart("t", "x0", "x1")
    with pytest.raises(VariableMismatch):
        compose(heat(), DiffOp.partial(other, "x1"))
    with pytest.raises(VariableMismatch):
        _apply(heat(), CoefPoly.zero(other))
    with pytest.raises(VariableMismatch):
        DiffOp.partial(TX, "y3")
    with pytest.raises(VariableMismatch):
        parse_diffop("d/dy7", TX)


def test_parse_render_round_trip():
    cases = [
        "2*mu*d/dt + (d/dx0)^2",
        "delta - 2*t*d/dt - x0*d/dx0",
        "-d/dt",
        "t^2*d/dt + t*x0*(d/dx0)^3 - 1/2*x0^2",
        "(2*delta+1)/mu*d/dx0",
        "0",
    ]
    for text in cases:
        op = parse_diffop(text, TX)
        assert parse_diffop(render_diffop(op), TX) == op, text


def test_render_round_trip_random():
    rng = random.Random(99)
    for _ in range(100):
        op = _random_op(rng, TX, nterms=3)
        assert parse_diffop(render_diffop(op), TX) == op


def test_parse_rejects_garbage():
    for text in ["d/dt +", "(d/dx0", "x0 ^ mu", "w0", "d/dq1", "1/(d/dt)"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_diffop(text, TX)


def test_latex_output():
    a = heat()
    tex = latex_diffop(a)
    assert "\\partial_{x_{0}}^{2}" in tex or "\\partial_{x_{0}}^{2}" in tex.replace(" ", "")
    assert "\\mu" in tex
    d = parse_diffop("delta - 2*t*d/dt", TX)
    tex2 = latex_diffop(d)
    assert "\\delta" in tex2 and "\\partial_{t}" in tex2


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return CoefPoly.of_raw(out, p.chart)


def _poly_derivative(p, i, k):
    """The k-th partial derivative of p in chart variable i."""
    out = {}
    for expo, coef in p.terms.items():
        if expo[i] >= k:
            fall = 1
            for j in range(k):
                fall *= expo[i] - j
            out[expo[:i] + (expo[i] - k,) + expo[i + 1:]] = coef * fall
    return CoefPoly.of_raw(out, p.chart)


def _reference_compose(a, b):
    """The Leibniz rule written with whole intermediate operators: the
    oracle for the single-pass ``compose``."""
    out = {}
    for alpha, pa in a.terms.items():
        for beta, pb in b.terms.items():
            for gamma in product(*(range(a + 1) for a in alpha)):
                dq = pb
                for i, k in enumerate(gamma):
                    dq = _poly_derivative(dq, i, k)
                if dq.is_zero():
                    continue
                binom = 1
                for ai, gi in zip(alpha, gamma):
                    binom *= comb(ai, gi)
                dexpo = tuple(ai - gi + bi for ai, gi, bi in zip(alpha, gamma, beta))
                piece = _poly_mul(pa, dq).scaled(binom)
                cur = out.get(dexpo)
                out[dexpo] = piece if cur is None else cur + piece
    return DiffOp(a.chart, out)


def _reference_apply(a, p):
    """a applied to the polynomial p term by term: the oracle for ``_apply``."""
    out = CoefPoly.zero(a.chart)
    for alpha, coef in a.terms.items():
        dp = p
        for i, k in enumerate(alpha):
            dp = _poly_derivative(dp, i, k)
        out = out + _poly_mul(coef, dp)
    return out


@pytest.mark.parametrize("spec", supported_specs(3), ids=repr)
def test_apply_matches_reference(spec):
    # every left action (none on the centerless family) and S, S^2, on zero,
    # 1, a polynomial and a rational-function coefficient
    ops = [invariant_operator(spec, q) for q in (1, 2)]
    if spec.ext != "none":
        ops += [left_action(spec, g) for g in enumerate_generators(spec)]
    ch = ops[0].chart
    n = len(ch)
    polys = [
        CoefPoly.zero(ch),
        CoefPoly.const(ch, 1),
        CoefPoly(ch, {(2, 1) + (0,) * (n - 2): Scalar.const(3),
                      (0,) * (n - 1) + (3,): Scalar.const(Fraction(-1, 2)),
                      (1,) * n: Scalar.const(1)}),
        CoefPoly(ch, {(1,) + (0,) * (n - 2) + (2,): parse_scalar("(delta + 1)/(mu - 2)"),
                      (0,) * n: Scalar.symbol("mu")}),
    ]
    for a in ops:
        for p in polys:
            assert _apply(a, p) == _reference_apply(a, p), (a, p)


def test_compose_matches_reference_on_fixed_operators():
    a = heat()
    d = parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    m = parse_diffop("1/(delta+1)*t*x0^2*(d/dx0)^2 + mu^-1*x0*d/dt", TX)
    for x in (a, d, m):
        for y in (a, d, m):
            assert compose(x, y) == _reference_compose(x, y)


def _op_strategy(hyp):
    """Operators on TX whose coefficients have numerators over 1, delta+1
    or mu: the products mix the shared one-denominator fast path with the
    normalising constructor."""
    st = hyp.strategies
    coefs = st.builds(
        lambda n, s, den: Scalar.const(n) * s / den,
        st.integers(-3, 3).filter(bool),
        st.sampled_from([Scalar.one(), DELTA, MU]),
        st.sampled_from([Scalar.one(), DELTA + 1, MU]),
    )
    expos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(
        expos, st.dictionaries(expos, coefs, min_size=1, max_size=3),
        min_size=1, max_size=3,
    ).map(lambda t: DiffOp(TX, {d: CoefPoly(TX, p) for d, p in t.items()}))


def test_compose_matches_reference_random():
    hyp = pytest.importorskip("hypothesis")
    ops = _op_strategy(hyp)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(ops, ops)
    def check(a, b):
        got = compose(a, b)
        assert got == _reference_compose(a, b)
        for poly in got.terms.values():
            for coef in poly.terms.values():
                assert coef.den is _POLY_ONE or not coef.den.is_const()

    check()


def _reference_leibniz_table(alpha):
    """(gamma, C(alpha, gamma), alpha - gamma) for every gamma <= alpha,
    gamma = 0 first, with no bound from the coefficient's exponents."""
    out = []
    for gamma in product(*(range(a + 1) for a in alpha)):
        binom = 1
        for ai, gi in zip(alpha, gamma):
            binom *= comb(ai, gi)
        out.append((gamma, binom, tuple(ai - gi for ai, gi in zip(alpha, gamma))))
    return tuple(out)


def _reference_leibniz_into(out, a, b, sign, skip_order_zero=False):
    """The Leibniz accumulator that walks every gamma <= alpha against every
    term of b and only then drops the terms with some gamma_i > e_i: the
    oracle for the bounded ``_leibniz_into``."""
    b_terms = [(beta, list(pb.terms.items())) for beta, pb in b.terms.items()]
    for alpha, pa in a.terms.items():
        pa_terms = list(pa.terms.items())
        table = _reference_leibniz_table(alpha)
        for gamma, binom, shift in table[1:] if skip_order_zero else table:
            binom *= sign
            for beta, pb_terms in b_terms:
                dexpo = tuple(si + bi for si, bi in zip(shift, beta))
                acc = out.get(dexpo)
                if acc is None:
                    acc = out[dexpo] = {}
                for eb, cb in pb_terms:
                    k = binom
                    for e, g in zip(eb, gamma):
                        if g > e:
                            k = 0
                            break
                        for j in range(g):
                            k *= e - j
                    if not k:
                        continue
                    rest = tuple(e - g for e, g in zip(eb, gamma))
                    cbk = cb * k
                    for ea, ca in pa_terms:
                        expo = tuple(x + y for x, y in zip(ea, rest))
                        term = ca * cbk
                        prev = acc.get(expo)
                        acc[expo] = term if prev is None else prev + term


def _from_reference(chart, *calls, kernel=None):
    """The operator of the raw map that a Scalar accumulator, by default
    the unbounded one, fills with each (a, b, sign, skip_order_zero) call
    in turn."""
    out = {}
    for call in calls:
        (kernel or _reference_leibniz_into)(out, *call)
    return DiffOp.of_raw(out, chart)


def _assert_matches_unbounded_kernel(a, b, c):
    """compose, commutator (with and without ``minus``) and
    twisted_commutator equal the unbounded accumulator's results."""
    ch = a.chart
    assert compose(a, b) == _from_reference(ch, (a, b, 1))
    bracket = _from_reference(ch, (a, b, 1, True), (b, a, -1, True))
    assert commutator(a, b) == bracket
    assert commutator(a, b, minus=[(c, 3)]) == bracket - c.scaled(3)
    assert twisted_commutator(a, b, c) == _from_reference(
        ch, (a, b, 1, True), (b, a, -1, True), (c - b, a, -1))


def _kernel_grid():
    """(spec, q) for q <= 2 on every extended family of supported_specs(5),
    and q = 3 on (1,1,mass) and (2,2,exotic)."""
    for spec in supported_specs(5):
        if spec.ext == "none":
            continue
        for q in (1, 2, 3):
            if q < 3 or (spec.d, spec.twoEll) in ((1, 1), (2, 2)):
                yield spec, q


@pytest.mark.parametrize("spec, q", list(_kernel_grid()), ids=repr)
def test_kernel_matches_unbounded_on_intertwining_operands(spec, q):
    # off the root, so the twisted commutators are not all zero
    pvals = resolve_params(spec, {"delta": Fraction(1, 7), "mu": 1, "theta": 1,
                                  "r": Fraction(2, 3)})
    shifted = dict(pvals, delta=pvals["delta"] - weight_shift(spec, q))
    power = invariant_operator(spec, q, pvals)
    for gen in enumerate_generators(spec):
        before = left_action(spec, gen, pvals)
        after = left_action(spec, gen, shifted)
        _assert_matches_unbounded_kernel(power, before, after)
        _assert_matches_unbounded_kernel(before, power, after)


def test_kernel_matches_unbounded_random():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coefs = st.sampled_from([Scalar.const(1), Scalar.const(-2), MU, DELTA + 1])

    def ops(chart):
        # derivative orders up to 4 against coefficients of degree <= 1,
        # so the exponent bound cuts most gamma; single-term and
        # constant-only coefficients and the zero operator included
        dexpos = st.tuples(*[st.integers(0, 4)] * len(chart))
        expos = st.tuples(*[st.integers(0, 1)] * len(chart))
        polys = st.one_of(
            st.dictionaries(expos, coefs, min_size=1, max_size=1),
            st.builds(lambda c: {(0,) * len(chart): c}, coefs),
            st.dictionaries(expos, coefs, min_size=1, max_size=4),
        )
        return st.dictionaries(dexpos, polys, max_size=4).map(
            lambda t: DiffOp(chart, {d: CoefPoly(chart, p) for d, p in t.items()}))

    charts = st.sampled_from([(), TX, make_chart("t", "x0", "y0")])

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(charts.flatmap(lambda ch: st.tuples(ops(ch), ops(ch), ops(ch))))
    def check(abc):
        _assert_matches_unbounded_kernel(*abc)

    check()


def _scalar_leibniz_into(out, a, b, sign, skip_order_zero=False):
    """The bounded Leibniz accumulator over Scalars that the flat kernel
    replaced: gamma <= min(alpha, top), one Scalar product and one Scalar
    sum per term, into a raw map ``{dexpo: {expo: Scalar}}``."""
    b_terms = []
    for beta, pb in b.terms.items():
        pb_terms = list(pb.terms.items())
        top = pb_terms[0][0] if len(pb_terms) == 1 else tuple(map(max, zip(*pb.terms)))
        b_terms.append((beta, top, pb_terms))
    for alpha, pa in a.terms.items():
        pa_terms = list(pa.terms.items())
        for beta, top, pb_terms in b_terms:
            table = _leibniz_table(alpha, top)
            for gamma, binom, shift in table[1:] if skip_order_zero else table:
                binom *= sign
                dexpo = tuple(si + bi for si, bi in zip(shift, beta))
                acc = out.setdefault(dexpo, {})
                for eb, cb in pb_terms:
                    k = binom
                    for e, g in zip(eb, gamma):
                        if g > e:
                            k = 0
                            break
                        for j in range(g):
                            k *= e - j
                    if not k:
                        continue
                    rest = tuple(e - g for e, g in zip(eb, gamma))
                    cbk = cb * k
                    for ea, ca in pa_terms:
                        expo = tuple(x + y for x, y in zip(ea, rest))
                        term = ca * cbk
                        prev = acc.get(expo)
                        acc[expo] = term if prev is None else prev + term


def _assert_canonical(op):
    """No empty slot, no zero coefficient, and every constant denominator
    the shared one-polynomial."""
    for poly in op.terms.values():
        assert poly.terms
        for coef in poly.terms.values():
            assert coef
            assert coef.den is _POLY_ONE or not coef.den.is_const()


def _assert_matches_scalar_kernel(a, b, before, after, coefs):
    """compose, commutator with each ``minus`` coefficient, and
    twisted_commutator equal the Scalar kernel's results, in canonical
    form."""
    ch = a.chart
    got = compose(a, b)
    assert got == _from_reference(ch, (a, b, 1), kernel=_scalar_leibniz_into)
    _assert_canonical(got)
    bracket = _from_reference(ch, (a, b, 1, True), (b, a, -1, True),
                              kernel=_scalar_leibniz_into)
    for coef in coefs:
        got = commutator(a, b, minus=[(before, coef)])
        assert got == bracket - before.scaled(coef)
        _assert_canonical(got)
    got = twisted_commutator(a, before, after)
    assert got == _from_reference(
        ch, (a, before, 1, True), (before, a, -1, True), (after - before, a, -1),
        kernel=_scalar_leibniz_into)
    _assert_canonical(got)


_DENS = {"1": Scalar.one(), "delta+1": DELTA + 1, "mu": MU, "(delta+1)*mu": (DELTA + 1) * MU}


def _flat_kernel_ops(hyp, chart, dens):
    """Operators on ``chart`` with one term over each denominator named in
    ``dens`` and up to three more over any of them; numerators are a
    rational, possibly non-integral, times 1, delta, mu or delta*mu."""
    st = hyp.strategies
    expos = st.tuples(*[st.integers(0, 2)] * len(chart))
    numbers = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    numerators = st.builds(lambda c, s: Scalar.const(c) * s, numbers,
                           st.sampled_from([Scalar.one(), DELTA, MU, DELTA * MU]))

    def term(den):
        return st.tuples(expos, expos, numerators.map(lambda n: n / _DENS[den]))

    def build(terms):
        raw = {}
        for dexpo, expo, coef in terms:
            acc = raw.setdefault(dexpo, {})
            acc[expo] = acc.get(expo, 0) + coef
        return DiffOp(chart, {d: CoefPoly(chart, p) for d, p in raw.items()})

    fixed = st.tuples(*map(term, dens))
    more = st.lists(st.sampled_from(dens).flatmap(term), max_size=3)
    return st.builds(lambda f, m: build([*f, *m]), fixed, more)


# int, Fraction and parameter-denominator coefficients of a ``minus`` term
_MINUS_COEFS = (3, Fraction(-2, 3), 1 / (DELTA + 1), MU / (DELTA + 2))


@pytest.mark.parametrize("dens_a, dens_b, dens_before, dens_after", [
    # non-integral Fraction coefficients, every denominator 1
    (("1",), ("1",), ("1",), ("1",)),
    # several denominator buckets in both operands at once, and a
    # twisted commutator whose before and after have different ones
    (("delta+1", "mu"), ("1", "delta+1", "mu"), ("1", "delta+1"), ("mu", "(delta+1)*mu")),
], ids=["fractions", "denominators"])
def test_flat_kernel_matches_scalar_kernel(dens_a, dens_b, dens_before, dens_after):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def operands(chart):
        return st.tuples(*(_flat_kernel_ops(hyp, chart, dens)
                           for dens in (dens_a, dens_b, dens_before, dens_after)))

    charts = st.sampled_from([TX, make_chart("t", "x0", "y0")])

    @hyp.settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(charts.flatmap(operands))
    def check(ops):
        _assert_matches_scalar_kernel(*ops, _MINUS_COEFS)

    check()


def _reference_commutator(a, b):
    """[a, b] as two whole products and an operator subtraction: the
    oracle for the accumulated ``commutator``."""
    return compose(a, b) - compose(b, a)


def twisted_commutator(s, before, after):
    """s.before - after.s as the one residual ``commutator``: [s, before]
    minus the correction after - before composed with s."""
    return commutator(s, before, minus=[(s, after - before)])


def _reference_residual(s, before, after):
    """s.before - after.s as two whole products and an operator
    subtraction: the oracle for ``twisted_commutator``."""
    return compose(s, before) - compose(after, s)


def test_commutator_and_residual_match_reference_on_fixed_operators():
    a = heat()
    d = parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    d2 = parse_diffop("delta - 2 - 2*t*d/dt - x0*d/dx0", TX)
    m = parse_diffop("1/(delta+1)*t*x0^2*(d/dx0)^2 + mu^-1*x0*d/dt", TX)
    for x in (a, d, m):
        for y in (a, d, m):
            assert commutator(x, y) == _reference_commutator(x, y)
            assert twisted_commutator(x, y, y) == _reference_commutator(x, y)
            for z in (a, d2, m):
                assert twisted_commutator(x, y, z) == _reference_residual(x, y, z)
                assert commutator(x, y, minus=[(z, MU), (m, -3)]) == (
                    _reference_commutator(x, y) - z.scaled(MU) - m.scaled(-3))
    # the seed identity [S, D] = -2 S as an exact zero residual
    assert commutator(a, d, minus=[(a, -2)]).is_zero()
    # S intertwines D with its weight-shifted copy: S.D - (D - 2).S = 0
    assert twisted_commutator(a, d, d2).is_zero()


def test_commutator_and_residual_match_reference_random():
    hyp = pytest.importorskip("hypothesis")
    ops = _op_strategy(hyp)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(ops, ops, ops)
    def check(a, b, c):
        assert commutator(a, b) == _reference_commutator(a, b)
        assert twisted_commutator(a, b, c) == _reference_residual(a, b, c)
        assert commutator(a, b, minus=[(c, DELTA + 1)]) == (
            _reference_commutator(a, b) - c.scaled(DELTA + 1))

    check()


def test_accumulated_results_are_canonical():
    # terms that cancel inside the accumulator leave no zero coefficient
    # and no empty derivative slot behind
    d = parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    zero = commutator(d, d)
    assert zero.terms == {} and zero == DiffOp.zero(TX)
    x = DiffOp.of_poly(CoefPoly.var(TX, Var("x", 0)))
    dx = DiffOp.partial(TX, "x0")
    one = commutator(dx, x)
    assert one.terms == DiffOp.const(TX, 1).terms
    assert twisted_commutator(dx, x, x) == one
    other = DiffOp.partial(make_chart("t", "x0", "x1"), "x1")
    with pytest.raises(VariableMismatch):
        commutator(dx, x, minus=[(other, 1)])
    # an operator coefficient must live on the chart too
    with pytest.raises(VariableMismatch):
        commutator(dx, x, minus=[(dx, other)])


# --- an operator keeps its split ------------------------------------------

def _fresh(op):
    """A copy of ``op`` that has never been split."""
    return DiffOp.of_raw(dict(op.terms), op.chart)


def _reused_split_cases(a, b, c):
    """(operation, operands, oracle) in an order where each operand is
    split first on one side of a product and then meets itself and serves
    on the other side, with scalar and operator ``minus`` coefficients.
    The oracles use ``_reference_compose``, which never splits."""
    ref = _reference_compose

    def bracket(x, y):
        return ref(x, y) - ref(y, x)

    return [
        (compose, (a, b), ref(a, b)),
        (compose, (b, a), ref(b, a)),
        (compose, (a, a), ref(a, a)),
        (commutator, (a, a), DiffOp.zero(a.chart)),
        (lambda x, y, z: commutator(x, y, minus=[(z, MU), (y, -3)]), (c, a, b),
         bracket(c, a) - b.scaled(MU) - a.scaled(-3)),
        (lambda x, y, z: commutator(x, y, minus=[(x, z)]), (b, c, a),
         bracket(b, c) - ref(a, b)),
        (lambda x: commutator(x, x, minus=[(x, x), (x, 0)]), (c,), -ref(c, c)),
        (lambda x, y: commutator(x, y, minus=[(y, x - x), (x, y)]), (a, c),
         bracket(a, c) - ref(c, a)),
    ]


def _assert_reused_split_invisible(a, b, c):
    """Every case of ``_reused_split_cases`` gives, on operands whose splits
    are reused, first cold and then warm, the oracle's operator and that of
    fresh copies; equality, hash and repr of the operands do not change."""
    faces = [(hash(op), repr(op)) for op in (a, b, c)]
    cases = _reused_split_cases(a, b, c)
    for _ in range(2):
        for operation, operands, want in cases:
            got = operation(*operands)
            assert got == want, operands
            assert got == operation(*map(_fresh, operands)), operands
            _assert_canonical(got)
    assert [(hash(op), repr(op)) for op in (a, b, c)] == faces
    for op in (a, b, c):
        assert op == _fresh(op) and _fresh(op) == op


def test_reused_split_is_invisible_on_fixed_operators():
    a = heat()
    d = parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    m = parse_diffop("1/(delta+1)*t*x0^2*(d/dx0)^2 + mu^-1*x0*d/dt", TX)
    _assert_reused_split_invisible(a, d, m)
    _assert_reused_split_invisible(m, a, d)
    _assert_reused_split_invisible(d, m, m)


def test_reused_split_is_invisible_random():
    hyp = pytest.importorskip("hypothesis")
    ops = _op_strategy(hyp)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(ops, ops, ops)
    def check(a, b, c):
        _assert_reused_split_invisible(a, b, c)

    check()


def test_copies_split_afresh():
    # a copy goes through the constructor: it carries no split, and its
    # own split starts with the shared one-polynomial itself (protocols 0
    # and 1 pickle no slotted class, a Scalar neither)
    a = heat()
    m = parse_diffop("1/(delta+1)*t*x0^2*(d/dx0)^2 + mu^-1*x0*d/dt", TX)
    # split both, with derivative rows cached on each
    compose(a, m)
    compose(m, a)
    for op in (a, m):
        twins = [copy.copy(op), copy.deepcopy(op)]
        twins += [pickle.loads(pickle.dumps(op, proto))
                  for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is DiffOp and twin == op and hash(twin) == hash(op)
            _assert_canonical(twin)
            dens, _ = split = _flat(twin)
            assert dens[0] is _POLY_ONE and dens == _flat(op)[0]
            assert split is not _flat(op) and _flat(twin) is split
            assert compose(twin, m) == compose(op, m) == _reference_compose(op, m)


def test_bracket_failures_repeat_with_warm_splits(monkeypatch):
    # a corrupted realization fails the audit; a second run on the same
    # operators, their splits warm, lists the same failures as fresh copies
    import cgk.reps as reps
    from test_invariants import _corrupt_left_action

    spec = AlgebraSpec(2, 2, "exotic")
    patched = _corrupt_left_action(monkeypatch, reps, Gen("H"))
    ops = {g: patched(spec, g) for g in enumerate_generators(spec)}
    gens = list(ops)
    pairs = [(x, y) for i, x in enumerate(gens) for y in gens[i + 1:]]
    first = bracket_failures(spec, ops, pairs)
    assert first and bracket_failures(spec, ops, pairs) == first
    fresh = {g: _fresh(op) for g, op in ops.items()}
    assert bracket_failures(spec, fresh, pairs) == first


# --- the one grammar, read as a Scalar and as an operator -------------------

# strings that one parser took before the grammars were merged, with the
# value it gave, now read in both grammars
_BOTH_GRAMMARS = [
    ("-delta^2", -DELTA ** 2),
    ("-(-mu)", MU),
    ("2**3", Scalar.const(8)),
    ("mu^-1", 1 / MU),
    # signs open every factor and exponent, as parse_scalar read them
    ("--delta", DELTA),
    ("2*-delta", -2 * DELTA),
    ("+-mu", -MU),
    ("mu^--1", MU),
    # "^" chains left to right, as parse_diffop read it
    ("delta^2^3", DELTA ** 6),
    ("2^-2^-1", Scalar.const(4)),
]


@pytest.mark.parametrize("text, want", _BOTH_GRAMMARS)
def test_grammar_table(text, want):
    assert parse_scalar(text) == want
    assert parse_diffop(text, TX) == DiffOp.const(TX, want)


def test_grammar_operator_powers_chain():
    x0_6 = CoefPoly(TX, {(0, 6): Scalar.const(1)})
    assert parse_diffop("x0^2^3", TX) == DiffOp.of_poly(x0_6)
    assert parse_diffop("d/dx0^2", TX) == DiffOp.partial(TX, "x0", 2)


def test_grammar_garbage_rejected_by_both_parsers():
    scalar_garbage = ("delta +", "(mu", "2 ** delta", "foo", "delta^mu")
    operator_garbage = ("d/dt +", "(d/dx0", "x0 ^ mu", "w0", "d/dq1", "1/(d/dt)")
    for text in scalar_garbage + operator_garbage:
        with pytest.raises(ValueError):
            parse_scalar(text)
        with pytest.raises(ValueError):
            parse_diffop(text, TX)


def test_grammar_zero_division_is_one_error_type():
    for parse in (lambda text: parse_diffop(text, TX), parse_scalar):
        for text in ("1/0", "0^-1", "mu/(delta-delta)"):
            with pytest.raises(DivisionByZero):
                parse(text)


def test_operator_arithmetic_matches_functions():
    a, d = heat(), parse_diffop("delta - 2*t*d/dt - x0*d/dx0", TX)
    assert a * d == compose(a, d)
    assert a ** 2 == op_power(a, 2)
    assert a / DiffOp.const(TX, 2) == a.scaled(Scalar.const(1) / 2)
    with pytest.raises(ValueError, match="non-scalar"):
        a / d
    with pytest.raises(ValueError, match="non-scalar"):
        a ** -1
