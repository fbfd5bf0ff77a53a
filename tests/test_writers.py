"""The one writer of printed sums (``scalars.term_text``, ``sum_text`` and
``coef_text``) against the writers it replaced.

The ``_reference_*`` functions are the former per-module writers, kept as
oracles: parameter polynomials in text and LaTeX, operator terms and
coefficient polynomials, and the command line's linear combinations.
"""

from fractions import Fraction

import pytest

from cgk.algebra import AlgebraSpec, Gen, GenCombo, enumerate_generators, supported_specs
from cgk.diffop import (
    CoefPoly,
    DiffOp,
    latex_diffop,
    make_chart,
    parse_diffop,
    render_diffop,
    render_poly_in_vars,
)
from cgk.reps import UnsupportedGenerator, left_action, right_action
from cgk.scalars import (
    NSYM,
    SYMBOLS,
    ParamPoly,
    Scalar,
    _grlex_key,
    _latex_fraction,
    coef_text,
    latex_poly,
    latex_scalar,
    render_poly,
    render_scalar,
)
from cgk.verma import ModuleVector, level_basis

CHARTS = (make_chart("t", "x0"), make_chart("t", "x0", "y0"))
_LATEX_NAMES = {"delta": r"\delta", "mu": r"\mu", "r": "r", "theta": r"\theta",
                "kappa": r"\kappa"}


# --- the former writers -------------------------------------------------------

def _reference_render_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for expo in sorted(p.terms, key=_grlex_key, reverse=True):
        coef = p.terms[expo]
        factors = []
        for i, e in enumerate(expo):
            if e == 1:
                factors.append(SYMBOLS[i])
            elif e > 1:
                factors.append("%s^%d" % (SYMBOLS[i], e))
        if not factors:
            term = str(coef)
        elif coef == 1:
            term = "*".join(factors)
        elif coef == -1:
            term = "-" + "*".join(factors)
        else:
            term = "%s*%s" % (coef, "*".join(factors))
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def _reference_latex_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for expo in sorted(p.terms, key=_grlex_key, reverse=True):
        coef = p.terms[expo]
        factors = []
        for i, e in enumerate(expo):
            if e == 1:
                factors.append(_LATEX_NAMES[SYMBOLS[i]])
            elif e > 1:
                factors.append("%s^{%d}" % (_LATEX_NAMES[SYMBOLS[i]], e))
        body = " ".join(factors)
        if not body:
            term = _latex_fraction(coef)
        elif coef == 1:
            term = body
        elif coef == -1:
            term = "-" + body
        else:
            term = "%s %s" % (_latex_fraction(coef), body)
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def _reference_coef_text(s, latex=False):
    txt = latex_scalar(s) if latex else render_scalar(s)
    if latex and not s.den.is_const():
        return txt  # a LaTeX quotient is one \\frac, grouped already
    stripped = txt[1:] if txt.startswith("-") else txt
    needs = any(c in stripped for c in "+-") or (latex and "\\frac" not in txt and "/" in txt)
    if not latex and "/" in stripped and not needs:
        # a quotient keeps its sign outside the parentheses
        return txt[:len(txt) - len(stripped)] + "(%s)" % stripped
    return "(%s)" % txt if needs else txt


def _reference_var_latex(v):
    return "t" if v.kind == "t" else "%s_{%d}" % (v.kind, v.n)


def _reference_piece_text(chart, dexpo, expo, coef, latex=False):
    factors = []
    one = Scalar.const(1)
    minus_one = Scalar.const(-1)
    sign = ""
    body_empty = all(e == 0 for e in expo) and all(d == 0 for d in dexpo)
    if coef == minus_one and not body_empty:
        sign = "-"
    elif not (coef == one and not body_empty):
        factors.append(_reference_coef_text(coef, latex))
    for v, e in zip(chart, expo):
        if not e:
            continue
        name = _reference_var_latex(v) if latex else str(v)
        if e == 1:
            factors.append(name)
        else:
            factors.append("%s^{%d}" % (name, e) if latex else "%s^%d" % (name, e))
    for v, d in zip(chart, dexpo):
        if not d:
            continue
        if latex:
            base = "\\partial_{%s}" % (_reference_var_latex(v),)
            factors.append(base if d == 1 else "%s^{%d}" % (base, d))
        else:
            base = "d/d%s" % (v,)
            factors.append(base if d == 1 else "(%s)^%d" % (base, d))
    joiner = " " if latex else "*"
    return sign + joiner.join(factors)


def _reference_render(op, latex=False):
    if not op.terms:
        return "0"
    pieces = []
    for dexpo, poly in op.items():
        for expo, coef in poly.items():
            pieces.append(_reference_piece_text(op.chart, dexpo, expo, coef, latex))
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _reference_render_terms(items):
    parts = []
    for label, c in items:
        cs = render_scalar(c)
        if cs == "1":
            parts.append(str(label))
        elif cs == "-1":
            parts.append("-%s" % (label,))
        else:
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = "(%s)" % cs
            elif "/" in cs:
                cs = "-(%s)" % cs[1:] if cs.startswith("-") else "(%s)" % cs
            parts.append("%s*%s" % (cs, label))
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _check_operator(op):
    for latex, write in ((False, render_diffop), (True, latex_diffop)):
        assert write(op) == _reference_render(op, latex), op
    for poly in op.terms.values():
        assert render_poly_in_vars(poly) == _reference_render(DiffOp.of_poly(poly)), poly


# --- exact strings --------------------------------------------------------------

def _poly(*terms):
    """A ParamPoly from (coefficient, {symbol: exponent}) pairs."""
    return ParamPoly({tuple(powers.get(name, 0) for name in SYMBOLS): c
                      for c, powers in terms})


@pytest.mark.parametrize("poly, want", [
    (_poly(), "0"),
    (_poly((Fraction(-3, 4), {})), r"-\frac{3}{4}"),
    (_poly((2, {"delta": 2, "mu": 1}), (Fraction(-1, 2), {"mu": 1}), (3, {})),
     r"2 \delta^{2} \mu-\frac{1}{2} \mu+3"),
    (_poly((-1, {"delta": 1, "mu": 1}), (1, {"kappa": 3}), (-1, {})),
     r"\kappa^{3}-\delta \mu-1"),
    (_poly((1, {"r": 1, "theta": 1}), (-1, {"theta": 1})), r"r \theta-\theta"),
])
def test_latex_poly_exact(poly, want):
    assert latex_poly(poly) == want


def test_latex_scalar_exact():
    delta, mu, r, kappa = (Scalar.symbol(n) for n in ("delta", "mu", "r", "kappa"))
    cases = [
        (Scalar.zero(), "0"),
        (Scalar.const(Fraction(-3, 4)), r"-\frac{3}{4}"),
        (2 * delta - 1, r"2 \delta-1"),
        ((2 * delta + 1) / mu, r"\frac{2 \delta+1}{\mu}"),
        (-delta / (2 * mu), r"-\frac{\delta}{2 \mu}"),
        ((delta - 1) / (mu * r + 1), r"\frac{\delta-1}{\mu r+1}"),
        (-kappa / (2 * delta ** 2), r"-\frac{\kappa}{2 \delta^{2}}"),
        # the rational content of numerator and denominator comes out too
        (3 * delta / (2 * mu), r"\frac{3 \delta}{2 \mu}"),
        (1 / (2 * delta + 1), r"\frac{1}{2 \delta+1}"),
        ((-3 * delta + 6) / (4 * mu * r), r"-\frac{3 \delta-6}{4 \mu r}"),
        ((delta + Fraction(1, 3)) / (delta - 2), r"\frac{3 \delta+1}{3 \delta-6}"),
    ]
    for value, want in cases:
        assert latex_scalar(value) == want


def test_coefficient_parentheses():
    delta, mu = Scalar.symbol("delta"), Scalar.symbol("mu")
    half = Scalar.const(Fraction(-1, 2))
    quotients = (-delta / mu, -delta / (2 * mu), (-delta - 1) / mu, (2 * delta + 1) / mu,
                 1 / (delta + 1))
    assert [coef_text(s) for s in (half, -delta, delta - 1, delta / mu, *quotients)] == [
        "-(1/2)", "-delta", "(delta-1)", "(delta/mu)",
        "-(delta/mu)", "-(1/2*delta/mu)", "((-delta-1)/mu)", "((2*delta+1)/mu)",
        "(1/(delta+1))"]
    # a LaTeX quotient is one \frac: no parentheses, and its sign folds
    assert [coef_text(s, latex=True) for s in (half, -delta, delta - 1, delta / mu,
                                                *quotients)] == [
        r"-\frac{1}{2}", r"-\delta", r"(\delta-1)", r"\frac{\delta}{\mu}",
        r"-\frac{\delta}{\mu}", r"-\frac{\delta}{2 \mu}", r"-\frac{\delta+1}{\mu}",
        r"\frac{2 \delta+1}{\mu}", r"\frac{1}{\delta+1}"]
    op = parse_diffop("(2*delta+1)/mu*d/dt + (-delta-1)/mu*(d/dx0)^2", ("t", "x0"))
    assert latex_diffop(op) == (
        r"\frac{2 \delta+1}{\mu} \partial_{t} - \frac{\delta+1}{\mu} \partial_{x_{0}}^{2}")


@pytest.mark.parametrize("text, want", [
    ("x0^2 - 1/2*t", "-(1/2)*t + x0^2"),
    ("x0 - 1/2*t", "x0 - (1/2)*t"),
    ("x0 - delta/mu*t", "x0 - (delta/mu)*t"),
    # a sum, or a quotient with a sum above the line, keeps its sign inside
    ("x0 + (-delta-1)*t", "x0 + (-delta-1)*t"),
    ("x0 - (2*delta+1)/mu*d/dt", "x0 + ((-2*delta-1)/mu)*d/dt"),
])
def test_quotient_sign_folds(text, want):
    # a negative quotient keeps its minus outside its parentheses, so the
    # sum folds it; the text parses back to the same operator
    op = parse_diffop(text, CHARTS[0])
    assert render_diffop(op) == want
    assert parse_diffop(want, CHARTS[0]) == op


def test_quotient_sign_folds_in_combinations():
    d, c = Gen("D"), Gen("C")
    half = Scalar.const(Fraction(1, 2))
    assert str(GenCombo({d: 1, c: -half})) == "-(1/2)*C + D"
    assert str(GenCombo({d: -half, c: 1})) == "C - (1/2)*D"


# --- equal to the former writers ------------------------------------------------

def test_writers_match_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coefs = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * NSYM), coefs,
                            max_size=4).map(ParamPoly)
    dens = polys.filter(lambda p: not p.is_const())
    scalars = st.one_of(
        st.sampled_from([Scalar.const(1), Scalar.const(-1), Scalar.const(Fraction(-1, 2))]),
        polys.map(Scalar),
        st.builds(Scalar, polys, dens),
    )

    def operators(chart):
        expos = st.tuples(*[st.integers(0, 3)] * len(chart))
        coef_polys = st.dictionaries(expos, scalars, max_size=3).map(
            lambda terms: CoefPoly(chart, terms))
        return st.dictionaries(expos, coef_polys, max_size=3).map(
            lambda terms: DiffOp(chart, terms))

    spec = AlgebraSpec(2, 3, "mass")
    gens = enumerate_generators(spec)
    monos = [m for level in range(3) for m in level_basis(spec, level)]

    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(polys, scalars,
               st.one_of(*map(operators, CHARTS)),
               st.dictionaries(st.sampled_from(gens), scalars, max_size=4),
               st.dictionaries(st.sampled_from(monos), scalars, max_size=4))
    def check(p, s, op, combo, vector):
        assert render_poly(p) == _reference_render_poly(p)
        assert latex_poly(p) == _reference_latex_poly(p)
        for latex in (False, True):
            assert coef_text(s, latex) == _reference_coef_text(s, latex)
        _check_operator(op)
        for value in (GenCombo(combo), ModuleVector(vector)):
            assert str(value) == repr(value) == _reference_render_terms(value.items())

    check()


@pytest.mark.parametrize("spec", supported_specs(5), ids=repr)
def test_realizations_print_as_before(spec):
    checked = 0
    for gen in enumerate_generators(spec):
        for action in (left_action, right_action):
            try:
                op = action(spec, gen)
            except UnsupportedGenerator:  # no realization of this generator
                continue
            _check_operator(op)
            checked += 1
    assert checked or spec.ext == "none"
