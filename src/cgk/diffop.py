"""Exact polynomial-coefficient differential operators.

Operators live on a fixed chart: an ordered tuple of variables
``(t, x0, x1, ..., y0, ...)``.  A coefficient polynomial maps variable
exponent vectors to Scalars; an operator maps derivative multi-indices
to coefficient polynomials, normal-ordered with all coefficients to the
left of all derivatives.  Both are ``scalars._Sparse`` sums on a chart.
Equality of canonical term maps is exact operator equality.  Composition
uses the Leibniz rule and is the ring product, written ``*``.

``parse_diffop`` reads the one grammar of ``scalars.parse_expression``,
whose atoms here are numbers, the five parameters, the chart variables
``t``, ``x<n>`` and ``y<n>``, and ``d/d<var>``: ``*`` composes, ``/``
takes only a scalar divisor, and ``^`` takes integer exponents (a negative
one only on a scalar) and chains left to right.  ``render_diffop`` output
(`2*mu*d/dt + (d/dx0)^2`) parses back to the same operator.

Products and residuals share one signed Leibniz accumulator,
``_leibniz_into``, which adds sign * (a.b) into a raw map of plain
numbers; the operator is built once from the map (``_op_of``), with no
intermediate operator and no subtraction of whole operators.  ``compose``
calls it once, and ``commutator``, the one residual of bracket audits and
intertwining checks, twice with opposite signs plus once per ``minus`` term.

The accumulator never touches a Scalar.  Each operand is split once
(``_flat``) into groups, one per derivative multi-index and
coefficient denominator, of terms keyed by one flat exponent tuple: the
chart exponents followed by the five parameter exponents, with an
``int`` or ``Fraction`` value.  The raw map is
``{denominator: {dexpo: {flat key: int | Fraction}}}``: a product of two
terms adds their keys and multiplies their values, and lands in the
bucket of the product of their denominators.  ``_op_of`` makes one Scalar
per output coefficient, normalising only over a denominator other than 1
and summing a coefficient's buckets; with every denominator 1, the case of
every realization and invariant operator, there is one bucket and no
normalisation.

An operator keeps its split: a DiffOp is immutable once built, and its
split and the derivative rows cached on it depend on its terms alone, so
one split serves every product it enters (S^q in every residual of an
intertwining check).  A copy goes through the constructor and splits anew.

For each pair of terms pa d^alpha, pb d^beta the Leibniz sum runs over
gamma <= min(alpha, top) only, where top is the componentwise maximum
exponent of pb: d^gamma pb is zero unless gamma <= top, so the bound drops
no term.  C(alpha, gamma) and alpha - gamma factor by axis, so the table
of a pair (alpha, top) is the product of cached per-axis tuples
(``_axis``), built once per pair.  The derivative row d^gamma pb is made
once per (group of b, gamma) and serves every alpha of every product.
A commutator skips the gamma = 0 Leibniz terms: in a.b they are
pa pb d^(alpha+beta), in b.a the same product in the other order, and
coefficients commute, so they always cancel.
"""

import functools
import re
from collections import namedtuple
from itertools import product
from math import comb, prod
from operator import add, sub

from .scalars import (
    _POLY_ONE,
    ZERO_EXPO,
    Scalar,
    VariableMismatch,
    _check_chart,
    _poly_of,
    _scalar_over_one,
    _Sparse,
    coef_text,
    parse_expression,
    power_text,
    scalar_atom,
    sum_text,
    term_text,
)


class Var(namedtuple("Var", "kind n")):
    """A chart variable, the named tuple ``(kind, n)``: t, x(n), or y(n),
    with n = -1 on t and an exact ``int`` index otherwise.  As a tuple it
    hashes and sorts at C level, in ``(kind, n)`` order; the inherited
    ``_make`` and ``_replace`` skip the validating constructor.  Format it
    with ``%`` only inside a tuple: ``"%s" % (v,)``."""

    __slots__ = ()

    def __new__(cls, kind, n=-1):
        if kind not in ("t", "x", "y"):
            raise ValueError("unknown variable kind %r" % (kind,))
        if kind == "t":
            n = -1
        elif type(n) is not int:
            raise TypeError("variable index %r is not an int" % (n,))
        elif n < 0:
            raise ValueError("indexed variable needs a nonnegative index")
        return tuple.__new__(cls, (kind, n))

    def __str__(self):
        kind, n = self
        return kind if kind == "t" else "%s%d" % (kind, n)

    @classmethod
    def parse(cls, text):
        m = re.fullmatch(r"t|([xy])(\d+)", text)
        if not m:
            raise ValueError("not a variable: %r" % (text,))
        if m.group(1):
            return cls(m.group(1), int(m.group(2)))
        return cls("t")


def make_chart(*names):
    """Canonically ordered chart from variable names or Vars."""
    vs = [v if isinstance(v, Var) else Var.parse(v) for v in names]
    vs.sort()
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate chart variables")
    return tuple(vs)


def _graded(item):
    """Sort key of a term: total degree, then the exponents."""
    return sum(item[0]), item[0]


def _check_on_chart(chart, v):
    if v not in chart:
        raise VariableMismatch("%s is not on chart (%s)" % (v, ",".join(map(str, chart))))


def _check_exponents(chart, expo, what):
    if len(expo) != len(chart) or any(e < 0 for e in expo):
        raise ValueError("bad %s %r" % (what, expo))


class CoefPoly(_Sparse):
    """Polynomial in the chart variables with Scalar coefficients."""

    __slots__ = ("chart",)
    _order = staticmethod(_graded)

    def __init__(self, chart, terms=None):
        self.chart = tuple(chart)
        terms = self._coerced(terms)
        for expo in terms:
            _check_exponents(self.chart, expo, "exponent vector")
        self.terms = {tuple(expo): coef for expo, coef in terms.items()}

    @classmethod
    def const(cls, chart, value):
        chart = tuple(chart)
        return cls(chart, {(0,) * len(chart): value})

    @classmethod
    def var(cls, chart, v):
        chart = tuple(chart)
        _check_on_chart(chart, v)
        expo = tuple(1 if u == v else 0 for u in chart)
        return cls(chart, {expo: Scalar.const(1)})

    def __repr__(self):
        return "CoefPoly(%s)" % (render_poly_in_vars(self),)


class DiffOp(_Sparse):
    """Normal-ordered differential operator: sum of CoefPoly * d^multi.

    ``*`` is composition, ``/`` divides by a scalar operator and ``**`` is
    a composition power; a negative power inverts a scalar operator.
    """

    __slots__ = ("chart", "_split")
    _inner = CoefPoly
    _order = staticmethod(_graded)

    def __init__(self, chart, terms=None):
        self.chart = tuple(chart)
        clean = {}
        for dexpo, poly in (terms or {}).items():
            _check_exponents(self.chart, dexpo, "derivative multi-index")
            if poly.chart != self.chart:
                raise VariableMismatch("coefficient chart differs from operator chart")
            if poly:
                clean[tuple(dexpo)] = poly
        self.terms = clean

    @classmethod
    def const(cls, chart, value):
        chart = tuple(chart)
        return cls(chart, {(0,) * len(chart): CoefPoly.const(chart, value)})

    @classmethod
    def of_poly(cls, poly):
        return cls(poly.chart, {(0,) * len(poly.chart): poly})

    @classmethod
    def partial(cls, chart, v, order=1):
        chart = tuple(chart)
        if not isinstance(v, Var):
            v = Var.parse(v)
        _check_on_chart(chart, v)
        dexpo = tuple(order if u == v else 0 for u in chart)
        return cls(chart, {dexpo: CoefPoly.const(chart, 1)})

    def _divisor(self):
        """The Scalar of an operator that is divided by or inverted, which
        must have no derivative and no variable."""
        origin = (0,) * len(self.chart)
        if any(dexpo != origin for dexpo in self.terms):
            raise ValueError("division by a non-scalar operator")
        poly = self.terms.get(origin)
        if poly is None:
            return Scalar.zero()
        if list(poly.terms) != [origin]:
            raise ValueError("division by a variable-dependent coefficient")
        return poly.terms[origin]

    def __mul__(self, other):
        if type(other) is not DiffOp:
            return NotImplemented
        return compose(self, other)

    def __truediv__(self, other):
        if type(other) is not DiffOp:
            return NotImplemented
        _check_chart(self, other)
        return self.scaled(Scalar.one() / other._divisor())

    def __pow__(self, q):
        if q < 0:
            return DiffOp.const(self.chart, self._divisor() ** q)
        return op_power(self, q)

    def __reduce__(self):
        # copies and unpickled operators go through the constructor, so they
        # carry no split and share _POLY_ONE when they split afresh
        return DiffOp, (self.chart, self.terms)

    def __repr__(self):
        return "DiffOp(%s)" % (render_diffop(self),)


@functools.cache
def _axis(a, bound):
    """One axis of a Leibniz table: (g, C(a, g), a - g), g = 0 .. min(a, bound)."""
    return tuple((g, comb(a, g), a - g) for g in range(min(a, bound) + 1))


@functools.lru_cache(maxsize=16384)
def _leibniz_table(alpha, bound):
    """(gamma, C(alpha, gamma), alpha - gamma) for every gamma <= alpha with
    gamma <= bound, the first axis slowest and gamma = 0 first: the product
    of the per-axis tuples.  Multi-indices and bounds are few, so each pair
    is tabulated once per working set.  The bound holds the largest one
    (10,773 pairs, ``pde check`` on (2, 5, mass) at q = 5), so a long
    process that checks many families does not keep every table."""
    return tuple((tuple(p[0] for p in parts), prod(p[1] for p in parts),
                  tuple(p[2] for p in parts))
                 for parts in product(*map(_axis, alpha, bound)))


def _flat(op):
    """``op`` split into Leibniz operands: (dens, groups), kept in ``op._split``.

    ``dens`` lists the distinct coefficient denominators, ``_POLY_ONE``
    first.  ``groups`` has one (dexpo, den index, top, terms, rows) per
    derivative multi-index and denominator: ``terms`` lists (flat key,
    value) pairs, the flat key being the chart exponents followed by the
    five parameter exponents of one numerator term and the value its
    ``int`` or ``Fraction`` coefficient; ``top`` is the componentwise
    maximum chart exponent of the dexpo's coefficient polynomial, and
    ``rows`` the cache of derivative rows that ``_leibniz_into`` fills
    when the group is in a right operand.  ``op`` keeps it once whole.
    """
    if split := getattr(op, "_split", None):
        return split
    dens, groups = [_POLY_ONE], []
    for dexpo, poly in op.terms.items():
        # a single term is its own bound; most coefficients of a
        # realization pi(X) are one, and the column maxima cost as much as
        # a Leibniz row
        expos = poly.terms
        top = next(iter(expos)) if len(expos) == 1 else tuple(map(max, zip(*expos)))
        by_den = {}
        for expo, coef in expos.items():
            den = coef.den
            if den is _POLY_ONE:
                i = 0
            else:
                if den not in dens:
                    dens.append(den)
                i = dens.index(den)
            terms = by_den.get(i)
            if terms is None:
                terms = by_den[i] = []
                groups.append((dexpo, i, top, terms, {}))
            for pexpo, c in coef.num.terms.items():
                terms.append((expo + pexpo, c))
    op._split = dens, groups
    return op._split


def _derivative_row(terms, gamma):
    """d^gamma of a group's terms: each (key, c) with gamma <= its chart
    exponents e becomes (key - gamma, c * ff(e, gamma)), ff the product of
    the falling factorials e_i (e_i - 1) ... (e_i - gamma_i + 1); the
    others are dropped."""
    if not any(gamma):
        return terms
    shift = gamma + ZERO_EXPO
    row = []
    for key, c in terms:
        for e, g in zip(key, gamma):
            if g > e:
                break
            for j in range(g):
                c *= e - j
        else:
            row.append((tuple(map(sub, key, shift)), c))
    return row


def _den_product(da, db):
    if da is _POLY_ONE:
        return db
    return da if db is _POLY_ONE else da * db


def _leibniz_into(out, fa, fb, sign, skip_order_zero=False):
    """Add sign * (a . b) into the raw map out, for a and b split by ``_flat``.

    The raw map is ``{den: {dexpo: {flat key: int | Fraction}}}``: each
    numerator term of a coefficient is one flat key, the chart exponents
    followed by the parameter exponents, so the product of two terms adds
    their keys and multiplies two plain numbers.  A product's denominator
    is the product of its operands' denominators, made once per pair of
    denominators before the loops, and its terms go to that denominator's
    bucket; ``_op_of`` sums the buckets into Scalars once.  With every
    denominator 1 there is one bucket and no normalisation.

    One pass over the Leibniz sum

        pa d^alpha . pb d^beta
            = sum_{gamma <= alpha} C(alpha, gamma) pa (d^gamma pb) d^(alpha-gamma+beta),

    with no intermediate operators.  d^gamma pb, the derivative row of a
    group of b (``_derivative_row``), is made once per (group, gamma) and
    kept in the group's ``rows`` for every alpha of a, and for every
    later product with b on the right.  It is zero unless gamma <= top,
    the componentwise maximum chart exponent of pb, so gamma runs over
    min(alpha, top) only: the sum is exact, and an operator of high order
    against coefficients of low degree (S^q against pi(X)) walks a few
    gamma instead of every gamma <= alpha.  ``skip_order_zero`` leaves out
    gamma = 0, the terms pa pb d^(alpha+beta) that a.b and b.a share.
    """
    dens_a, groups_a = fa
    dens_b, groups_b = fb
    buckets = [[out.setdefault(_den_product(da, db), {}) for db in dens_b]
               for da in dens_a]
    for alpha, ia, _, a_terms, _ in groups_a:
        by_den = buckets[ia]
        for beta, ib, top, b_terms, rows in groups_b:
            bucket = by_den[ib]
            table = _leibniz_table(alpha, top)
            for gamma, binom, shift in table[1:] if skip_order_zero else table:
                row = rows.get(gamma)
                if row is None:
                    row = rows[gamma] = _derivative_row(b_terms, gamma)
                if not row:
                    continue
                dexpo = tuple(map(add, shift, beta))
                acc = bucket.get(dexpo)
                if acc is None:
                    acc = bucket[dexpo] = {}
                binom *= sign
                for kb, vb in row:
                    vb *= binom
                    for ka, va in a_terms:
                        key = tuple(map(add, ka, kb))
                        acc[key] = acc.get(key, 0) + va * vb


def _op_of(out, chart):
    """The DiffOp of a ``_leibniz_into`` raw map, one Scalar per
    coefficient: a numerator over 1 as it is, any other one normalised
    over its bucket's denominator, and the buckets of one coefficient
    summed."""
    n = len(chart)
    raw = {}
    for den, bucket in out.items():
        for dexpo, acc in bucket.items():
            nums = {}
            for key, c in acc.items():
                if c:
                    nums.setdefault(key[:n], {})[key[n:]] = c
            if not nums:
                continue
            polys = raw.setdefault(dexpo, {})
            for expo, terms in nums.items():
                num = _poly_of(terms)
                coef = _scalar_over_one(num) if den is _POLY_ONE else Scalar(num, den)
                prev = polys.get(expo)
                polys[expo] = coef if prev is None else prev + coef
    return DiffOp.of_raw(raw, chart)


def compose(a, b):
    """Operator product a . b in canonical normal order (Leibniz rule).

    The signed Leibniz accumulator ``_leibniz_into`` called once with
    sign +1; the DiffOp is built once from its raw map.
    """
    _check_chart(a, b)
    out = {}
    _leibniz_into(out, _flat(a), _flat(b), 1)
    return _op_of(out, a.chart)


def commutator(a, b, minus=()):
    """[a, b] - sum(coef . z for z, coef in minus) in canonical form.

    The accumulator adds a.b and then -(b.a) into one raw map.  Both
    products leave out gamma = 0: those terms are pa pb d^(alpha+beta) in
    a.b and pb pa d^(beta+alpha) in b.a, equal because coefficients
    commute, so they cancel in every commutator.  ``minus`` subtracts a
    linear combination in the same map, as the products coef . z, with no
    second operator: scalar coefficients make a bracket audit
    [pi X, pi Y] - pi([X, Y]), an operator on the chart an intertwining
    residual [S, pi X] - (pi' - pi)(X) . S.  A zero coefficient is skipped.
    """
    _check_chart(a, b)
    out = {}
    fa, fb = _flat(a), _flat(b)
    _leibniz_into(out, fa, fb, 1, skip_order_zero=True)
    _leibniz_into(out, fb, fa, -1, skip_order_zero=True)
    for z, coef in minus:
        _check_chart(a, z)
        if type(coef) is not DiffOp:
            coef = DiffOp.const(a.chart, coef)
        _check_chart(a, coef)
        if coef:
            _leibniz_into(out, _flat(coef), _flat(z), -1)
    return _op_of(out, a.chart)


def op_power(a, q):
    """q-th composition power (q >= 0): the identity for q = 0, else q - 1
    products starting from ``a``."""
    if q < 0:
        raise ValueError("negative operator power")
    if q == 0:
        return DiffOp.const(a.chart, 1)
    out = a
    for _ in range(q - 1):
        out = compose(out, a)
    return out


def parse_diffop(text, chart):
    """Parse the operator grammar on the given chart (module docstring)."""
    chart = make_chart(*chart)

    def atom(token):
        if token.startswith("d/d"):
            return DiffOp.partial(chart, token[3:])
        if re.fullmatch(r"t|[xy]\d+", token):
            return DiffOp.of_poly(CoefPoly.var(chart, Var.parse(token)))
        return DiffOp.const(chart, scalar_atom(token))

    return parse_expression(text, atom, "operator")


# --- rendering --------------------------------------------------------------

def _var_text(v, latex):
    return "%s_{%d}" % (v.kind, v.n) if latex and v.kind != "t" else str(v)


def _partial_text(v, d, latex):
    if latex:
        return power_text(r"\partial_{%s}" % _var_text(v, True), d, True)
    return "d/d%s" % (v,) if d == 1 else "(d/d%s)^%d" % (v, d)


def _render(chart, items, latex=False):
    """The terms of (derivative multi-index, CoefPoly) items through the
    one sum writer of ``scalars``; a variable is named only when its
    exponent is nonzero."""
    terms = []
    for dexpo, poly in items:
        partials = [_partial_text(v, d, latex) for v, d in zip(chart, dexpo) if d]
        for expo, coef in poly.items():
            factors = [power_text(_var_text(v, latex), e, latex)
                       for v, e in zip(chart, expo) if e]
            terms.append(term_text(coef_text(coef, latex), factors + partials, latex))
    return sum_text(terms)


def render_diffop(op):
    """Text form in the operator grammar (round-trips through parse)."""
    return _render(op.chart, op.items())


def latex_diffop(op):
    """LaTeX form of the operator."""
    return _render(op.chart, op.items(), latex=True)


def render_poly_in_vars(p):
    """Text form of a coefficient polynomial (grammar-compatible)."""
    return _render(p.chart, [((), p)])
