"""Exact coefficient arithmetic for the toolkit.

Everything downstream (structure constants, module actions, differential
operators) computes over the field of rational functions in the five weight
parameters.  This module provides that field: sparse multivariate polynomials
with rational coefficients (ParamPoly), normalized quotients of them
(Scalar), a polynomial gcd so quotients stay canonical (the monomial
content split off, then a primitive pseudo-remainder sequence in the top
symbol on ParamPoly itself, Brown 1971), the integer constants attached
to the central extensions, and three pieces that the other modules build
on: ``_Sparse``, the one base of every finite sparse sum,
``parse_expression``, the one text grammar (numbers, parameter names,
``+ - * / ^`` and parentheses, with the atoms supplied by the caller), and
the one writer of printed sums (``term_text``, ``sum_text``,
``coef_text``), in text and in LaTeX.

``is_zero()`` is a method on every value here and on every ``_Sparse``
sum, and it always equals ``not value``: zero is false in a test.

Coefficients are exact and fraction-free where they can be: an integral
coefficient is a plain ``int`` and only a non-integral one is a
``Fraction``.  Both compare equal, hash alike and print alike, so the
representation never shows in results.  Divisions take an exact quotient
(``_quotient``: integer division when it leaves no remainder, a ``Fraction``
otherwise), so no ``float`` can appear.

Half-integer labels never appear: the label ell is carried as the integer
twoEll and every formula is written in terms of it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import factorial, gcd, lcm
from operator import add, neg, sub

SYMBOLS = ("delta", "mu", "r", "theta", "kappa")
NSYM = len(SYMBOLS)

ZERO_EXPO = (0,) * NSYM
_SYMBOL_EXPO = {name: tuple(int(j == i) for j in range(NSYM))
                for i, name in enumerate(SYMBOLS)}


def _rational(value):
    """value as an exact coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a, b):
    """Exact quotient of two coefficients, canonical like _rational."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _rational(Fraction(a, b))


def _as_poly(value):
    """value as a ParamPoly (int and Fraction become constants), else None."""
    if type(value) is ParamPoly:
        return value
    if isinstance(value, (int, Fraction)):
        return ParamPoly.const(value)
    return None


def _poly_of(terms):
    """A ParamPoly over nonzero coefficients, integral Fractions made ints."""
    for expo, coef in terms.items():
        if type(coef) is Fraction and coef.denominator == 1:
            terms[expo] = coef.numerator
    out = ParamPoly.__new__(ParamPoly)
    out.terms = terms
    return out


class DivisionByZero(ZeroDivisionError):
    """Raised when a Scalar division has a zero divisor."""


class UnsupportedFamily(ValueError):
    """Raised when an operation is not defined for the given family."""


def _grlex_key(expo):
    # graded lexicographic; kappa is the most significant tie-breaker
    return (sum(expo), expo[::-1])


class ParamPoly:
    """Sparse polynomial in the parameter symbols over the rationals.

    terms maps an exponent vector (one slot per entry of SYMBOLS) to a
    nonzero coefficient: an ``int`` when it is integral, otherwise a
    ``Fraction`` with denominator other than 1.  The zero polynomial has an
    empty map.  Instances are treated as immutable once constructed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for expo, coef in terms.items():
                coef = _rational(coef)
                if coef:
                    clean[tuple(expo)] = coef
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        return cls({ZERO_EXPO: value})

    @classmethod
    def symbol(cls, name):
        expo = _SYMBOL_EXPO.get(name)
        if expo is None:
            raise ValueError("unknown symbol %r" % (name,))
        return _poly_of({expo: 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and ZERO_EXPO in terms)

    def const_value(self):
        """The Fraction value of a constant polynomial."""
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get(ZERO_EXPO, 0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the grlex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return _poly_of({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            acc = terms.get(expo, 0) + coef
            if acc:
                terms[expo] = acc
            else:
                terms.pop(expo, None)
        return _poly_of(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not ParamPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return ParamPoly.zero()
            other = _rational(other)
            return _poly_of({e: c * other for e, c in self.terms.items()})
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(map(add, e1, e2))
                s = acc.get(expo, 0) + c1 * c2
                if s:
                    acc[expo] = s
                else:
                    acc.pop(expo, None)
        return _poly_of(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power wants a nonnegative integer")
        out = ParamPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute(self, assign):
        """Replace symbols by values (Fraction, int, or ParamPoly)."""
        values = {}
        for name, val in assign.items():
            if name not in SYMBOLS:
                raise ValueError("unknown symbol %r" % (name,))
            values[SYMBOLS.index(name)] = (
                val if isinstance(val, ParamPoly) else ParamPoly.const(val)
            )
        out = ParamPoly.zero()
        for expo, coef in self.terms.items():
            term = ParamPoly.const(coef)
            residual = list(expo)
            for i, val in values.items():
                if expo[i]:
                    term = term * val ** expo[i]
                    residual[i] = 0
            out = out + term * ParamPoly({tuple(residual): 1})
        return out

    def __repr__(self):
        return "ParamPoly(%s)" % (render_poly(self),)


def _heap_key(expo):
    """A key whose least value on a heap is the grlex-greatest exponent."""
    return (-sum(expo), *map(neg, reversed(expo)))


def poly_div_exact(a, b):
    """Quotient a/b when b divides a exactly, else None.

    The remainder is one dict updated in place, and its leading term comes
    off a heap of grlex keys (Monagan & Pearce, CASC 2007), so a division
    costs time in proportion to the terms it touches.  A key whose term has
    cancelled since it was pushed is skipped when it surfaces.
    """
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    eb, cb = b.leading()
    tail = [(e, c) for e, c in b.terms.items() if e != eb]
    rem = dict(a.terms)
    heap = [(_heap_key(e), e) for e in rem]
    heapify(heap)
    quot = {}
    while heap:
        ea = heappop(heap)[1]
        ca = rem.pop(ea, 0)
        if not ca:
            continue
        expo = tuple(map(sub, ea, eb))
        if min(expo) < 0:
            return None
        coef = _quotient(ca, cb)
        quot[expo] = coef
        # every later term of the remainder is grlex-smaller than ea
        for e, c in tail:
            e = tuple(map(add, expo, e))
            acc = rem.get(e, 0) - coef * c
            if not acc:
                del rem[e]
                continue
            if e not in rem:
                heappush(heap, (_heap_key(e), e))
            rem[e] = acc
    return _poly_of(quot)


# gcd machinery: recursive content and primitive part, and a primitive
# pseudo-remainder sequence in the top symbol, all on ParamPoly.

def _content(p, v):
    """(content, primitive part) of p as a polynomial in symbol v: the
    monic gcd of its coefficients, and p divided by it."""
    by_power = {}
    for expo, coef in p.terms.items():
        by_power.setdefault(expo[v], {})[expo[:v] + (0,) + expo[v + 1:]] = coef
    cont = ParamPoly.zero()
    for terms in by_power.values():
        cont = poly_gcd(cont, _poly_of(terms))
    prim = poly_div_exact(p, cont)
    assert prim is not None, "content division must be exact"
    return cont, prim


def _lead(p, v):
    """(degree, leading coefficient) of nonzero p as a polynomial in v."""
    deg = max(e[v] for e in p.terms)
    return deg, _poly_of({e[:v] + (0,) + e[v + 1:]: c
                          for e, c in p.terms.items() if e[v] == deg})


def _pseudo_rem(a, b, v):
    """Pseudo-remainder of a by b in symbol v (deg_v a >= deg_v b >= 0)."""
    db, lb = _lead(b, v)
    while a:
        da, la = _lead(a, v)
        if da < db:
            break
        shift = ZERO_EXPO[:v] + (da - db,) + ZERO_EXPO[v + 1:]
        a = a * lb - _shift(b, shift, add) * la
    return a


def _zprim(p):
    """p rescaled to coprime integer coefficients; p itself when it has them.

    The rational content of reduced fractions n_i/d_i is
    gcd(n_i)/lcm(d_i), so one positive rescale by its inverse suffices.
    """
    num, den = 0, 1
    for c in p.terms.values():
        if type(c) is int:
            num = gcd(num, c)
        else:
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
    if num == 1 and den == 1:
        return p
    return p * _quotient(den, num)


def _monic(p):
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p * _quotient(1, lc)


def _min_expo(p):
    """Componentwise least exponent over p's terms: p = x^alpha * p'."""
    return tuple(map(min, zip(*p.terms)))


def _shift(p, expo, op):
    """p with every exponent e replaced by op(e, expo), op add or sub."""
    if not any(expo):
        return p
    return _poly_of({tuple(map(op, e, expo)): c for e, c in p.terms.items()})


def poly_gcd(a, b):
    """Monic gcd of two ParamPoly over the rationals.

    The monomial content is split off first.  A monomial shares only the
    symbols themselves with any polynomial, so with alpha and beta the
    componentwise least exponents, gcd(x^alpha*a', x^beta*b') =
    x^min(alpha, beta) * gcd(a', b'), and the second factor is 1 when a or b
    is a single term.  Leading terms multiply under grlex, so the product
    stays monic.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    alpha, beta = _min_expo(a), _min_expo(b)
    shared = tuple(map(min, alpha, beta))
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _poly_of({shared: 1})
    g = _prs_gcd(_shift(a, alpha, sub), _shift(b, beta, sub))
    return _shift(g, shared, add)


def _prs_gcd(a, b):
    """Monic gcd of two non-constant ParamPoly by a primitive PRS."""
    v = max(i for e in (*a.terms, *b.terms) for i, k in enumerate(e) if k)
    (ca, pa), (cb, pb) = _content(a, v), _content(b, v)
    cg = poly_gcd(ca, cb)
    if _lead(pa, v)[0] < _lead(pb, v)[0]:
        pa, pb = pb, pa
    while True:
        rem = _pseudo_rem(pa, pb, v)
        if not rem:
            break
        # the content in the other symbols is monic, so the remainder is
        # also made primitive over the integers: without that rescale its
        # coefficients grow exponentially along the sequence
        pa, pb = pb, _zprim(_content(rem, v)[1])
    return _monic(pb * cg)


# The one denominator of every Scalar whose denominator has no parameters.
# Arithmetic tests for it by identity; it is never mutated.
_POLY_ONE = ParamPoly.const(1)


def _scalar_over_one(num):
    """num / 1 built without normalisation: canonical for any num."""
    out = Scalar.__new__(Scalar)
    out.num = num
    out.den = _POLY_ONE
    return out


class Scalar:
    """Canonical quotient of two ParamPoly.

    Normal form: gcd(num, den) = 1 and the denominator is monic under the
    grlex order, so equality is plain structural equality and zero-testing
    inspects the numerator.  A denominator without parameters is always the
    shared one-polynomial ``_POLY_ONE`` (the same object), so ``+``, ``*``
    and ``* int`` on two such scalars combine the numerators directly and
    skip the gcd and the rescale.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, ParamPoly):
            num = ParamPoly.const(num)
        if den is None:
            self.num = num
            self.den = _POLY_ONE
            return
        if not isinstance(den, ParamPoly):
            den = ParamPoly.const(den)
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero():
            den = _POLY_ONE
        elif not den.is_const():
            g = poly_gcd(num, den)
            if not g.is_const() or g.const_value() != 1:
                num = poly_div_exact(num, g)
                den = poly_div_exact(den, g)
        if den.is_const():
            c = den.const_value()
            if c != 1:
                num = num * _quotient(1, c)
            den = _POLY_ONE
        else:
            _, lc = den.leading()
            if lc != 1:
                inv = _quotient(1, lc)
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return _scalar_over_one(ParamPoly())

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def const(cls, value):
        return _scalar_over_one(ParamPoly.const(value))

    @classmethod
    def symbol(cls, name):
        return _scalar_over_one(ParamPoly.symbol(name))

    def is_zero(self):
        return not self.num.terms

    def is_rational(self):
        return self.den is _POLY_ONE and self.num.is_const()

    def is_one(self):
        return self.den is _POLY_ONE and self.num.terms == _POLY_ONE.terms

    def rational_value(self):
        """The Fraction value of a parameter-free Scalar."""
        if not self.is_rational():
            raise ValueError("scalar %s is not parameter-free" % (self,))
        return self.num.const_value()

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __reduce__(self):
        # copies and unpickled scalars go through the constructor, so they
        # share _POLY_ONE too
        return Scalar, (self.num, self.den)

    def __neg__(self):
        out = Scalar.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __add__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return _scalar_over_one(self.num + other.num)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self.den is _POLY_ONE and isinstance(other, int):
            return _scalar_over_one(self.num * other)
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return _scalar_over_one(self.num * other.num)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("scalar division by zero")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("scalar power wants an integer")
        if k < 0:
            return Scalar(self.den, self.num) ** (-k)
        return Scalar(self.num ** k, self.den ** k)

    def substitute(self, assign):
        """Specialize symbols; assign maps names to Fraction/int/ParamPoly."""
        return Scalar(self.num.substitute(assign), self.den.substitute(assign))

    def __repr__(self):
        return "Scalar(%s)" % (render_scalar(self),)

    def __str__(self):
        return render_scalar(self)


def _coerce_scalar(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.const(value)
    if isinstance(value, ParamPoly):
        return Scalar(value)
    return None


class VariableMismatch(ValueError):
    """Operands live on different charts (or use variables outside one)."""


def _check_chart(a, b):
    if a.chart != b.chart:
        raise VariableMismatch(
            "charts differ: %s vs %s"
            % tuple("(%s)" % ",".join(map(str, o.chart)) for o in (a, b))
        )


class _Sparse:
    """A finite sparse sum: ``terms`` maps each key to a nonzero coefficient.

    The one base of the toolkit's linear combinations: ``GenCombo``
    (generators), ``ModuleVector`` (basis monomials), ``CoefPoly`` (chart
    monomials) and ``DiffOp`` (derivative multi-indices, with CoefPoly
    coefficients).  A CoefPoly or DiffOp also has a ``chart``, and two sums
    combine only on the same one; for the other classes it is None.  Sums
    are immutable once built.  A zero sum is false, ``is_zero()`` equals
    ``not sum``, sums are equal when class, chart and terms agree, and
    equal sums hash alike.

    Accumulators fill a raw map instead: ``{key: int | Scalar}``, or for a
    DiffOp ``{key: raw map of one CoefPoly}``.  ``add_into`` adds terms to
    one, and ``of_raw`` makes the sum once at the end.  The Leibniz
    accumulator of ``diffop`` keeps its own map of plain numbers, keyed by
    denominator, derivative multi-index and flat chart-and-parameter
    exponents, and ``diffop._op_of`` builds its DiffOp.
    """

    __slots__ = ("terms",)
    chart = None
    # the class of a nested coefficient (CoefPoly in a DiffOp), else None
    _inner = None
    # sort key of items() over (key, coefficient) pairs; None sorts by key
    _order = None

    @classmethod
    def zero(cls, chart=None):
        return cls.of_raw({}, None if chart is None else tuple(chart))

    @classmethod
    def of(cls, key, coef=1):
        return cls.of_raw(cls._coerced({key: coef}))

    @classmethod
    def of_raw(cls, raw, chart=None):
        """The sum of a raw map with canonical keys and coefficients, built
        without the public constructor's validation: zero coefficients and
        empty nested maps are dropped."""
        out = cls.__new__(cls)
        if chart is not None:
            out.chart = chart
        inner = cls._inner
        if inner is None:
            out.terms = {key: c for key, c in raw.items() if c}
            return out
        terms = out.terms = {}
        for key, acc in raw.items():
            acc = {k: c for k, c in acc.items() if c}
            if acc:  # inner.of_raw(acc, chart), inlined on this hot path
                poly = terms[key] = inner.__new__(inner)
                poly.chart = chart
                poly.terms = acc
        return out

    @classmethod
    def add_into(cls, out, pairs, coef=None):
        """Add the (key, coefficient) ``pairs``, times ``coef`` when one is
        given, into the raw map ``out``."""
        inner = cls._inner
        if inner is not None:
            for key, poly in pairs:
                inner.add_into(out.setdefault(key, {}), poly.terms.items(), coef)
            return
        for key, c in pairs:
            if coef is not None:
                c = coef * c
            prev = out.get(key)
            out[key] = c if prev is None else prev + c

    @staticmethod
    def _coerced(terms):
        """Outside input as terms: each coefficient made a Scalar (an int,
        Fraction or ParamPoly is one), zeros dropped."""
        out = {}
        for key, value in (terms or {}).items():
            coef = _coerce_scalar(value)
            if coef is None:
                raise TypeError("cannot use %r as a coefficient" % (value,))
            if coef:
                out[key] = coef
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _sum(self, other, coef):
        if type(other) is not type(self):
            return NotImplemented
        _check_chart(self, other)
        out = {}
        self.add_into(out, self.terms.items())
        self.add_into(out, other.terms.items(), coef)
        return self.of_raw(out, self.chart)

    def __add__(self, other):
        return self._sum(other, None)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, coef):
        out = {}
        self.add_into(out, self.terms.items(), coef)
        return self.of_raw(out, self.chart)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def items(self):
        """The (key, coefficient) pairs in the class's display order."""
        return sorted(self.terms.items(), key=self._order)

    def __repr__(self):
        """The sum in the one writer's text, such as ``-mu*D + 2*H``."""
        return sum_text([term_text(coef_text(c), [str(key)]) for key, c in self.items()])


def central_constant(spec, m):
    """Integer I_m of the central bracket [P(m), P(2l-m)] for spec's family.

    mass:   I_m = (-1)^(m + l + 1/2) (2l-m)! m!   (twoEll odd)
    exotic: I_m = (-1)^m (2l-m)! m!               (twoEll even)
    """
    ext = spec.ext
    two_ell = spec.twoEll
    if ext == "none":
        raise UnsupportedFamily("centerless family has no central constant")
    if not 0 <= m <= two_ell:
        raise ValueError("index m=%r outside 0..%d" % (m, two_ell))
    mag = factorial(two_ell - m) * factorial(m)
    if ext == "mass":
        # m + l + 1/2 = m + (twoEll + 1)/2, an integer since twoEll is odd
        sign = -1 if (m + (two_ell + 1) // 2) % 2 else 1
    elif ext == "exotic":
        sign = -1 if m % 2 else 1
    else:
        raise UnsupportedFamily("unknown extension %r" % (ext,))
    return sign * mag


# --- writing sums ------------------------------------------------------------
#
# The one writer of every printed sum: parameter polynomials here,
# operators in diffop, generator combinations and module vectors in cli.
# A term is a coefficient text times factor texts, and a coefficient of 1
# or -1 before factors becomes the term's sign; the terms join with their
# signs folded, "a - b" and never "a + -b".  Text output such as
# (2*delta+1)/mu parses back with parse_scalar.

_LATEX_SYMBOLS = (r"\delta", r"\mu", "r", r"\theta", r"\kappa")


def term_text(coef, factors, latex=False):
    """The signed text of the coefficient text ``coef`` times ``factors``."""
    joiner = " " if latex else "*"
    if factors and coef in ("1", "-1"):
        return coef[:-1] + joiner.join(factors)  # the sign alone
    return joiner.join([coef, *factors])


def sum_text(terms, spaced=True):
    """Signed term texts joined as " + " and " - " (or, not ``spaced``, as
    "+" and "-"); "0" when there are none."""
    if not terms:
        return "0"
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    return terms[0] + "".join(
        minus + t[1:] if t.startswith("-") else plus + t for t in terms[1:])


def power_text(base, e, latex=False):
    """The text of ``base`` to the power ``e`` >= 1."""
    if e == 1:
        return base
    return ("%s^{%d}" if latex else "%s^%d") % (base, e)


def coef_text(s, latex=False):
    """A Scalar coefficient's text: in parentheses when it is a sum or, in
    text, a quotient, which keeps its leading sign outside them so that
    ``sum_text`` folds it; a leading sign alone needs none, and neither
    does a LaTeX quotient, which is one fraction."""
    txt = latex_scalar(s) if latex else render_scalar(s)
    if latex and s.den is not _POLY_ONE:
        return txt
    sign, body = ("-", txt[1:]) if txt.startswith("-") else ("", txt)
    if "+" in body or "-" in body:
        return "(%s)" % txt
    if "/" in body:
        return "%s(%s)" % (sign, body)
    return txt


def _poly_text(p, latex):
    names = _LATEX_SYMBOLS if latex else SYMBOLS
    number = _latex_fraction if latex else str
    return sum_text([
        term_text(number(p.terms[expo]),
                  [power_text(names[i], e, latex) for i, e in enumerate(expo) if e],
                  latex)
        for expo in sorted(p.terms, key=_grlex_key, reverse=True)
    ], spaced=False)


def render_poly(p):
    return _poly_text(p, False)


def latex_poly(p):
    return _poly_text(p, True)


def _latex_fraction(frac):
    if frac.denominator == 1:
        return str(frac.numerator)
    sign = "-" if frac < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(frac.numerator), frac.denominator)


def render_scalar(s):
    num = render_poly(s.num)
    if s.den is _POLY_ONE:
        return num
    den = render_poly(s.den)
    if len(s.num.terms) > 1:
        num = "(%s)" % num
    if len(s.den.terms) > 1 or "*" in den:
        den = "(%s)" % den
    return "%s/%s" % (num, den)


def latex_scalar(s):
    """LaTeX of a Scalar; a quotient is one fraction of integral polynomials,
    with the sign of the numerator's leading term pulled out of it."""
    if s.den is _POLY_ONE:
        return latex_poly(s.num)
    coefs = [*s.num.terms.values(), *s.den.terms.values()]
    scale = Fraction(lcm(*(Fraction(c).denominator for c in coefs)),
                     gcd(*(Fraction(c).numerator for c in coefs)))
    num, den = s.num * scale, s.den * scale
    sign = ""
    if num.leading()[1] < 0:
        sign, num = "-", -num
    return r"%s\frac{%s}{%s}" % (sign, latex_poly(num), latex_poly(den))


# The one text grammar, shared by parse_scalar and diffop.parse_diffop:
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := ("+" | "-")* (atom | "(" expr ")") ("^" ("+" | "-")* integer)*
#
# "**" reads as "^", signs may open every factor and exponent, and "^"
# chains left to right.  The atoms are numbers, names and d/d<variable>.
_TOKEN_RE = re.compile(r"\s*(d/d(?:t|x\d+|y\d+)|\d+|[A-Za-z_]\w*|\*\*|[-+*/^()])")


def parse_expression(text, atom, noun="scalar"):
    """Parse ``text`` in the one grammar.

    ``atom(token)`` gives the value of an atom token and raises ValueError
    for a token that is none; the values combine with Python's ``+ - * /
    **`` and unary minus, so the grammar serves any type with that
    arithmetic.  ``noun`` names the expression in the end-of-input error.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ValueError("bad character at %d in %r" % (pos, text))
            break
        tokens.append("^" if match.group(1) == "**" else match.group(1))
        pos = match.end()
    tokens.reverse()  # taken from the end

    def peek():
        return tokens[-1] if tokens else None

    def negated():
        negative = False
        while peek() in ("+", "-"):
            negative ^= tokens.pop() == "-"
        return negative

    def expr():
        value = term()
        while peek() in ("+", "-"):
            op = tokens.pop()
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            op = tokens.pop()
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor():
        negative = negated()
        if not tokens:
            raise ValueError("unexpected end of %s expression" % (noun,))
        tok = tokens.pop()
        if tok == "(":
            value = expr()
            if not tokens or tokens.pop() != ")":
                raise ValueError("missing closing parenthesis")
        else:
            value = atom(tok)
        while peek() == "^":
            tokens.pop()
            negative_power = negated()
            tok = tokens.pop() if tokens else None
            if tok is None or not tok.isdigit():
                raise ValueError("exponent must be an integer")
            value = value ** (-int(tok) if negative_power else int(tok))
        return -value if negative else value

    value = expr()
    if tokens:
        raise ValueError("trailing input at token %r" % (peek(),))
    return value


def scalar_atom(token):
    """The Scalar of a number or parameter-name token of the grammar."""
    if token.isdigit():
        return Scalar.const(int(token))
    if token in SYMBOLS:
        return Scalar.symbol(token)
    raise ValueError("unexpected token %r" % (token,))


def parse_scalar(text):
    """Parse a Scalar, e.g. '(2*delta+1)/mu'; the atoms are numbers and the
    five parameter names."""
    return parse_expression(text, scalar_atom)
