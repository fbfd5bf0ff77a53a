"""Vector-field realizations of the families on their natural charts.

``right_action`` realizes the creation wing by coordinate lifts (its
domain is the wing itself); ``left_action`` realizes every generator of
the extended families by first-order operators with polynomial
coefficients, with the diagonal parameters appearing as constants.
Both honor [pi(X), pi(Y)] = pi([X, Y]) on their domains, and
``rep_check`` verifies that identity exactly, pair by pair.
"""

import functools
from math import comb, factorial

from .algebra import Gen, bracket, decomposition, enumerate_generators
from .diffop import CoefPoly, DiffOp, Var, commutator, compose, make_chart
from .scalars import Scalar, central_constant
from .verma import resolve_params


class UnsupportedGenerator(KeyError):
    """No printed realization exists for this generator in this family."""


@functools.cache
def chart(spec):
    """The family's chart: t plus the creation-string coordinates.

    Built once per family: ``AlgebraSpec`` is frozen and the chart is an
    immutable tuple.
    """
    two_ell = spec.twoEll
    if spec.ext == "none":
        return make_chart("t", "x0")
    if spec.d == 1:
        half = (two_ell - 1) // 2
        return make_chart("t", *("x%d" % j for j in range(half + 1)))
    if spec.ext == "mass":
        half = (two_ell - 1) // 2
        return make_chart(
            "t",
            *("x%d" % j for j in range(half + 1)),
            *("y%d" % j for j in range(half + 1)),
        )
    ell = two_ell // 2
    return make_chart(
        "t",
        *("x%d" % j for j in range(ell + 1)),
        *("y%d" % j for j in range(ell)),
    )


def _term(ch, coef, vpow=None, dpow=None):
    """coef * prod(vars) * prod(partials) as a one-term DiffOp."""
    if isinstance(coef, int):
        coef = Scalar.const(coef)
    expo = [0] * len(ch)
    for v, e in (vpow or {}).items():
        expo[ch.index(v)] += e
    dexpo = [0] * len(ch)
    for v, e in (dpow or {}).items():
        dexpo[ch.index(v)] += e
    return DiffOp(ch, {tuple(dexpo): CoefPoly(ch, {tuple(expo): coef})})


def _x(n):
    return Var("x", n)


def _y(n):
    return Var("y", n)


_T = Var("t")


def right_domain(spec):
    """Generators covered by the coordinate-lift realization."""
    if spec.ext == "none":
        return [Gen("P", 2)]
    return list(decomposition(spec)[0])


def right_action(spec, gen):
    """Coordinate-lift realization of the creation wing."""
    ch = chart(spec)
    two_ell = spec.twoEll
    if spec.ext == "none":
        if gen == Gen("P", 2):
            return _term(ch, 1, dpow={_x(0): 1})
        raise UnsupportedGenerator("no right realization of %s" % (gen,))
    if gen == Gen("H"):
        out = _term(ch, 1, dpow={_T: 1})
        if spec.d == 1:
            half = (two_ell - 1) // 2
            for j in range(1, half + 1):
                out = out + _term(ch, j, vpow={_x(j): 1}, dpow={_x(j - 1): 1})
            return out
        if spec.ext == "mass":
            half = (two_ell - 1) // 2
            for n in range(1, half + 1):
                out = out + _term(ch, n, vpow={_x(n): 1}, dpow={_x(n - 1): 1})
                out = out + _term(ch, n, vpow={_y(n): 1}, dpow={_y(n - 1): 1})
            return out
        ell = two_ell // 2
        for n in range(1, ell + 1):
            out = out + _term(ch, n, vpow={_x(n): 1}, dpow={_x(n - 1): 1})
        for n in range(1, ell):
            out = out + _term(ch, n, vpow={_y(n): 1}, dpow={_y(n - 1): 1})
        return out
    if gen.tag == "P":
        if spec.d == 1 and gen.sign == "" and gen.n <= (two_ell - 1) // 2:
            return _term(ch, 1, dpow={_x(gen.n): 1})
        if spec.d == 2:
            bound = (two_ell - 1) // 2 if spec.ext == "mass" else (
                two_ell // 2 if gen.sign == "+" else two_ell // 2 - 1
            )
            if gen.sign == "+" and gen.n <= bound:
                return _term(ch, 1, dpow={_x(gen.n): 1})
            if gen.sign == "-" and gen.n <= bound:
                return _term(ch, 1, dpow={_y(gen.n): 1})
    raise UnsupportedGenerator("no right realization of %s" % (gen,))


def left_action(spec, gen, params=None):
    """First-order realization of any generator of an extended family."""
    if spec.ext == "none":
        raise UnsupportedGenerator("no left realization for the centerless family")
    pvals = resolve_params(spec, params)
    ch = chart(spec)
    two_ell = spec.twoEll
    if spec.d == 1:
        return _left_line(spec, gen, pvals, ch, two_ell)
    if spec.ext == "mass":
        return _left_planar_mass(spec, gen, pvals, ch, two_ell)
    return _left_planar_exotic(spec, gen, pvals, ch, two_ell)


def _left_line(spec, gen, pvals, ch, two_ell):
    half = (two_ell - 1) // 2
    halfp = (two_ell + 1) // 2
    if gen == Gen("M"):
        return DiffOp.const(ch, pvals["mu"])
    if gen == Gen("H"):
        return _term(ch, -1, dpow={_T: 1})
    if gen == Gen("D"):
        out = DiffOp.const(ch, pvals["delta"]) + _term(ch, -2, vpow={_T: 1}, dpow={_T: 1})
        for j in range(half + 1):
            out = out + _term(ch, -(two_ell - 2 * j), vpow={_x(j): 1}, dpow={_x(j): 1})
        return out
    if gen == Gen("C"):
        out = compose_t_d(spec, pvals, ch)
        out = out + _term(ch, 1, vpow={_T: 2}, dpow={_T: 1})
        out = out + _term(
            ch,
            pvals["mu"] * Scalar.const(factorial(halfp) ** 2) / Scalar.const(2),
            vpow={_x(half): 2},
        )
        for j in range(half):
            out = out + _term(ch, -(two_ell - j), vpow={_x(j): 1}, dpow={_x(j + 1): 1})
        return out
    if gen.tag == "P" and gen.sign == "" and 0 <= gen.n <= two_ell:
        k = gen.n
        out = DiffOp.zero(ch)
        for j in range(max(two_ell - k, 0), half + 1):
            coef = pvals["mu"] * Scalar.const(
                comb(k, two_ell - j) * central_constant(spec, two_ell - j)
            )
            out = out + _term(ch, coef, vpow={_T: k - two_ell + j, _x(j): 1})
        for j in range(0, half + 1):
            if comb_safe(k, j) == 0:
                continue
            out = out + _term(
                ch, -comb_safe(k, j), vpow={_T: k - j}, dpow={_x(j): 1}
            )
        return out
    raise UnsupportedGenerator("no left realization of %s" % (gen,))


def comb_safe(n, k):
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def compose_t_d(spec, pvals, ch):
    """t * leftAction(D): the common sl2 part of the special generator."""
    d_op = left_action(spec, Gen("D"), params=dict(pvals))
    t_op = _term(ch, 1, vpow={_T: 1})
    return compose(t_op, d_op)


def _left_planar_mass(spec, gen, pvals, ch, two_ell):
    half = (two_ell - 1) // 2
    halfp = (two_ell + 1) // 2
    if gen == Gen("M"):
        return DiffOp.const(ch, pvals["mu"])
    if gen == Gen("H"):
        return _term(ch, -1, dpow={_T: 1})
    if gen == Gen("D"):
        out = DiffOp.const(ch, pvals["delta"]) + _term(ch, -2, vpow={_T: 1}, dpow={_T: 1})
        for n in range(half + 1):
            out = out + _term(ch, -(two_ell - 2 * n), vpow={_x(n): 1}, dpow={_x(n): 1})
            out = out + _term(ch, -(two_ell - 2 * n), vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("J"):
        out = DiffOp.const(ch, pvals["r"])
        for n in range(half + 1):
            out = out + _term(ch, -1, vpow={_x(n): 1}, dpow={_x(n): 1})
            out = out + _term(ch, 1, vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("C"):
        out = compose_t_d(spec, pvals, ch)
        out = out + _term(ch, 1, vpow={_T: 2}, dpow={_T: 1})
        coef = pvals["mu"] * Scalar.const(halfp * central_constant(spec, halfp))
        out = out + _term(ch, coef, vpow={_x(half): 1, _y(half): 1})
        for n in range(half):
            out = out + _term(ch, -(two_ell - n), vpow={_x(n): 1}, dpow={_x(n + 1): 1})
            out = out + _term(ch, -(two_ell - n), vpow={_y(n): 1}, dpow={_y(n + 1): 1})
        return out
    if gen.tag == "P" and gen.sign in ("+", "-") and 0 <= gen.n <= two_ell:
        n = gen.n
        partner = _y if gen.sign == "+" else _x
        own = _x if gen.sign == "+" else _y
        out = DiffOp.zero(ch)
        for k in range(max(two_ell - n, 0), half + 1):
            coef = pvals["mu"] * Scalar.const(
                comb(n, two_ell - k) * central_constant(spec, two_ell - k)
            )
            out = out + _term(ch, coef, vpow={_T: n - two_ell + k, partner(k): 1})
        for k in range(0, half + 1):
            c = comb_safe(n, k)
            if c == 0:
                continue
            out = out + _term(ch, -c, vpow={_T: n - k}, dpow={own(k): 1})
        return out
    raise UnsupportedGenerator("no left realization of %s" % (gen,))


def _left_planar_exotic(spec, gen, pvals, ch, two_ell):
    ell = two_ell // 2
    if gen == Gen("Theta"):
        return DiffOp.const(ch, -pvals["theta"])
    if gen == Gen("H"):
        return _term(ch, -1, dpow={_T: 1})
    if gen == Gen("D"):
        out = DiffOp.const(ch, pvals["delta"]) + _term(ch, -2, vpow={_T: 1}, dpow={_T: 1})
        for n in range(ell):
            out = out + _term(ch, -2 * (ell - n), vpow={_x(n): 1}, dpow={_x(n): 1})
            out = out + _term(ch, -2 * (ell - n), vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("J"):
        out = DiffOp.const(ch, pvals["r"])
        for n in range(ell + 1):
            out = out + _term(ch, -1, vpow={_x(n): 1}, dpow={_x(n): 1})
        for n in range(ell):
            out = out + _term(ch, 1, vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("C"):
        out = compose_t_d(spec, pvals, ch)
        out = out + _term(ch, 1, vpow={_T: 2}, dpow={_T: 1})
        coef = pvals["theta"] * Scalar.const(-ell * central_constant(spec, ell + 1))
        out = out + _term(ch, coef, vpow={_x(ell): 1, _y(ell - 1): 1})
        for n in range(ell):
            out = out + _term(ch, -(two_ell - n), vpow={_x(n): 1}, dpow={_x(n + 1): 1})
        for n in range(ell - 1):
            out = out + _term(ch, -(two_ell - n), vpow={_y(n): 1}, dpow={_y(n + 1): 1})
        return out
    if gen.tag == "P" and gen.sign == "+" and 0 <= gen.n <= two_ell:
        n = gen.n
        out = DiffOp.zero(ch)
        for k in range(0, n - ell):  # empty for creations (n <= l)
            j = two_ell - n + k
            if j > ell - 1:
                continue
            coef = pvals["theta"] * Scalar.const(
                -comb(n, k) * central_constant(spec, n - k)
            )
            out = out + _term(ch, coef, vpow={_T: k, _y(j): 1})
        for k in range(max(n - ell, 0), n + 1):
            out = out + _term(ch, -comb(n, k), vpow={_T: k}, dpow={_x(n - k): 1})
        return out
    if gen.tag == "P" and gen.sign == "-" and 0 <= gen.n <= two_ell:
        n = gen.n
        out = DiffOp.zero(ch)
        for k in range(0, n - ell + 1):  # empty for creations (n <= l-1)
            j = two_ell - n + k
            if j > ell:
                continue
            coef = pvals["theta"] * Scalar.const(
                comb(n, k) * central_constant(spec, n - k)
            )
            out = out + _term(ch, coef, vpow={_T: k, _x(j): 1})
        for k in range(max(n - ell + 1, 0), n + 1):
            out = out + _term(ch, -comb(n, k), vpow={_T: k}, dpow={_y(n - k): 1})
        return out
    raise UnsupportedGenerator("no left realization of %s" % (gen,))


def rep_check(spec, side="left", params=None):
    """Exact check of [pi(X), pi(Y)] = pi([X, Y]) for all domain pairs.

    Returns the list of failing triples (x, y, residual DiffOp); an empty
    list certifies the realization on its domain.  Each residual
    [pi(X), pi(Y)] - pi([X, Y]) is accumulated in one map by
    ``commutator(..., minus=...)`` and tested for zero.
    """
    if side == "left":
        domain = enumerate_generators(spec)
        realize = lambda g: left_action(spec, g, params=params)
    elif side == "right":
        domain = right_domain(spec)
        realize = lambda g: right_action(spec, g)
    else:
        raise ValueError("side must be 'left' or 'right'")
    ops = {g: realize(g) for g in domain}
    failures = []
    for i, x in enumerate(domain):
        for y in domain[i + 1:]:
            image = []
            for gen, coef in bracket(spec, x, y).items():
                if gen not in ops:
                    raise UnsupportedGenerator(
                        "[%s, %s] leaves the realized domain" % (x, y)
                    )
                image.append((ops[gen], coef))
            residual = commutator(ops[x], ops[y], minus=image)
            if not residual.is_zero():
                failures.append((x, y, residual))
    return failures
