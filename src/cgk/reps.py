"""Vector-field realizations of the families, derived from the bracket.

Every bracket is read as ``(Gen, int)`` terms from ``algebra._structure``.

The realizations are the induced representations on the coset of the
creation wing (Dobrev's construction, Rep. Math. Phys. 25, 1988).  The
chart has the slots of the module's basis factors (``algebra._family``):
the top factor, H on an extended family, is ``t``, and the i-th of the a
and b strings, the coordinate generators, are ``x<i>`` and ``y<i>``.  A
point is g = exp(t H) exp(Y) with Y = sum_v x_v gen(v).

``right_action`` realizes the creation wing by coordinate lifts:
R(gen(v)) = d/dv, and R(H) = d/dt - sum_v x_v R([H, gen(v)]).

``left_action`` realizes every generator X of an extended family.  With
Z = Ad(g^-1) X = e^(-ad Y) e^(-t ad H) X, two finite series since ad is
nilpotent here, split Z = Z+ + Z0 + Z- along ``algebra.decomposition``:

    pi_L(X) = -R(Z+) - lambda(Z0),

where lambda is the lowest weight read from ``algebra.weight_table`` (a
diagonal generator's eigenvalue is sign * symbol) and Z- drops out, as
the annihilators kill the lowest-weight vector.  Everything but lambda
is parameter-free, so it is derived once per (family, generator); a call
only adds the order-zero parameter terms, into one raw map with -R(Z+).

Both honor [pi(X), pi(Y)] = pi([X, Y]) on their domains, and
``rep_check`` verifies that identity exactly, pair by pair: on the left,
only the pairs with a kept generator of ``algebra.generating_set`` need
checking (the argument is in its docstring).  ``bracket_failures`` is the
one residual loop, shared with the witness certificate of
:mod:`cgk.invariants`.
"""

import functools
from fractions import Fraction

from .algebra import (Gen, _family, _structure, decomposition, enumerate_generators,
                      generating_set, normal_position, weight_table)
from .diffop import CoefPoly, DiffOp, Var, commutator, make_chart
from .verma import lowest_weight, resolve_params

_H = Gen("H")


class UnsupportedGenerator(KeyError):
    """No realization exists for this generator in this family."""


def _coordinates(spec):
    """Map each coordinate generator to its chart slot (t is slot 0)."""
    return {g: s for g, s in _family(spec)["slot"].items() if s}


@functools.cache
def chart(spec):
    """The family's chart: t plus the creation-string coordinates.

    Built once per family: ``AlgebraSpec`` is frozen and the chart is an
    immutable tuple.
    """
    n_a, n_b = _family(spec)["shape"]
    return make_chart(Var("t"), *(Var("x", i) for i in range(n_a)),
                      *(Var("y", i) for i in range(n_b)))


# Algebra elements with polynomial coefficients are raw maps {Gen: poly}: a
# poly maps a monomial, the sorted tuple of the chart slots it multiplies
# (t is slot 0, () is 1), to an int or a Fraction.

_ONE = {(): 1}


def _mul_into(acc, p, q, c=1):
    """acc += c * p * q."""
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            acc[m] = acc.get(m, 0) + c * c1 * c2


def _ad(spec, w, z, scale=1):
    """scale * [w, z], zero terms dropped."""
    out = {}
    for gw, pw in w.items():
        for gz, pz in z.items():
            for g, c in _structure(spec)[gw, gz]:
                _mul_into(out.setdefault(g, {}), pw, pz, scale * c)
    return {g: q for g, p in out.items() if (q := {m: c for m, c in p.items() if c})}


def _exp_ad(spec, w, z):
    """e^(ad w) z: the series ends at its first zero term."""
    total = {}
    k = 0
    while z:
        for g, p in z.items():
            _mul_into(total.setdefault(g, {}), p, _ONE)
        k += 1
        z = _ad(spec, w, z, Fraction(1, k))
    return total


def _lift_into(out, spec, elem):
    """out += R(elem) for elem in the creation wing, out a map {chart slot:
    poly}: R(gen(v)) = d/dv and R(H) = d/dt - sum_v x_v R([H, gen(v)])."""
    coords = _coordinates(spec)
    rest = {}
    for g, p in elem.items():
        _mul_into(out.setdefault(0 if g == _H else coords[g], {}), p, _ONE)
        if g == _H:
            for v, slot in coords.items():
                for g2, c in _structure(spec)[_H, v]:
                    _mul_into(rest.setdefault(g2, {}), p, {(slot,): -c})
    if rest:
        _lift_into(out, spec, rest)


def _coef_poly(ch, p, sign=1):
    """sign * p as a CoefPoly on the chart ch."""
    return CoefPoly(ch, {tuple(map(m.count, range(len(ch)))): sign * c for m, c in p.items()})


def _first_order(spec, lifted, sign):
    """sign * sum(poly * d/d(slot)) as a DiffOp."""
    ch = chart(spec)
    return DiffOp(ch, {
        tuple(int(i == slot) for i in range(len(ch))): _coef_poly(ch, p, sign)
        for slot, p in lifted.items()
    })


def right_domain(spec):
    """Generators covered by the coordinate-lift realization: H (when it
    lies in the creation wing) and the coordinate generators."""
    coords = _coordinates(spec)
    return [g for g in decomposition(spec)[0] if g == _H or g in coords]


@functools.cache
def right_action(spec, gen):
    """Coordinate-lift realization of the creation wing, built once per
    (family, generator); the shared operator is never mutated."""
    if gen not in right_domain(spec):
        raise UnsupportedGenerator("no right realization of %s" % (gen,))
    lifted = {}
    _lift_into(lifted, spec, {gen: _ONE})
    return _first_order(spec, lifted, 1)


@functools.cache
def _left_parts(spec, gen):
    """(-R(Z+), ((diagonal gen, its coefficient in Z0), ...))."""
    z = _exp_ad(spec, {_H: {(0,): -1}}, {gen: _ONE})
    z = _exp_ad(spec, {v: {(slot,): -1} for v, slot in _coordinates(spec).items()}, z)
    g_plus = decomposition(spec)[0]
    lifted = {}
    _lift_into(lifted, spec, {g: p for g, p in z.items() if g in g_plus})
    diag = tuple((g, _coef_poly(chart(spec), z[g])) for g in weight_table(spec) if g in z)
    return _first_order(spec, lifted, -1), diag


def left_action(spec, gen, params=None):
    """First-order realization of any generator of an extended family."""
    if spec.ext == "none":
        raise UnsupportedGenerator("no left realization for the centerless family")
    pvals = resolve_params(spec, params)
    if gen not in normal_position(spec):
        raise UnsupportedGenerator("no left realization of %s" % (gen,))
    op, diag = _left_parts(spec, gen)
    if not diag:
        return op
    lam = lowest_weight(spec, pvals)
    out = {dexpo: dict(poly.terms) for dexpo, poly in op.terms.items()}
    origin = (0,) * len(op.chart)
    for g, poly in diag:
        DiffOp.add_into(out, [(origin, poly)], -lam[g])
    return DiffOp.of_raw(out, op.chart)


def bracket_failures(spec, ops, pairs):
    """The list of (x, y, residual) for the pairs (x, y) of ``pairs`` whose
    residual [ops[x], ops[y]] - ops([x, y]) is not zero.

    ``ops`` maps generators to their operators.  Each residual is
    accumulated in one map by ``commutator(..., minus=...)``.
    """
    failures = []
    for x, y in pairs:
        image = []
        for gen, coef in _structure(spec)[x, y]:
            if gen not in ops:
                raise UnsupportedGenerator("[%s, %s] leaves the realized domain" % (x, y))
            image.append((ops[gen], coef))
        residual = commutator(ops[x], ops[y], minus=image)
        if not residual.is_zero():
            failures.append((x, y, residual))
    return failures


def rep_check(spec, side="left", params=None):
    """Exact check of [pi(X), pi(Y)] = pi([X, Y]) for all domain pairs.

    Returns the list of failing triples (x, y, residual DiffOp), over every
    pair of the domain; an empty list certifies the realization on its
    domain.

    The left realization is checked first on the pairs with a kept
    generator of ``algebra.generating_set``.  Let K be the set of x with
    pi([x, y]) = [pi x, pi y] for every y.  K is a subspace, as pi is
    linear, and it is closed under the bracket: for x, x' in K the Jacobi
    identity on both sides gives
    pi([[x, x'], y]) = [pi x, [pi x', pi y]] - [pi x', [pi x, pi y]]
    = [[pi x, pi x'], pi y] = [pi([x, x']), pi y].  The kept generators
    generate the algebra, so once they lie in K every pair holds.  Any
    failure re-runs the check on every pair, so a failing check reports the
    same list either way.  The right side, a wing of the algebra, checks
    every pair.
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
    pairs = [(x, y) for i, x in enumerate(domain) for y in domain[i + 1:]]
    if side == "left":
        kept = generating_set(spec)[0]
        reduced = [(x, y) for x, y in pairs if x in kept or y in kept]
        if not bracket_failures(spec, ops, reduced):
            return []
    return bracket_failures(spec, ops, pairs)
