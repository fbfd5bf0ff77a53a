"""Invariant operators of the lowest-weight hierarchies and their symmetry.

Each extended family carries a distinguished quadratic creation element
(module :mod:`cgk.singular`) whose level-q power is a singular vector when
the weight sits at the root of a linear condition.  Pushing that element
through the coordinate realization of the creation wing (module
:mod:`cgk.reps`) turns it into a differential operator S; this module
builds S^q and verifies that S^q intertwines the weight-delta and
weight-(delta-2q) realizations exactly.

The intertwining residual S^q o pi(X) - pi'(X) o S^q is split as
[S^q, pi(X)] - (pi'(X) - pi(X)) o S^q: the commutator drops the Leibniz
terms that cancel, and pi' - pi is a single order-zero term on D and C
and zero on every other generator.

pi and pi' are Lie homomorphisms, so if S^q intertwines them on X and on
Y it intertwines them on [X, Y] (the standard argument for the induced
representations of :mod:`cgk.reps`; Dobrev, Rep. Math. Phys. 25, 1988).
The check therefore runs on the kept generators of
``algebra.generating_set``, once the realization is certified to map each
of its witness brackets to the bracket of the images.  A failure, of the
certificate or of a kept generator, re-runs the check on every generator,
so a failing check reports the same list either way.
"""

from functools import cache

from .scalars import UnsupportedFamily, poly_div_exact
from .algebra import enumerate_generators, generating_set
from .verma import resolve_params
from .singular import quadratic_element, singular_condition, weight_shift
from .diffop import compose, op_power, twisted_commutator
from .reps import bracket_failures, left_action, right_action


class ConditionNotSatisfied(ValueError):
    """The weight is not at the root the requested check demands."""


def invariant_operator(spec, q, params=None):
    """The q-th power of the family's invariant operator S.

    S is the image of the quadratic creation element under the coordinate
    realization, so its kernel carries the invariant hierarchy at level q.
    Parameters default to symbolic.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    base = None
    for word, coef in quadratic_element(spec, params):
        piece = None
        for gen in word:
            op = right_action(spec, gen)
            piece = op if piece is None else compose(piece, op)
        piece = piece.scaled(coef)
        base = piece if base is None else base + piece
    return op_power(base, q)


def _require_extended(spec):
    if spec.ext == "none":
        raise UnsupportedFamily(
            "the centerless family has no weighted realization to intertwine"
        )


def _check_at_root(spec, q, pvals):
    """Raise ConditionNotSatisfied unless pvals pins delta at the root."""
    delta = pvals["delta"]
    if not delta.is_rational():
        raise ConditionNotSatisfied(
            "delta must be specialized to the condition root, got %s" % (delta,)
        )
    residue = singular_condition(spec, q).substitute(
        {"delta": delta.rational_value()}
    )
    if not residue.is_zero():
        raise ConditionNotSatisfied(
            "delta = %s is not a root of the level-%d condition" % (delta, q)
        )


def _shifted(spec, pvals, q):
    """The target parameters: the level-q singular vector raises the D
    eigenvalue -delta by weight_shift, so delta' = delta - shift."""
    return dict(pvals, delta=pvals["delta"] - weight_shift(spec, q))


def _residual(spec, gen, power, pvals, shifted):
    return twisted_commutator(
        power, left_action(spec, gen, pvals), left_action(spec, gen, shifted)
    )


def intertwining_residual(spec, gen, q=1, params=None):
    """R(gen) = S^q o pi_L(gen) - pi_L'(gen) o S^q as a DiffOp.

    pi_L' is the realization with delta shifted by -2q; parameters default
    to symbolic, so the residual can be inspected away from the root.

    The residual is computed as [S^q, pi_L(gen)] - (pi_L' - pi_L)(gen) o S^q
    (``diffop.twisted_commutator``).  In the commutator the order-zero
    Leibniz terms of the two products cancel, and pi_L' - pi_L is zero
    except on D and C, where the shift of delta leaves one order-zero term
    (-2q and -2q*t), so the correction is one cheap product.
    """
    _require_extended(spec)
    if q < 1:
        raise ValueError("q must be a positive integer")
    pvals = resolve_params(spec, params)
    power = invariant_operator(spec, q, pvals)
    return _residual(spec, gen, power, pvals, _shifted(spec, pvals, q))


@cache
def _homomorphic_on_witnesses(spec, realize):
    """True when realize(spec, ., symbolic parameters) maps the witness
    brackets of ``generating_set(spec)`` to brackets: [pi x, pi y] equals
    c * pi g for each witness (g, x, y, c), tested by the residual loop
    ``reps.bracket_failures`` on the witness pairs.  The realization is
    polynomial in the parameters, so this holds at every weight once it
    holds symbolically.  Keyed on the callable, so a substituted
    realization gets its own certificate."""
    pvals = resolve_params(spec, None)
    ops = {g: realize(spec, g, pvals) for g in enumerate_generators(spec)}
    pairs = [(x, y) for _, x, y, _ in generating_set(spec)[1]]
    return not bracket_failures(spec, ops, pairs)


def intertwining_check(spec, q, params):
    """Residual audit at the condition root.

    Returns a list of (generator, residual DiffOp) pairs for the
    generators whose residual is not exactly zero; empty means the level-q
    operator intertwines the two realizations.  Residuals are computed as
    in ``intertwining_residual``.

    Both realizations are Lie homomorphisms: if S pi(X) = pi'(X) S and
    S pi(Y) = pi'(Y) S, then S pi([X, Y]) = [pi'X, pi'Y] S = pi'([X, Y]) S.
    So when the realization is certified on the witnesses of
    ``algebra.generating_set`` (``_homomorphic_on_witnesses``, once per
    family), zero residuals on the kept generators prove the identity on
    every generator.  If the certificate fails or any kept residual is
    nonzero, every generator is checked and every failing one is listed.
    """
    _require_extended(spec)
    if q < 1:
        raise ValueError("q must be a positive integer")
    pvals = resolve_params(spec, params)
    _check_at_root(spec, q, pvals)
    power = invariant_operator(spec, q, pvals)
    shifted = _shifted(spec, pvals, q)

    def failing(gens):
        residuals = ((gen, _residual(spec, gen, power, pvals, shifted)) for gen in gens)
        return [(gen, residual) for gen, residual in residuals if not residual.is_zero()]

    if _homomorphic_on_witnesses(spec, left_action) and not failing(
            generating_set(spec)[0]):
        return []
    return failing(enumerate_generators(spec))


def divisible_by_condition(op, cond):
    """True when every coefficient of op is divisible by the Scalar cond.

    Divisibility is polynomial: each coefficient's numerator must be an
    exact multiple of cond's numerator.
    """
    if cond.is_zero():
        raise ValueError("divisibility by zero is not defined")
    for poly in op.terms.values():
        for coef in poly.terms.values():
            if poly_div_exact(coef.num, cond.num) is None:
                return False
    return True
