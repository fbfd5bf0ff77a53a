"""The eight acceptance criteria, shared by ``cgk selftest`` and the test suite.

Each criterion is a runner that returns ``(ok, detail)``: ``detail`` names
the first failing case, or summarises what held.  ``acceptance_criteria``
lists them in selftest order.  ``CGK_CAPS_LEVEL`` caps the grading level
of the criteria that walk module levels (``DEFAULT_LEVEL_CAP`` when unset).

Only ``selftest`` imports this module, so no other command compiles or
loads it.  The criteria that realize or intertwine import the names they
use from ``diffop``, ``reps`` and ``invariants`` in the function.
"""

import os
from fractions import Fraction

from .algebra import AlgebraSpec, Gen, enumerate_generators, jacobi_check, supported_specs
from .cli import UsageError, _failure_text
from .scalars import Scalar, render_scalar
from .singular import (
    delta_at_condition,
    predicted_weight,
    search_singular,
    singular_closed,
    singular_condition,
    verify_singular,
)
from .verma import ModuleVector, PbwMonomial, _D, act_closed_form, act_generic, level_basis

DEFAULT_LEVEL_CAP = 4


def _level_cap():
    raw = os.environ.get("CGK_CAPS_LEVEL")
    if raw is None:
        return DEFAULT_LEVEL_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("CGK_CAPS_LEVEL must be an integer, got %r" % (raw,))
    if cap < 0:
        raise UsageError("CGK_CAPS_LEVEL must be non-negative")
    return cap


def _extended_specs(two_ell_max):
    return [s for s in supported_specs(two_ell_max) if s.ext != "none"]


def _root_params_symbolic(spec, q):
    return {
        "delta": delta_at_condition(spec, q),
        "mu": Scalar.symbol("mu"),
        "theta": Scalar.symbol("theta"),
        "r": Scalar.symbol("r"),
    }


def _root_params_numeric(spec, q):
    return {
        "delta": delta_at_condition(spec, q),
        "mu": 1,
        "theta": 1,
        "r": Fraction(2, 3),
    }


def _singular_cases():
    cases = []
    for two_ell in (1, 3, 5):
        cases += [(AlgebraSpec(1, two_ell, "mass"), q) for q in (1, 2, 3)]
    for two_ell in (1, 3):
        cases += [(AlgebraSpec(2, two_ell, "mass"), q) for q in (1, 2)]
    for two_ell in (2, 4):
        cases += [(AlgebraSpec(2, two_ell, "exotic"), q) for q in (1, 2)]
    return cases


def criterion_jacobi():
    """Structure constants close for every supported family."""
    specs = supported_specs(6)
    for spec in specs:
        failures = jacobi_check(spec)
        if failures:
            x, y, z, residual = failures[0]
            return False, "%r: %d failing triples; first (%s, %s, %s) residual: %s" % (
                spec, len(failures), x, y, z, residual)
    return True, "all triples close for %d specs (twoEll <= 6)" % len(specs)


def criterion_closed_form():
    """Closed-form actions equal the normal-ordering oracle."""
    cap = _level_cap()
    checked = 0
    for spec in _extended_specs(5):
        gens = enumerate_generators(spec)
        for level in range(cap + 1):
            for mono in level_basis(spec, level):
                v = ModuleVector.of(mono)
                for gen in gens:
                    closed = act_closed_form(spec, gen, v)
                    generic = act_generic(spec, gen, v)
                    if closed != generic:
                        return False, "mismatch: %r, %s on %s; closed - generic: %s" % (
                            spec, gen, mono, closed - generic)
                    checked += 1
    return True, "%d actions agree (levels <= %d, twoEll <= 5)" % (checked, cap)


def criterion_singular_verify():
    """Closed-form vectors are singular at the condition root."""
    for spec, q in _singular_cases():
        params = _root_params_symbolic(spec, q)
        v = singular_closed(spec, q, params=params)
        expected = predicted_weight(spec, q, params=params)
        report = verify_singular(spec, v, params=params, expect_weight=expected)
        if not report.ok:
            return False, "%r q=%d: %d failures; first %s" % (
                spec, q, len(report.failures), _failure_text(report.failures[0]))
        root = delta_at_condition(spec, q)
        if report.weight[_D] != Scalar.const(Fraction(2 * q) - root):
            return False, "%r q=%d: scaling eigenvalue is not 2q - delta" % (spec, q)
    return True, "%d (family, level) cases verified" % len(_singular_cases())


def criterion_search_matches():
    """Nullspace search finds exactly the closed-form ray."""
    for spec, q in _singular_cases():
        params = _root_params_numeric(spec, q)
        closed = singular_closed(spec, q, params=params)
        weight = predicted_weight(spec, q, params=params)
        found = search_singular(spec, weight.eigen, params=params)
        normalized = closed.scaled(closed.items()[0][1] ** -1)
        if len(found) != 1 or found.caveats or found.vectors[0] != normalized:
            return False, "%r q=%d: found [%s] (caveats: [%s]); closed-form ray %s" % (
                spec, q, "; ".join(str(v) for v in found.vectors),
                ", ".join(render_scalar(c) for c in found.caveats), normalized)
    return True, "one-dimensional kernels match for %d cases" % len(_singular_cases())


def criterion_centerless():
    """Centerless kernels: exactly the creation powers, only at kappa=0."""
    spec = AlgebraSpec(1, 2, "none")
    cap = _level_cap()
    free = {"delta": Scalar.symbol("delta"), "kappa": 0}
    for p in range(1, cap + 1):
        found = search_singular(spec, p, params=free)
        want = ModuleVector.of(PbwMonomial(0, (p,), ()))
        if len(found) != 1 or found.vectors[0] != want:
            return False, "kappa=0, level %d: found [%s]; want %s" % (
                p, "; ".join(str(v) for v in found.vectors), want)
        report = verify_singular(spec, found.vectors[0], params=free)
        if not report.ok:
            return False, "kappa=0, level %d: %d failures; first %s" % (
                p, len(report.failures), _failure_text(report.failures[0]))
        for kappa in (1, Fraction(-2), Fraction(7, 3)):
            params = {"delta": Scalar.symbol("delta"), "kappa": kappa}
            dim = len(search_singular(spec, p, params=params))
            if dim:
                return False, "kappa=%s, level %d: kernel of dimension %d, want 0" % (
                    kappa, p, dim)
    return True, "levels 1..%d: kernels exist exactly at kappa=0" % cap


def criterion_rep_audit():
    """The weighted realization reproduces every bracket."""
    from .diffop import render_diffop
    from .reps import rep_check

    specs = _extended_specs(5)
    for spec in specs:
        failures = rep_check(spec, side="left")
        if failures:
            x, y, residual = failures[0]
            return False, "%r: %d failing pairs; first [%s, %s] residual: %s" % (
                spec, len(failures), x, y, render_diffop(residual))
    return True, "all brackets reproduced for %d extended specs" % len(specs)


def _heat_cases():
    """(label, computed operator, expected operator), one case at a time."""
    from .diffop import op_power, parse_diffop
    from .invariants import invariant_operator
    from .reps import chart

    d1 = AlgebraSpec(1, 1, "mass")
    heat = parse_diffop("2*mu*d/dt + (d/dx0)^2", chart(d1))
    for q in (1, 2, 3):
        yield "twoEll=1, q=%d" % q, invariant_operator(d1, q), op_power(heat, q)
    d3 = AlgebraSpec(1, 3, "mass")
    yield "twoEll=3, q=1", invariant_operator(d3, 1), parse_diffop(
        "2*mu*d/dt + 2*mu*x1*d/dx0 + (d/dx1)^2", chart(d3))
    d5 = AlgebraSpec(1, 5, "mass")
    yield "twoEll=5, q=1", invariant_operator(d5, 1), parse_diffop(
        "8*mu*d/dt + 8*mu*x1*d/dx0 + 16*mu*x2*d/dx1 + (d/dx2)^2", chart(d5))


def criterion_heat():
    """The lowest line-family hierarchy is the heat hierarchy, verbatim."""
    from .diffop import render_diffop

    for label, got, want in _heat_cases():
        if got != want:
            return False, "%s: operator differs; computed - expected: %s" % (
                label, render_diffop(got - want))
    return True, "heat powers q <= 3 and twoEll in {3, 5} operators verbatim"


def criterion_intertwining():
    """The invariant operator intertwines the shifted realizations."""
    from .diffop import render_diffop
    from .invariants import divisible_by_condition, intertwining_check, intertwining_residual

    count = 0
    for spec in _extended_specs(5):
        for q in (1, 2):
            failures = intertwining_check(spec, q, _root_params_numeric(spec, q))
            if failures:
                gen, residual = failures[0]
                return False, "%r q=%d: %d generators fail; first %s residual: %s" % (
                    spec, q, len(failures), gen, render_diffop(residual))
            residual = intertwining_residual(spec, Gen("C"), q)  # symbolic weight
            cond = singular_condition(spec, q)
            if residual.is_zero():
                return False, "%r q=%d: symbolic residual vanishes" % (spec, q)
            if not divisible_by_condition(residual, cond):
                return False, "%r q=%d: residual not divisible by condition" % (spec, q)
            count += 1
    return True, "%d (family, level) identities hold; residuals track the condition" % count


def acceptance_criteria():
    """The eight acceptance criteria as (name, runner) pairs."""
    return [
        ("jacobi-closure", criterion_jacobi),
        ("closed-form-vs-oracle", criterion_closed_form),
        ("singular-annihilation", criterion_singular_verify),
        ("search-matches-closed-form", criterion_search_matches),
        ("centerless-kernels", criterion_centerless),
        ("left-realization-audit", criterion_rep_audit),
        ("heat-hierarchy-recovery", criterion_heat),
        ("intertwining-identity", criterion_intertwining),
    ]
