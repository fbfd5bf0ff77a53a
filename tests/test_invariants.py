"""Invariant operators, intertwining identities, and on-shell multipliers."""

from fractions import Fraction

import pytest

from cgk.algebra import AlgebraSpec, Gen, enumerate_generators, generating_set
from cgk.diffop import (
    CoefPoly,
    DiffOp,
    Var,
    commutator,
    compose,
    op_power,
    parse_diffop,
    render_poly_in_vars,
)
from cgk.invariants import (
    ConditionNotSatisfied,
    divisible_by_condition,
    intertwining_check,
    intertwining_residual,
    invariant_operator,
)
from cgk.scalars import Scalar, UnsupportedFamily
from cgk.singular import delta_at_condition, singular_condition
from cgk.reps import chart, left_action
from cgk.verma import resolve_params, symbolic_params
from test_diffop import _apply, _reference_residual

D1 = AlgebraSpec(1, 1, "mass")
D3 = AlgebraSpec(1, 3, "mass")
D5 = AlgebraSpec(1, 5, "mass")
M1 = AlgebraSpec(2, 1, "mass")
EX2 = AlgebraSpec(2, 2, "exotic")
NONE = AlgebraSpec(1, 2, "none")


def params_at_root(spec, q):
    return {
        "delta": delta_at_condition(spec, q),
        "mu": 1,
        "theta": 1,
        "r": Fraction(2, 3),
    }


def test_heat_hierarchy_recovery():
    ch = chart(D1)
    heat = parse_diffop("2*mu*d/dt + (d/dx0)^2", ch)
    for q in (1, 2, 3):
        assert invariant_operator(D1, q) == op_power(heat, q)


def test_line_family_higher_ell_operators():
    assert invariant_operator(D3, 1) == parse_diffop(
        "2*mu*d/dt + 2*mu*x1*d/dx0 + (d/dx1)^2", chart(D3)
    )
    assert invariant_operator(D5, 1) == parse_diffop(
        "8*mu*d/dt + 8*mu*x1*d/dx0 + 16*mu*x2*d/dx1 + (d/dx2)^2", chart(D5)
    )


def test_planar_operators():
    assert invariant_operator(M1, 1) == parse_diffop(
        "mu*d/dt + d/dx0*d/dy0", chart(M1)
    )
    assert invariant_operator(EX2, 1) == parse_diffop(
        "theta*d/dt + theta*x1*d/dx0 - d/dx1*d/dy0", chart(EX2)
    )


def test_centerless_operator_and_kernel():
    ch = chart(NONE)
    x0 = Var("x", 0)
    for p in (1, 2, 3, 4):
        assert invariant_operator(NONE, p) == DiffOp.partial(ch, x0, p)
    # low-degree polynomials sit in the kernel of the p-th power
    poly = parse_diffop("5*t + x0^2 + 7/3", ch).terms[(0,) * len(ch)]
    assert _apply(invariant_operator(NONE, 3), poly).is_zero()
    assert not _apply(invariant_operator(NONE, 2), poly).is_zero()


def test_invariant_operator_rejects_bad_power():
    with pytest.raises(ValueError):
        invariant_operator(D1, 0)
    with pytest.raises(ValueError, match="q must be a positive integer"):
        intertwining_check(D1, 0, {"delta": 0, "mu": 1})


def test_intertwining_at_root_seed_cases():
    for spec, q in [(D1, 1), (D1, 2), (D3, 1), (M1, 1), (M1, 2), (EX2, 1), (EX2, 2)]:
        assert intertwining_check(spec, q, params_at_root(spec, q)) == []
    # at mu = 0 the d/dt^q slot of S^q vanishes
    for spec, q in [(D1, 1), (D1, 2), (M1, 1), (M1, 2)]:
        params = dict(params_at_root(spec, q), mu=0)
        assert intertwining_check(spec, q, params) == [], (spec, q)


def test_intertwining_exotic_pinned_root():
    # the level-1 exotic root sits at delta = -2
    assert delta_at_condition(EX2, 1) == Fraction(-2)
    assert intertwining_check(EX2, 1, {"delta": -2, "theta": 1, "r": 0}) == []


def test_intertwining_requires_root():
    with pytest.raises(ConditionNotSatisfied):
        intertwining_check(D1, 1, {"delta": 0, "mu": 1})
    with pytest.raises(ConditionNotSatisfied):
        intertwining_check(D1, 1, None)  # symbolic delta is not a root


def test_intertwining_needs_extension():
    with pytest.raises(UnsupportedFamily):
        intertwining_check(NONE, 1, {"kappa": 0})


def test_symbolic_residual_divisible_by_condition():
    for spec, q in [(D1, 1), (D1, 2), (M1, 1), (EX2, 1)]:
        residual = intertwining_residual(spec, Gen("C"), q)  # symbolic weight
        cond = singular_condition(spec, q)
        assert not residual.is_zero()
        assert divisible_by_condition(residual, cond)
        # a shifted condition must not divide, so the test has teeth
        assert not divisible_by_condition(residual, cond + Scalar.const(1))
    with pytest.raises(ValueError, match="divisibility by zero"):
        divisible_by_condition(residual, Scalar.zero())


def test_seed_residual_is_condition_times_identity():
    residual = intertwining_residual(D1, Gen("C"), 1)
    cond = singular_condition(D1, 1)  # 2*delta + 1
    ch = chart(D1)
    expected = DiffOp.of_poly(CoefPoly.const(ch, cond * Scalar.symbol("mu")))
    assert residual == expected


def _shifted_params(pvals, q):
    return dict(pvals, delta=pvals["delta"] + Scalar.const(-2 * q))


def _multiplier(spec, gen, params, q=1):
    """lambda(X) = pi'(X) - pi(X), pi' the realization at weight delta - 2q:
    the multiplier of the on-shell identity [S^q, pi(X)] = lambda(X) S^q,
    which has no derivative."""
    pvals = resolve_params(spec, params)
    diff = left_action(spec, gen, _shifted_params(pvals, q)) - left_action(spec, gen, pvals)
    zero = (0,) * len(diff.chart)
    assert set(diff.terms) <= {zero}, (spec, gen)
    return diff.terms.get(zero, CoefPoly.zero(diff.chart))


def _onshell_identity_holds(spec, gen, params, lam, q=1):
    pvals = resolve_params(spec, params)
    power = invariant_operator(spec, q, pvals)
    target = commutator(power, left_action(spec, gen, pvals))
    return compose(DiffOp.of_poly(lam), power) == target


def test_onshell_multipliers_seed_family():
    params = params_at_root(D1, 1)
    ch = chart(D1)
    lam = {str(g): _multiplier(D1, g, params) for g in enumerate_generators(D1)}
    assert lam["D"] == CoefPoly.const(ch, -2)
    assert lam["C"] == CoefPoly.var(ch, Var("t")).scaled(-2)
    # the creation wing and the central element commute with the operator
    for name in ("H", "P0", "P1", "M"):
        assert lam[name].is_zero()
    for g in enumerate_generators(D1):
        assert _onshell_identity_holds(D1, g, params, lam[str(g)]), g


def test_onshell_multiplier_consistency_across_families():
    for spec in (D3, M1, EX2):
        params = params_at_root(spec, 1)
        for g in enumerate_generators(spec):
            lam = _multiplier(spec, g, params)
            assert _onshell_identity_holds(spec, g, params, lam), (spec, g)


@pytest.mark.parametrize("spec", [D1, M1], ids=["1,1,mass", "2,1,mass"])
def test_onshell_multiplier_at_mu_zero(spec):
    # at mu = 0 the d/dt^q slot of S^q vanishes; the multiplier must still
    # reproduce the commutator
    for q in (1, 2):
        params = dict(params_at_root(spec, q), mu=0)
        for g in enumerate_generators(spec):
            lam = _multiplier(spec, g, params, q=q)
            assert _onshell_identity_holds(spec, g, params, lam, q=q), (spec, q, g)
    if spec == D1:
        lam_c = _multiplier(D1, Gen("C"), {"delta": Fraction(-1, 2), "mu": 0})
        assert lam_c == CoefPoly.var(chart(D1), Var("t")).scaled(-2)


def test_onshell_multiplier_requires_root():
    # off the root the commutator with C leaves the multiple of S
    params = {"delta": 7, "mu": 1}
    assert not _onshell_identity_holds(D1, Gen("C"), params, _multiplier(D1, Gen("C"), params))
    # D rescales S at every weight
    assert _onshell_identity_holds(D1, Gen("D"), params, _multiplier(D1, Gen("D"), params))


def test_onshell_multiplier_detects_fault():
    # a wrong multiplier, or none, breaks the identity, so it has teeth
    params = params_at_root(D1, 1)
    for g in (Gen("D"), Gen("C")):
        lam = _multiplier(D1, g, params)
        one = CoefPoly.const(lam.chart, 1)
        assert not _onshell_identity_holds(D1, g, params, lam + one), g
        assert not _onshell_identity_holds(D1, g, params, CoefPoly.zero(lam.chart)), g


def test_multiplier_render_shape():
    lam = _multiplier(D1, Gen("C"), params_at_root(D1, 1))
    assert render_poly_in_vars(lam) == "-2*t"


def test_residual_matches_reference_on_all_cases():
    # symbolic delta: every generator, q <= 2, on the four benchmark families
    checked = nonzero = 0
    for spec in (D1, D3, M1, EX2):
        for q in (1, 2):
            power = invariant_operator(spec, q)
            shifted = _shifted_params(symbolic_params(spec), q)
            for gen in enumerate_generators(spec):
                want = _reference_residual(
                    power, left_action(spec, gen), left_action(spec, gen, shifted))
                got = intertwining_residual(spec, gen, q)
                assert got == want, (spec, q, gen)
                checked += 1
                nonzero += not got.is_zero()
    assert (checked, nonzero) == (68, 8)


def _corrupt_left_action(monkeypatch, module, victim):
    """Make ``module.left_action`` add the multiplication by t to victim.

    (A rescaled operator would not do: it intertwines and commutes like
    the true one.)
    """
    true_left = module.left_action

    def patched(spec, gen, params=None):
        op = true_left(spec, gen, params)
        if gen != victim:
            return op
        return op + DiffOp.of_poly(CoefPoly.var(op.chart, Var("t")))

    monkeypatch.setattr(module, "left_action", patched)
    return patched


def test_forced_intertwining_failure_matches_reference(monkeypatch):
    import cgk.invariants as inv

    spec, q = M1, 1
    params = params_at_root(spec, q)
    patched = _corrupt_left_action(monkeypatch, inv, Gen("P", 1, "+"))
    failures = inv.intertwining_check(spec, q, params)
    pvals = resolve_params(spec, params)
    shifted = _shifted_params(pvals, q)
    power = invariant_operator(spec, q, pvals)
    want = []
    for gen in enumerate_generators(spec):
        residual = _reference_residual(
            power, patched(spec, gen, pvals), patched(spec, gen, shifted))
        if not residual.is_zero():
            want.append((gen, residual))
    assert want and failures == want


def _reference_failures(spec, q, params, power, realize):
    """Every generator's residual by two whole products: the all-generator
    oracle for ``intertwining_check``."""
    pvals = resolve_params(spec, params)
    shifted = _shifted_params(pvals, q)
    want = []
    for gen in enumerate_generators(spec):
        residual = _reference_residual(
            power, realize(spec, gen, pvals), realize(spec, gen, shifted))
        if not residual.is_zero():
            want.append((gen, residual))
    return want


def test_wrong_operator_failure_matches_reference(monkeypatch):
    import cgk.invariants as inv

    spec, q = EX2, 2
    params = params_at_root(spec, q)
    pvals = resolve_params(spec, params)
    true_power = invariant_operator(spec, q, pvals)
    wrong = true_power + parse_diffop("t*d/dx0", true_power.chart)
    monkeypatch.setattr(inv, "invariant_operator", lambda spec, q, params=None: wrong)
    failures = inv.intertwining_check(spec, q, params)
    want = _reference_failures(spec, q, params, wrong, left_action)
    assert failures == want
    # the fallback lists generators outside the generating set too
    assert {g for g, _ in want} - set(generating_set(spec)[0])


def test_corrupt_kept_generator_failure_matches_reference(monkeypatch):
    import cgk.invariants as inv

    spec, q = M1, 2
    assert Gen("C") in generating_set(spec)[0]
    params = params_at_root(spec, q)
    patched = _corrupt_left_action(monkeypatch, inv, Gen("C"))
    failures = inv.intertwining_check(spec, q, params)
    power = invariant_operator(spec, q, resolve_params(spec, params))
    want = _reference_failures(spec, q, params, power, patched)
    assert want and failures == want


def test_passing_check_runs_only_the_generating_set(monkeypatch):
    import cgk.invariants as inv

    true_residual, calls = inv._residual, []

    def counted(spec, gen, *args):
        calls.append(gen)
        return true_residual(spec, gen, *args)

    monkeypatch.setattr(inv, "_residual", counted)
    for spec, q in ((D3, 2), (M1, 2), (EX2, 3)):
        calls.clear()
        assert inv.intertwining_check(spec, q, params_at_root(spec, q)) == []
        assert calls == list(generating_set(spec)[0]), spec


@pytest.mark.parametrize("spec, q", [
    (AlgebraSpec(1, 7, "mass"), 3), (AlgebraSpec(2, 7, "mass"), 3),
    (AlgebraSpec(2, 6, "exotic"), 3), (AlgebraSpec(1, 9, "mass"), 4),
    (AlgebraSpec(2, 5, "mass"), 4)], ids=repr)
def test_intertwining_beyond_criterion_8(spec, q):
    # larger families and levels than the acceptance criterion checks, at
    # the root, against the all-generator oracle
    params = params_at_root(spec, q)
    power = invariant_operator(spec, q, resolve_params(spec, params))
    assert intertwining_check(spec, q, params) == \
        _reference_failures(spec, q, params, power, left_action) == []
