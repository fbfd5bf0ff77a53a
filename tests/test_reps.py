import pytest

from cgk.algebra import AlgebraSpec, Gen, bracket, enumerate_generators
from cgk.diffop import CoefPoly, DiffOp, apply_op, commutator, parse_diffop
from cgk.reps import (
    UnsupportedGenerator,
    chart,
    left_action,
    rep_check,
    right_action,
    right_domain,
)
from cgk.scalars import Scalar
from test_diffop import _reference_commutator
from test_invariants import _corrupt_left_action

D1 = AlgebraSpec(1, 1, "mass")
D3 = AlgebraSpec(1, 3, "mass")
M1 = AlgebraSpec(2, 1, "mass")
EX2 = AlgebraSpec(2, 2, "exotic")
NONE = AlgebraSpec(1, 2, "none")


def test_chart_shapes():
    assert [str(v) for v in chart(D1)] == ["t", "x0"]
    assert [str(v) for v in chart(D3)] == ["t", "x0", "x1"]
    assert [str(v) for v in chart(M1)] == ["t", "x0", "y0"]
    assert [str(v) for v in chart(AlgebraSpec(2, 3, "mass"))] == [
        "t", "x0", "x1", "y0", "y1",
    ]
    assert [str(v) for v in chart(EX2)] == ["t", "x0", "x1", "y0"]
    assert [str(v) for v in chart(AlgebraSpec(2, 4, "exotic"))] == [
        "t", "x0", "x1", "x2", "y0", "y1",
    ]
    assert [str(v) for v in chart(NONE)] == ["t", "x0"]


def test_right_action_examples():
    ch = chart(D3)
    assert right_action(D3, Gen("H")) == parse_diffop("d/dt + x1*d/dx0", ch)
    assert right_action(D3, Gen("P", 1)) == parse_diffop("d/dx1", ch)
    che = chart(EX2)
    assert right_action(EX2, Gen("H")) == parse_diffop("d/dt + x1*d/dx0", che)
    assert right_action(EX2, Gen("P", 1, "+")) == parse_diffop("d/dx1", che)
    assert right_action(EX2, Gen("P", 0, "-")) == parse_diffop("d/dy0", che)
    assert right_action(NONE, Gen("P", 2)) == parse_diffop("d/dx0", chart(NONE))


def test_right_action_commutator_audit():
    # [piR(H), piR(P1)] = piR([H, P1]) = -piR(P0)
    got = commutator(right_action(D3, Gen("H")), right_action(D3, Gen("P", 1)))
    assert got == right_action(D3, Gen("P", 0)).scaled(-1)


def test_right_action_domain_errors():
    with pytest.raises(UnsupportedGenerator):
        right_action(D1, Gen("C"))
    with pytest.raises(UnsupportedGenerator):
        right_action(D1, Gen("P", 1))  # annihilator side
    with pytest.raises(UnsupportedGenerator):
        right_action(NONE, Gen("H"))
    assert right_domain(NONE) == [Gen("P", 2)]


def test_left_action_line_family_displays():
    ch = chart(D1)
    assert left_action(D1, Gen("D")) == parse_diffop(
        "delta - 2*t*d/dt - x0*d/dx0", ch
    )
    assert left_action(D1, Gen("H")) == parse_diffop("-d/dt", ch)
    assert left_action(D1, Gen("M")) == parse_diffop("mu", ch)
    assert left_action(D1, Gen("P", 0)) == parse_diffop("-d/dx0", ch)
    assert left_action(D1, Gen("P", 1)) == parse_diffop("mu*x0 - t*d/dx0", ch)
    assert left_action(D1, Gen("C")) == parse_diffop(
        "delta*t - t^2*d/dt - t*x0*d/dx0 + 1/2*mu*x0^2", ch
    )


def test_left_action_line_family_higher_annihilator():
    ch = chart(D3)
    assert left_action(D3, Gen("P", 2)) == parse_diffop(
        "2*mu*x1 - t^2*d/dx0 - 2*t*d/dx1", ch
    )


def test_left_action_planar_displays():
    ch = chart(M1)
    assert left_action(M1, Gen("J")) == parse_diffop(
        "r - x0*d/dx0 + y0*d/dy0", ch
    )
    assert left_action(M1, Gen("P", 0, "+")) == parse_diffop("-d/dx0", ch)
    assert left_action(M1, Gen("P", 1, "-")) == parse_diffop("mu*x0 - t*d/dy0", ch)
    assert left_action(M1, Gen("C")) == parse_diffop(
        "delta*t - t^2*d/dt - t*x0*d/dx0 - t*y0*d/dy0 + mu*x0*y0", ch
    )
    che = chart(EX2)
    assert left_action(EX2, Gen("Theta")) == parse_diffop("-theta", che)
    assert left_action(EX2, Gen("J")) == parse_diffop(
        "r - x0*d/dx0 - x1*d/dx1 + y0*d/dy0", che
    )
    # l = 1: central coefficient -l * I_{l+1} = -1 * (0! * 2! * (-1)^2) = -2
    assert left_action(EX2, Gen("C")) == parse_diffop(
        "delta*t - t^2*d/dt - 2*t*x0*d/dx0 - 2*t*y0*d/dy0"
        " - 2*theta*x1*y0 - 2*x0*d/dx1", che
    )
    # P(2)+ is an annihilator: theta-coupling plus transported derivatives
    assert left_action(EX2, Gen("P", 2, "+")) == parse_diffop(
        "-2*theta*y0 - 2*t*d/dx1 - t^2*d/dx0", che
    )


def test_left_action_unsupported():
    with pytest.raises(UnsupportedGenerator):
        left_action(NONE, Gen("C"))
    with pytest.raises(UnsupportedGenerator):
        left_action(D1, Gen("J"))


def test_rep_check_clean():
    for spec in (D1, D3, M1, AlgebraSpec(2, 3, "mass"), EX2):
        assert rep_check(spec, side="left") == []
        assert rep_check(spec, side="right") == []
    assert rep_check(NONE, side="right") == []
    with pytest.raises(ValueError):
        rep_check(D1, side="middle")


def test_rep_check_detects_fault():
    # corrupting one operator must break at least one bracket it enters
    ch = chart(D1)
    good_h = left_action(D1, Gen("H"))
    bad_h = good_h.scaled(2)
    op_d = left_action(D1, Gen("D"))
    # [D, H] = 2H: with the corrupted H the residual is nonzero
    residual = commutator(op_d, bad_h) - bad_h.scaled(2)
    assert residual.is_zero()  # scaling H alone keeps this one bracket...
    op_c = left_action(D1, Gen("C"))
    residual2 = commutator(op_c, bad_h) - op_d  # [C, H] = D breaks
    assert not residual2.is_zero()


def test_left_action_on_constants():
    for spec in (D1, M1, EX2):
        ch = chart(spec)
        one = CoefPoly.const(ch, 1)
        assert apply_op(left_action(spec, Gen("D")), one) == CoefPoly.const(
            ch, Scalar.symbol("delta")
        )
        assert apply_op(left_action(spec, Gen("H")), one).is_zero()


def test_left_action_numeric_params():
    ch = chart(D1)
    op = left_action(D1, Gen("D"), params={"delta": 3, "mu": 1})
    assert op == parse_diffop("3 - 2*t*d/dt - x0*d/dx0", ch)


def _reference_rep_check(spec, realize):
    """The bracket audit with whole operators: the commutator as two
    products and a subtraction, compared with the built image."""
    domain = enumerate_generators(spec)
    ops = {g: realize(spec, g) for g in domain}
    failures = []
    for i, x in enumerate(domain):
        for y in domain[i + 1:]:
            want = DiffOp.zero(ops[x].chart)
            for gen, coef in bracket(spec, x, y).items():
                want = want + ops[gen].scaled(coef)
            got = _reference_commutator(ops[x], ops[y])
            if got != want:
                failures.append((x, y, got - want))
    return failures


def test_forced_rep_failure_matches_reference(monkeypatch):
    import cgk.reps as reps

    patched = _corrupt_left_action(monkeypatch, reps, Gen("H"))
    for spec in (D1, EX2):
        failures = reps.rep_check(spec, side="left")
        want = _reference_rep_check(spec, patched)
        assert want and failures == want
