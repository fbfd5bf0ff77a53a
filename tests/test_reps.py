from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest

from cgk.algebra import (AlgebraSpec, Gen, bracket, enumerate_generators, generating_set,
                         supported_specs)
from cgk.diffop import (
    CoefPoly,
    DiffOp,
    Var,
    commutator,
    compose,
    parse_diffop,
)
from cgk.reps import (
    UnsupportedGenerator,
    bracket_failures,
    chart,
    left_action,
    left_action_change,
    rep_check,
    right_action,
    right_domain,
)
from cgk.scalars import Scalar, central_constant
from cgk.verma import resolve_params
from test_diffop import _apply, _reference_commutator
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
    # an audit without P0's operator cannot read the bracket's image
    ops = {g: right_action(D3, g) for g in (Gen("H"), Gen("P", 1))}
    with pytest.raises(UnsupportedGenerator):
        bracket_failures(D3, ops, [(Gen("H"), Gen("P", 1))])


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


def test_left_action_change():
    # pi_L at weight lambda + change minus pi_L at lambda: only the weight
    # part moves, so the difference is order zero and linear in the change
    ch = chart(D1)
    change = {Gen("D"): Scalar.const(3), Gen("M"): Scalar.symbol("delta")}
    assert left_action_change(D1, Gen("D"), change) == DiffOp.const(ch, -3)
    # C's Z0 has D (coefficient t) and the central M (coefficient x0^2/2)
    assert left_action_change(D1, Gen("C"), change) == parse_diffop(
        "-3*t - delta*x0^2/2", ch)
    assert left_action_change(D1, Gen("H"), change).is_zero()
    assert left_action_change(D1, Gen("D"), {}) == DiffOp.zero(ch)
    pvals = resolve_params(D1, {"delta": Fraction(1, 3), "mu": 2})
    after = resolve_params(D1, {"delta": Fraction(-8, 3), "mu": 2})
    for gen in enumerate_generators(D1):
        assert left_action_change(D1, gen, {Gen("D"): Scalar.const(3)}) == (
            left_action(D1, gen, after) - left_action(D1, gen, pvals)), gen
    with pytest.raises(UnsupportedGenerator):
        left_action_change(NONE, Gen("C"), {})
    with pytest.raises(UnsupportedGenerator):
        left_action_change(D1, Gen("J"), {})


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
        assert _apply(left_action(spec, Gen("D")), one) == CoefPoly.const(
            ch, Scalar.symbol("delta")
        )
        assert _apply(left_action(spec, Gen("H")), one).is_zero()


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

    true_left = reps.left_action
    # H is kept; D on D1 and P1+ on EX2 lie outside the generating set
    for spec, victim in ((D1, Gen("H")), (EX2, Gen("H")),
                         (D1, Gen("D")), (EX2, Gen("P", 1, "+"))):
        monkeypatch.setattr(reps, "left_action", true_left)
        patched = _corrupt_left_action(monkeypatch, reps, victim)
        failures = reps.rep_check(spec, side="left")
        want = _reference_rep_check(spec, patched)
        assert want and failures == want, (spec, victim)


def _count_pairs(monkeypatch):
    """Record every pair that ``reps.bracket_failures`` is asked to check."""
    import cgk.reps as reps

    true_failures, pairs = reps.bracket_failures, []

    def counted(spec, ops, checked):
        pairs.extend(checked)
        return true_failures(spec, ops, checked)

    monkeypatch.setattr(reps, "bracket_failures", counted)
    return pairs


def test_passing_left_check_runs_only_pairs_with_a_kept_generator(monkeypatch):
    spec = AlgebraSpec(2, 5, "mass")
    pairs = _count_pairs(monkeypatch)
    assert rep_check(spec, side="left") == []
    kept = generating_set(spec)[0]
    # 70 of the 136 pairs of the 17 generators
    assert len(pairs) == 70 and len(set(pairs)) == 70
    assert all(x in kept or y in kept for x, y in pairs)


def test_right_check_runs_every_pair(monkeypatch):
    pairs = _count_pairs(monkeypatch)
    for spec in (D1, EX2, NONE):
        pairs.clear()
        assert rep_check(spec, side="right") == []
        domain = right_domain(spec)
        assert pairs == [(x, y) for i, x in enumerate(domain) for y in domain[i + 1:]]


def test_witness_certificate_fails_on_a_corrupted_witness(monkeypatch):
    from cgk.invariants import _homomorphic_on_witnesses

    for spec in (D1, M1, EX2):
        witnesses = generating_set(spec)[1]
        assert _homomorphic_on_witnesses(spec, left_action)
        # every derived generator, and a kept one that enters a witness
        for victim in {g for g, _, _, _ in witnesses} | {witnesses[0][1]}:
            corrupted = _corrupt_left_action(
                monkeypatch, SimpleNamespace(left_action=left_action), victim)
            assert not _homomorphic_on_witnesses(spec, corrupted), (spec, victim)


# --- the hand-written realizations, kept as the oracle ---------------------
#
# The library derives both realizations from the structure constants; these
# are the per-family formulas it replaced, written out for each family.

def _ref_term(ch, coef, vpow=None, dpow=None):
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


def _reference_right_action(spec, gen):
    """Coordinate-lift realization of the creation wing."""
    ch = chart(spec)
    two_ell = spec.twoEll
    if spec.ext == "none":
        if gen == Gen("P", 2):
            return _ref_term(ch, 1, dpow={_x(0): 1})
        raise UnsupportedGenerator("no right realization of %s" % (gen,))
    if gen == Gen("H"):
        out = _ref_term(ch, 1, dpow={_T: 1})
        if spec.d == 1:
            half = (two_ell - 1) // 2
            for j in range(1, half + 1):
                out = out + _ref_term(ch, j, vpow={_x(j): 1}, dpow={_x(j - 1): 1})
            return out
        if spec.ext == "mass":
            half = (two_ell - 1) // 2
            for n in range(1, half + 1):
                out = out + _ref_term(ch, n, vpow={_x(n): 1}, dpow={_x(n - 1): 1})
                out = out + _ref_term(ch, n, vpow={_y(n): 1}, dpow={_y(n - 1): 1})
            return out
        ell = two_ell // 2
        for n in range(1, ell + 1):
            out = out + _ref_term(ch, n, vpow={_x(n): 1}, dpow={_x(n - 1): 1})
        for n in range(1, ell):
            out = out + _ref_term(ch, n, vpow={_y(n): 1}, dpow={_y(n - 1): 1})
        return out
    if gen.tag == "P":
        if spec.d == 1 and gen.sign == "" and gen.n <= (two_ell - 1) // 2:
            return _ref_term(ch, 1, dpow={_x(gen.n): 1})
        if spec.d == 2:
            bound = (two_ell - 1) // 2 if spec.ext == "mass" else (
                two_ell // 2 if gen.sign == "+" else two_ell // 2 - 1
            )
            if gen.sign == "+" and gen.n <= bound:
                return _ref_term(ch, 1, dpow={_x(gen.n): 1})
            if gen.sign == "-" and gen.n <= bound:
                return _ref_term(ch, 1, dpow={_y(gen.n): 1})
    raise UnsupportedGenerator("no right realization of %s" % (gen,))


def _reference_left_action(spec, gen, params=None):
    """First-order realization of any generator of an extended family."""
    if spec.ext == "none":
        raise UnsupportedGenerator("no left realization for the centerless family")
    pvals = resolve_params(spec, params)
    ch = chart(spec)
    two_ell = spec.twoEll
    if spec.d == 1:
        return _ref_left_line(spec, gen, pvals, ch, two_ell)
    if spec.ext == "mass":
        return _ref_left_planar_mass(spec, gen, pvals, ch, two_ell)
    return _ref_left_planar_exotic(spec, gen, pvals, ch, two_ell)


def _ref_left_line(spec, gen, pvals, ch, two_ell):
    half = (two_ell - 1) // 2
    halfp = (two_ell + 1) // 2
    if gen == Gen("M"):
        return DiffOp.const(ch, pvals["mu"])
    if gen == Gen("H"):
        return _ref_term(ch, -1, dpow={_T: 1})
    if gen == Gen("D"):
        out = DiffOp.const(ch, pvals["delta"]) + _ref_term(ch, -2, vpow={_T: 1}, dpow={_T: 1})
        for j in range(half + 1):
            out = out + _ref_term(ch, -(two_ell - 2 * j), vpow={_x(j): 1}, dpow={_x(j): 1})
        return out
    if gen == Gen("C"):
        out = _ref_compose_t_d(spec, pvals, ch)
        out = out + _ref_term(ch, 1, vpow={_T: 2}, dpow={_T: 1})
        out = out + _ref_term(
            ch,
            pvals["mu"] * Scalar.const(factorial(halfp) ** 2) / Scalar.const(2),
            vpow={_x(half): 2},
        )
        for j in range(half):
            out = out + _ref_term(ch, -(two_ell - j), vpow={_x(j): 1}, dpow={_x(j + 1): 1})
        return out
    if gen.tag == "P" and gen.sign == "" and 0 <= gen.n <= two_ell:
        k = gen.n
        out = DiffOp.zero(ch)
        for j in range(max(two_ell - k, 0), half + 1):
            coef = pvals["mu"] * Scalar.const(
                comb(k, two_ell - j) * central_constant(spec, two_ell - j)
            )
            out = out + _ref_term(ch, coef, vpow={_T: k - two_ell + j, _x(j): 1})
        for j in range(0, half + 1):
            if _comb_safe(k, j) == 0:
                continue
            out = out + _ref_term(
                ch, -_comb_safe(k, j), vpow={_T: k - j}, dpow={_x(j): 1}
            )
        return out
    raise UnsupportedGenerator("no left realization of %s" % (gen,))


def _comb_safe(n, k):
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _ref_compose_t_d(spec, pvals, ch):
    """t * leftAction(D): the common sl2 part of the special generator."""
    d_op = _reference_left_action(spec, Gen("D"), params=dict(pvals))
    t_op = _ref_term(ch, 1, vpow={_T: 1})
    return compose(t_op, d_op)


def _ref_left_planar_mass(spec, gen, pvals, ch, two_ell):
    half = (two_ell - 1) // 2
    halfp = (two_ell + 1) // 2
    if gen == Gen("M"):
        return DiffOp.const(ch, pvals["mu"])
    if gen == Gen("H"):
        return _ref_term(ch, -1, dpow={_T: 1})
    if gen == Gen("D"):
        out = DiffOp.const(ch, pvals["delta"]) + _ref_term(ch, -2, vpow={_T: 1}, dpow={_T: 1})
        for n in range(half + 1):
            out = out + _ref_term(ch, -(two_ell - 2 * n), vpow={_x(n): 1}, dpow={_x(n): 1})
            out = out + _ref_term(ch, -(two_ell - 2 * n), vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("J"):
        out = DiffOp.const(ch, pvals["r"])
        for n in range(half + 1):
            out = out + _ref_term(ch, -1, vpow={_x(n): 1}, dpow={_x(n): 1})
            out = out + _ref_term(ch, 1, vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("C"):
        out = _ref_compose_t_d(spec, pvals, ch)
        out = out + _ref_term(ch, 1, vpow={_T: 2}, dpow={_T: 1})
        coef = pvals["mu"] * Scalar.const(halfp * central_constant(spec, halfp))
        out = out + _ref_term(ch, coef, vpow={_x(half): 1, _y(half): 1})
        for n in range(half):
            out = out + _ref_term(ch, -(two_ell - n), vpow={_x(n): 1}, dpow={_x(n + 1): 1})
            out = out + _ref_term(ch, -(two_ell - n), vpow={_y(n): 1}, dpow={_y(n + 1): 1})
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
            out = out + _ref_term(ch, coef, vpow={_T: n - two_ell + k, partner(k): 1})
        for k in range(0, half + 1):
            c = _comb_safe(n, k)
            if c == 0:
                continue
            out = out + _ref_term(ch, -c, vpow={_T: n - k}, dpow={own(k): 1})
        return out
    raise UnsupportedGenerator("no left realization of %s" % (gen,))


def _ref_left_planar_exotic(spec, gen, pvals, ch, two_ell):
    ell = two_ell // 2
    if gen == Gen("Theta"):
        return DiffOp.const(ch, -pvals["theta"])
    if gen == Gen("H"):
        return _ref_term(ch, -1, dpow={_T: 1})
    if gen == Gen("D"):
        out = DiffOp.const(ch, pvals["delta"]) + _ref_term(ch, -2, vpow={_T: 1}, dpow={_T: 1})
        for n in range(ell):
            out = out + _ref_term(ch, -2 * (ell - n), vpow={_x(n): 1}, dpow={_x(n): 1})
            out = out + _ref_term(ch, -2 * (ell - n), vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("J"):
        out = DiffOp.const(ch, pvals["r"])
        for n in range(ell + 1):
            out = out + _ref_term(ch, -1, vpow={_x(n): 1}, dpow={_x(n): 1})
        for n in range(ell):
            out = out + _ref_term(ch, 1, vpow={_y(n): 1}, dpow={_y(n): 1})
        return out
    if gen == Gen("C"):
        out = _ref_compose_t_d(spec, pvals, ch)
        out = out + _ref_term(ch, 1, vpow={_T: 2}, dpow={_T: 1})
        coef = pvals["theta"] * Scalar.const(-ell * central_constant(spec, ell + 1))
        out = out + _ref_term(ch, coef, vpow={_x(ell): 1, _y(ell - 1): 1})
        for n in range(ell):
            out = out + _ref_term(ch, -(two_ell - n), vpow={_x(n): 1}, dpow={_x(n + 1): 1})
        for n in range(ell - 1):
            out = out + _ref_term(ch, -(two_ell - n), vpow={_y(n): 1}, dpow={_y(n + 1): 1})
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
            out = out + _ref_term(ch, coef, vpow={_T: k, _y(j): 1})
        for k in range(max(n - ell, 0), n + 1):
            out = out + _ref_term(ch, -comb(n, k), vpow={_T: k}, dpow={_x(n - k): 1})
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
            out = out + _ref_term(ch, coef, vpow={_T: k, _x(j): 1})
        for k in range(max(n - ell + 1, 0), n + 1):
            out = out + _ref_term(ch, -comb(n, k), vpow={_T: k}, dpow={_y(n - k): 1})
        return out
    raise UnsupportedGenerator("no left realization of %s" % (gen,))


# --- derived realizations against the oracle --------------------------------

EXTENDED_9 = [s for s in supported_specs(9) if s.ext != "none"]

# a numeric point with non-integral values, r = 2/3 among them
NUMERIC = {"delta": Fraction(5, 2), "mu": Fraction(-3, 7),
           "r": Fraction(2, 3), "theta": Fraction(7, 5)}

OUTSIDERS = [Gen("J"), Gen("M"), Gen("Theta"), Gen("P", 0), Gen("P", 0, "+"),
             Gen("P", 11), Gen("P", 11, "-")]


def _error(fn, *args):
    """The UnsupportedGenerator message of fn(*args), or None."""
    try:
        fn(*args)
    except UnsupportedGenerator as exc:
        return str(exc)
    return None


def test_left_action_matches_reference():
    for spec in EXTENDED_9:
        for params in (None, NUMERIC):
            for gen in enumerate_generators(spec):
                got = left_action(spec, gen, params)
                assert got == _reference_left_action(spec, gen, params), (spec, gen)


def test_right_action_matches_reference():
    for spec in supported_specs(9):
        for gen in right_domain(spec):
            assert right_action(spec, gen) == _reference_right_action(spec, gen)
        for gen in enumerate_generators(spec) + OUTSIDERS:
            if gen not in right_domain(spec):
                want = _error(_reference_right_action, spec, gen)
                assert want and _error(right_action, spec, gen) == want, (spec, gen)


def test_unrealized_generators_raise_as_reference():
    # the left realization raises exactly where the hand-written one did,
    # with the same message
    for spec in supported_specs(5):
        for gen in enumerate_generators(spec) + OUTSIDERS:
            want = _error(_reference_left_action, spec, gen)
            assert _error(left_action, spec, gen) == want, (spec, gen)


def test_derived_chart_equals_hand_written():
    for spec in supported_specs(11):
        if spec.ext == "none":
            want = ["t", "x0"]
        elif spec.d == 1:
            want = ["t"] + ["x%d" % j for j in range((spec.twoEll + 1) // 2)]
        elif spec.ext == "mass":
            half = (spec.twoEll + 1) // 2
            want = ["t"] + ["x%d" % j for j in range(half)] + ["y%d" % j for j in range(half)]
        else:
            ell = spec.twoEll // 2
            want = ["t"] + ["x%d" % j for j in range(ell + 1)] + ["y%d" % j for j in range(ell)]
        assert [str(v) for v in chart(spec)] == want


@pytest.mark.parametrize(
    "spec", [s for s in EXTENDED_9 if s.twoEll >= 7], ids=str)
def test_rep_check_left_beyond_the_caps(spec):
    assert rep_check(spec, side="left") == []
    assert rep_check(spec, side="right") == []


def test_left_check_equals_all_pairs_beyond_the_caps():
    # the generating-set shortcut of rep_check against the audit of every
    # pair, on families past the twoEll <= 5 of the selftest
    for spec in (s for s in supported_specs(11) if s.ext != "none"):
        domain = enumerate_generators(spec)
        ops = {g: left_action(spec, g) for g in domain}
        pairs = [(x, y) for i, x in enumerate(domain) for y in domain[i + 1:]]
        want = bracket_failures(spec, ops, pairs)
        assert want == [] and rep_check(spec, side="left") == want, spec
