import pytest

from cgk.algebra import (
    AlgebraSpec,
    Gen,
    GenCombo,
    InvalidSpec,
    UnknownGenerator,
    bracket,
    decomposition,
    enumerate_generators,
    jacobi_check,
    parse_gen,
    supported_specs,
)
from cgk.scalars import Scalar


def names(gens):
    return [str(g) for g in gens]


def test_spec_validation():
    AlgebraSpec(1, 1, "mass")
    AlgebraSpec(2, 5, "mass")
    AlgebraSpec(2, 4, "exotic")
    AlgebraSpec(1, 2, "none")
    for bad in [(1, 2, "mass"), (1, 2, "exotic"), (2, 3, "exotic"),
                (1, 4, "none"), (2, 2, "none"), (3, 1, "mass"),
                (1, 0, "mass"), (1, 1, "bogus")]:
        with pytest.raises(InvalidSpec):
            AlgebraSpec(*bad)


def test_enumerate_counts_and_order():
    gens = enumerate_generators(AlgebraSpec(1, 3, "mass"))
    assert len(gens) == 8
    assert set(names(gens)) == {"H", "D", "C", "M", "P0", "P1", "P2", "P3"}

    gens = enumerate_generators(AlgebraSpec(1, 2, "none"))
    assert len(gens) == 6
    assert names(gens) == ["H", "P0", "D", "P1", "C", "P2"]

    gens = enumerate_generators(AlgebraSpec(2, 2, "exotic"))
    assert len(gens) == 11

    # d(d-1)/2 + (2l+1)d + 3 plus one central element when extended
    for spec in supported_specs(6):
        expect = spec.d * (spec.d - 1) // 2 + (spec.twoEll + 1) * spec.d + 3
        if spec.ext != "none":
            expect += 1
        assert len(enumerate_generators(spec)) == expect


def test_bracket_examples():
    spec = AlgebraSpec(1, 1, "mass")
    assert bracket(spec, Gen("D"), Gen("H")) == GenCombo.of(Gen("H"), 2)
    assert bracket(spec, Gen("H"), Gen("P", 0)).is_zero()

    spec2 = AlgebraSpec(2, 1, "mass")
    got = bracket(spec2, Gen("P", 0, "+"), Gen("P", 1, "-"))
    assert got == GenCombo.of(Gen("M"), -1)


def test_bracket_sl2_and_ladder():
    spec = AlgebraSpec(1, 5, "mass")
    assert bracket(spec, Gen("D"), Gen("C")) == GenCombo.of(Gen("C"), -2)
    assert bracket(spec, Gen("C"), Gen("H")) == GenCombo.of(Gen("D"))
    assert bracket(spec, Gen("H"), Gen("P", 3)) == GenCombo.of(Gen("P", 2), -3)
    assert bracket(spec, Gen("D"), Gen("P", 1)) == GenCombo.of(Gen("P", 1), 3)
    assert bracket(spec, Gen("C"), Gen("P", 4)) == GenCombo.of(Gen("P", 5), 1)
    assert bracket(spec, Gen("C"), Gen("P", 5)).is_zero()


def test_bracket_exotic_sign():
    spec = AlgebraSpec(2, 2, "exotic")
    theta = Gen("Theta")
    # [P(m)+, P(n)-] = +I_m Theta, [P(m)-, P(n)+] = -I_m Theta
    assert bracket(spec, Gen("P", 0, "+"), Gen("P", 2, "-")) == GenCombo.of(theta, 2)
    assert bracket(spec, Gen("P", 0, "-"), Gen("P", 2, "+")) == GenCombo.of(theta, -2)
    assert bracket(spec, Gen("P", 1, "+"), Gen("P", 1, "-")) == GenCombo.of(theta, -1)
    assert bracket(spec, Gen("P", 0, "+"), Gen("P", 2, "+")).is_zero()
    assert bracket(spec, Gen("J"), Gen("P", 1, "-")) == GenCombo.of(Gen("P", 1, "-"), -1)


def test_unknown_generator():
    spec = AlgebraSpec(1, 1, "mass")
    with pytest.raises(UnknownGenerator):
        bracket(spec, Gen("J"), Gen("H"))
    with pytest.raises(UnknownGenerator):
        bracket(spec, Gen("P", 7), Gen("H"))
    with pytest.raises(UnknownGenerator):
        bracket(AlgebraSpec(2, 1, "mass"), Gen("P", 0), Gen("H"))


def test_decomposition_examples():
    plus, zero, minus = decomposition(AlgebraSpec(1, 3, "mass"))
    assert names(plus) == ["H", "P0", "P1"]
    assert names(zero) == ["D", "M"]
    assert names(minus) == ["C", "P2", "P3"]

    plus, zero, minus = decomposition(AlgebraSpec(2, 2, "exotic"))
    assert set(names(plus)) == {"H", "P1+", "P0+", "P0-"}
    assert names(zero) == ["D", "J", "Theta"]
    assert set(names(minus)) == {"C", "P1-", "P2+", "P2-"}

    plus, zero, minus = decomposition(AlgebraSpec(1, 2, "none"))
    assert names(minus) == ["H", "P0"]
    assert names(zero) == ["D", "P1"]
    assert names(plus) == ["C", "P2"]


def test_decomposition_is_partition_and_graded():
    for spec in supported_specs(6):
        plus, zero, minus = decomposition(spec)
        everything = plus + zero + minus
        assert len(everything) == len(set(everything))
        assert set(everything) == set(enumerate_generators(spec))
        # [g0, g+-] stays in the same wing, one generator at a time
        for z in zero:
            for wing in (plus, minus):
                for x in wing:
                    combo = bracket(spec, z, x)
                    assert len(combo.terms) <= 1
                    for gen in combo.terms:
                        assert gen in wing


def test_antisymmetry_everywhere():
    for spec in supported_specs(6):
        gens = enumerate_generators(spec)
        for x in gens:
            for y in gens:
                assert bracket(spec, x, y) == -bracket(spec, y, x)


def test_jacobi_all_supported():
    for spec in supported_specs(6):
        assert jacobi_check(spec) == []


def test_jacobi_fault_injection():
    spec = AlgebraSpec(1, 1, "mass")

    def corrupted(x, y):
        if (x.tag, y.tag) == ("D", "H"):
            return GenCombo.of(Gen("H"), 3)
        if (x.tag, y.tag) == ("H", "D"):
            return GenCombo.of(Gen("H"), -3)
        return bracket(spec, x, y)

    failures = jacobi_check(spec, bracket_fn=corrupted)
    assert failures
    assert any({"D", "H"} <= {g.tag for g in triple[:3]} for triple in failures)


def test_gencombo_arithmetic():
    h, d = Gen("H"), Gen("D")
    combo = GenCombo.of(h, 2) + GenCombo.of(d, Scalar.symbol("mu"))
    assert combo - GenCombo.of(d, Scalar.symbol("mu")) == GenCombo.of(h, 2)
    assert (combo - combo).is_zero()
    assert combo.scaled(0).is_zero()


def test_parse_gen():
    assert parse_gen("H") == Gen("H")
    assert parse_gen("Theta") == Gen("Theta")
    assert parse_gen("P1+") == Gen("P", 1, "+")
    assert parse_gen("P12-") == Gen("P", 12, "-")
    assert parse_gen("P0") == Gen("P", 0)
    with pytest.raises(UnknownGenerator):
        parse_gen("Q2")
