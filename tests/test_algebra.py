import copy
import pickle
import re

import pytest

from cgk.algebra import (
    AlgebraSpec,
    Gen,
    GenCombo,
    InvalidSpec,
    UnknownGenerator,
    _family,
    _structure,
    annihilator_generators,
    bracket,
    decomposition,
    enumerate_generators,
    generating_set,
    jacobi_check,
    parse_gen,
    supported_specs,
)
from cgk.diffop import Var
from cgk.scalars import Scalar, central_constant
from cgk.verma import PbwMonomial, _images


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


@pytest.mark.parametrize("d, two_ell", [(True, 1), (1.0, 1), (2.0, 2), (1, True),
                                        (1, 1.0), (2, 2.0), ("1", 1), (1, "1")])
def test_spec_rejects_non_integers(d, two_ell):
    # bool is an int subclass and 1.0 == 1: only exact ints name a family
    ext = "exotic" if two_ell == 2 else "mass"
    with pytest.raises(InvalidSpec):
        AlgebraSpec(d, two_ell, ext)


@pytest.mark.parametrize("args, bad", [
    ((0.5, (0,), ()), 0.5), ((True, (0,), ()), True), ((1.0, (0,), ()), 1.0),
    ((0, (1.5,), ()), 1.5), ((0, (0, True), ()), True), ((0, (0,), (2.0,)), 2.0),
    ((0, [1], ()), [1]), ((0, (1,), None), None)])
def test_monomial_rejects_non_integers(args, bad):
    # the actions peel a factor off with -= 1, which never reaches 0 from
    # 0.5, so a float exponent made act_generic loop; bool prints as True
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        PbwMonomial(*args)


@pytest.mark.parametrize("index", [0.5, 1.0, True, "1", None])
def test_var_rejects_non_integer_indices(index):
    # Var("x", 0.5) printed as x0, so a chart could render two variables
    # by one name and render_diffop output no longer parsed back
    for kind in ("x", "y"):
        with pytest.raises(TypeError, match=re.escape(repr(index))):
            Var(kind, index)


def test_spec_and_gen_are_tuples_with_the_dataclass_face():
    # the faces that ids=repr, the %r error messages and str(gen) rely on
    spec, gen = AlgebraSpec(2, 3, "mass"), Gen("P", 1, "+")
    assert (spec.d, spec.twoEll, spec.ext) == (2, 3, "mass")
    assert (gen.tag, gen.n, gen.sign) == ("P", 1, "+")
    assert repr(spec) == str(spec) == "AlgebraSpec(d=2, twoEll=3, ext='mass')"
    assert repr(gen) == str(gen) == "P1+"
    assert repr(Gen("P", 2)) == str(Gen("P", 2)) == "P2"
    assert repr(Gen("Theta")) == str(Gen("Theta")) == "Theta"
    assert hash(spec) == hash((2, 3, "mass"))
    assert hash(gen) == hash(("P", 1, "+"))
    assert hash(Gen("D")) == hash(("D", None, ""))
    # a generator equals the plain tuple of its fields
    assert gen == ("P", 1, "+") and Gen("D") == ("D", None, "")
    for obj in (spec, gen, Gen("D")):
        copies = [copy.deepcopy(obj), copy.copy(obj)]
        copies += [pickle.loads(pickle.dumps(obj, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert twin == obj and type(twin) is type(obj), (obj, twin)
    assert AlgebraSpec(d=2, twoEll=3, ext="mass") == spec
    assert AlgebraSpec(2, ext="mass", twoEll=3) == spec
    assert Gen(tag="P", n=1, sign="+") == gen
    assert Gen(tag="D") == Gen("D", None, "")
    for obj, field in ((spec, "d"), (spec, "ext"), (gen, "tag"), (gen, "n")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
    with pytest.raises(AttributeError):
        spec.label = "x"
    # named tuples: the documented layout, destructured by position
    assert AlgebraSpec._fields == ("d", "twoEll", "ext")
    assert Gen._fields == ("tag", "n", "sign")
    match spec, gen:
        case AlgebraSpec(d, two_ell, ext), Gen(tag, n, sign):
            assert (d, two_ell, ext, tag, n, sign) == (2, 3, "mass", "P", 1, "+")
        case _:
            pytest.fail("the records do not destructure by position")


@pytest.mark.parametrize("kwargs, message", [
    ({"d": True, "twoEll": 1, "ext": "mass"}, r"^d must be 1 or 2, got True$"),
    ({"d": 1.0, "twoEll": 1, "ext": "mass"}, r"^d must be 1 or 2, got 1\.0$"),
    ({"d": 1, "twoEll": 0, "ext": "mass"}, r"^twoEll must be a positive integer$"),
    ({"d": 2, "twoEll": 4, "ext": "mass"}, r"^mass extension needs twoEll odd$"),
    ({"d": 1, "twoEll": 1, "ext": "bogus"}, r"^ext must be none, mass, or exotic$"),
], ids=["d=True", "d=1.0", "twoEll=0", "even-mass", "unknown-ext"])
def test_spec_construction_still_validates(kwargs, message):
    # positional and keyword construction both check, with the same message
    with pytest.raises(InvalidSpec, match=message):
        AlgebraSpec(*kwargs.values())
    with pytest.raises(InvalidSpec, match=message):
        AlgebraSpec(**kwargs)


def test_equal_specs_share_the_family_caches():
    # each caller builds its own spec; the caches key on its value
    one, two = AlgebraSpec(2, 3, "mass"), AlgebraSpec(2, 3, "mass")
    assert one == two and one is not two
    assert _family(one) is _family(two)
    assert _images(one) is _images(two)


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
    # a plain tuple equal to H is not a Gen: refused on either side
    for x, y in ((("H", None, ""), Gen("C")), (Gen("C"), ("H", None, ""))):
        with pytest.raises(UnknownGenerator, match="is not a generator of AlgebraSpec"):
            bracket(spec, x, y)


def test_decomposition_examples():
    plus, zero, minus = decomposition(AlgebraSpec(1, 3, "mass"))
    assert names(plus) == ["H", "P0", "P1"]
    assert names(zero) == ["D", "M"]
    assert names(minus) == ["C", "P2", "P3"]

    plus, zero, minus = decomposition(AlgebraSpec(2, 2, "exotic"))
    assert names(plus) == ["H", "P1+", "P0+", "P0-"]
    assert names(zero) == ["D", "J", "Theta"]
    assert names(minus) == ["C", "P1-", "P2+", "P2-"]

    plus, zero, minus = decomposition(AlgebraSpec(2, 3, "mass"))
    assert names(plus) == ["H", "P0+", "P0-", "P1+", "P1-"]
    assert names(zero) == ["D", "J", "M"]
    assert names(minus) == ["C", "P2+", "P2-", "P3+", "P3-"]

    plus, zero, minus = decomposition(AlgebraSpec(1, 2, "none"))
    assert names(minus) == ["H", "P0"]
    assert names(zero) == ["D", "P1"]
    assert names(plus) == ["C", "P2"]


def _reference_family(spec):
    """The split, strings, weights and normal order written out per family."""
    two_ell = spec.twoEll
    if spec.ext == "none":
        g_minus = [Gen("H"), Gen("P", 0)]
        g_zero = [Gen("D"), Gen("P", 1)]
        g_plus = [Gen("C"), Gen("P", 2)]
        central = None
        top = Gen("C")
        a_gens = (Gen("P", 2),)
        b_gens = ()
        weights = {Gen("D"): ("delta", -1), Gen("P", 1): ("kappa", -1)}
        ladder = [Gen("P", 2), Gen("C")]
    elif spec.d == 1:
        half = (two_ell - 1) // 2  # index of P(ell-1/2)
        g_plus = [Gen("H")] + [Gen("P", n) for n in range(half + 1)]
        g_zero = [Gen("D"), Gen("M")]
        g_minus = [Gen("C")] + [Gen("P", n) for n in range(half + 1, two_ell + 1)]
        central = Gen("M")
        top = Gen("H")
        a_gens = tuple(Gen("P", n) for n in range(half + 1))
        b_gens = ()
        weights = {Gen("D"): ("delta", -1), Gen("M"): ("mu", -1)}
        ladder = list(a_gens) + [top]
    elif spec.ext == "mass":
        half = (two_ell - 1) // 2
        g_plus = [Gen("H")]
        for n in range(half + 1):
            g_plus += [Gen("P", n, "+"), Gen("P", n, "-")]
        g_zero = [Gen("D"), Gen("J"), Gen("M")]
        g_minus = [Gen("C")]
        for n in range(half + 1, two_ell + 1):
            g_minus += [Gen("P", n, "+"), Gen("P", n, "-")]
        central = Gen("M")
        top = Gen("H")
        a_gens = tuple(Gen("P", n, "+") for n in range(half + 1))
        b_gens = tuple(Gen("P", n, "-") for n in range(half + 1))
        weights = {Gen("D"): ("delta", -1), Gen("J"): ("r", -1), Gen("M"): ("mu", -1)}
        ladder = []
        for n in range(half, -1, -1):
            ladder += [Gen("P", n, "-"), Gen("P", n, "+")]
        ladder.append(top)
    else:  # exotic
        ell = two_ell // 2
        g_plus = [Gen("H"), Gen("P", ell, "+")]
        for n in range(ell):
            g_plus += [Gen("P", n, "+"), Gen("P", n, "-")]
        g_zero = [Gen("D"), Gen("J"), Gen("Theta")]
        g_minus = [Gen("C"), Gen("P", ell, "-")]
        for n in range(ell + 1, two_ell + 1):
            g_minus += [Gen("P", n, "+"), Gen("P", n, "-")]
        central = Gen("Theta")
        top = Gen("H")
        a_gens = tuple(Gen("P", n, "+") for n in range(ell + 1))
        b_gens = tuple(Gen("P", n, "-") for n in range(ell))
        weights = {Gen("D"): ("delta", -1), Gen("J"): ("r", -1), Gen("Theta"): ("theta", 1)}
        ladder = []
        for n in range(ell - 1, -1, -1):
            ladder += [Gen("P", n, "-"), Gen("P", n, "+")]
        ladder += [Gen("P", ell, "+"), top]
    position = {gen: 0 for gen in g_minus}
    position.update({gen: 1 for gen in g_zero})
    position.update({gen: 2 + i for i, gen in enumerate(ladder)})
    return {"g_plus": tuple(g_plus), "g_zero": tuple(g_zero), "g_minus": tuple(g_minus),
            "central": central, "top": top, "a_gens": a_gens, "b_gens": b_gens,
            "weights": weights, "position": position}


def test_family_matches_reference():
    for spec in supported_specs(21):
        got, want = _family(spec), _reference_family(spec)
        for key in ("g_plus", "g_zero", "g_minus", "central", "top", "a_gens", "b_gens",
                    "weights"):
            assert got[key] == want[key], (spec, key)
        assert list(got["weights"]) == list(want["weights"]), spec
        assert got["all"] == got["g_minus"] + got["g_zero"] + got["g_plus"]
        position = got["position"]
        if spec.d == 2 or spec.ext == "none":
            assert position == want["position"], spec
            continue
        # d = 1: the creation P's commute, so only the normal-order contract
        # is fixed: annihilators lowest, then g0, then distinct creation
        # positions with the top factor highest
        assert set(position) == set(want["position"])
        assert {position[g] for g in got["g_minus"]} == {0}
        assert {position[g] for g in got["g_zero"]} == {1}
        creation = [position[g] for g in got["g_plus"]]
        assert len(set(creation)) == len(creation) and min(creation) >= 2
        assert position[got["top"]] == max(creation)


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


def _reference_bracket_raw(spec, x, y):
    """The ordered bracket rules with a separate J rule per tag pair; None
    means try the swapped order."""
    two_ell = spec.twoEll
    central = _family(spec)["central"]
    if x == y:
        return GenCombo.zero()
    if central is not None and central in (x, y):
        return GenCombo.zero()
    if x.tag == "D":
        grade = two_ell - 2 * y.n if y.tag == "P" else {"H": 2, "C": -2}.get(y.tag, 0)
        return GenCombo.of(y, grade)
    tags = (x.tag, y.tag)
    if tags == ("C", "H"):
        return GenCombo.of(Gen("D"))
    if "J" in tags and tags[0] in "HDCJ" and tags[1] in "HDCJ":
        return GenCombo.zero()
    if tags == ("H", "P"):
        if y.n == 0:
            return GenCombo.zero()
        return GenCombo.of(Gen("P", y.n - 1, y.sign), -y.n)
    if tags == ("C", "P"):
        if y.n == two_ell:
            return GenCombo.zero()
        return GenCombo.of(Gen("P", y.n + 1, y.sign), two_ell - y.n)
    if tags == ("J", "P"):
        coef = 1 if y.sign == "+" else -1
        return GenCombo.of(y, coef)
    if tags == ("P", "P"):
        if spec.ext == "none" or x.n + y.n != two_ell:
            return GenCombo.zero()
        if spec.d == 1:
            return GenCombo.of(central, central_constant(spec, x.n))
        if x.sign == y.sign:
            return GenCombo.zero()
        coef = central_constant(spec, x.n)
        if spec.ext == "exotic" and x.sign == "-":
            coef = -coef
        return GenCombo.of(central, coef)
    return None


def _reference_bracket(spec, x, y):
    combo = _reference_bracket_raw(spec, x, y)
    return -_reference_bracket_raw(spec, y, x) if combo is None else combo


def test_bracket_matches_reference():
    # the whole table, every ordered pair of every family up to twoEll = 21;
    # each entry of the integer table is the reference as ints, with no zero
    # term, and the negation of its swapped entry
    pairs = 0
    for spec in supported_specs(21):
        gens = enumerate_generators(spec)
        table = _structure(spec)
        for x in gens:
            for y in gens:
                want = _reference_bracket(spec, x, y)
                assert bracket(spec, x, y) == want, (spec, x, y)
                terms = table[x, y]
                assert all(type(c) is int and c for _, c in terms), (spec, x, y)
                assert {g: Scalar.const(c) for g, c in terms} == want.terms, (spec, x, y)
                assert terms == tuple((g, -c) for g, c in table[y, x]), (spec, x, y)
                pairs += 1
    assert pairs == 24033


def test_antisymmetry_everywhere():
    for spec in supported_specs(6):
        gens = enumerate_generators(spec)
        for x in gens:
            for y in gens:
                assert bracket(spec, x, y) == -bracket(spec, y, x)


def test_jacobi_all_supported():
    for spec in supported_specs(6):
        assert jacobi_check(spec) == []


def _corrupt_structure(monkeypatch, spec):
    """Have ``algebra`` read a copy of spec's table with [D, H] = 3 H."""
    import cgk.algebra

    true_structure = cgk.algebra._structure
    table = dict(true_structure(spec))
    table[Gen("D"), Gen("H")] = ((Gen("H"), 3),)
    table[Gen("H"), Gen("D")] = ((Gen("H"), -3),)
    monkeypatch.setattr(cgk.algebra, "_structure",
                        lambda s: table if s == spec else true_structure(s))


def test_jacobi_fault_injection(monkeypatch):
    spec = AlgebraSpec(1, 1, "mass")
    _corrupt_structure(monkeypatch, spec)
    failures = jacobi_check(spec)
    assert failures
    assert any({"D", "H"} <= {g.tag for g in triple[:3]} for triple in failures)


def _single_term_closure(spec, start):
    """Everything reached from start by brackets with one term, by rounds
    over every pair: the oracle for ``generating_set``'s closure."""
    gens = enumerate_generators(spec)
    table = [(x, y, bracket(spec, x, y)) for x in gens for y in gens]
    reached, grown = set(start), True
    while grown:
        grown = False
        for x, y, combo in table:
            if len(combo.terms) == 1 and {x, y} <= reached and not combo.terms.keys() <= reached:
                reached |= combo.terms.keys()
                grown = True
    return reached


@pytest.mark.parametrize("spec", supported_specs(21),
                         ids=lambda s: "%d-%d-%s" % (s.d, s.twoEll, s.ext))
def test_generating_set_witnesses_span_the_algebra(spec):
    kept, witnesses = generating_set(spec)
    known = set(kept)
    for g, x, y, c in witnesses:
        assert {x, y} <= known and g not in known, (g, x, y)
        assert bracket(spec, x, y) == GenCombo.of(g, c)
        known.add(g)
    assert known == set(enumerate_generators(spec))
    assert list(kept) == [g for g in enumerate_generators(spec) if g in kept]
    # C and H are never a bracket of others, nor J on d = 2
    assert {Gen("C"), Gen("H")} <= set(kept)
    assert (Gen("J") in kept) == (spec.d == 2)
    # no kept generator is redundant
    everything = set(enumerate_generators(spec))
    for k in kept:
        assert _single_term_closure(spec, set(kept) - {k}) != everything, (spec, k)


def test_generating_set_example():
    kept, witnesses = generating_set(AlgebraSpec(2, 2, "exotic"))
    assert names(kept) == ["C", "J", "H", "P0+", "P0-"]
    assert (Gen("D"), Gen("C"), Gen("H"), Scalar.const(1)) in witnesses
    # the centerless family gets a set too, though nothing realizes it yet
    assert names(generating_set(AlgebraSpec(1, 2, "none"))[0]) == ["H", "C", "P2"]


@pytest.mark.parametrize("spec", supported_specs(21),
                         ids=lambda s: "%d-%d-%s" % (s.d, s.twoEll, s.ext))
def test_annihilator_generators_span_the_wing(spec):
    minus = decomposition(spec)[2]
    kept, witnesses = annihilator_generators(spec)
    assert list(kept) == [g for g in minus if g in kept]
    # and they lead the wing, so the search defers every other one's rows
    assert list(kept) == list(minus[:len(kept)])
    known = set(kept)
    for g, x, y, c in witnesses:
        assert {g, x, y} <= set(minus) and {x, y} <= known and g not in known, (g, x, y)
        assert bracket(spec, x, y) == GenCombo.of(g, c)
        known.add(g)
    assert known == set(minus)
    assert _single_term_closure(spec, kept) == set(minus)


def test_annihilator_generators_examples():
    def kept(*spec):
        return names(annihilator_generators(AlgebraSpec(*spec))[0])

    assert kept(2, 3, "mass") == ["C", "P2+", "P2-"]
    assert kept(2, 2, "exotic") == ["C", "P1-", "P2+"]
    assert kept(1, 2, "none") == ["H", "P0"]
    # d = 1: C and the lowest annihilating P, which C raises to the rest
    for two_ell in range(1, 12, 2):
        assert kept(1, two_ell, "mass") == ["C", "P%d" % ((two_ell + 1) // 2)]
    assert annihilator_generators(AlgebraSpec(2, 3, "mass"))[1] == (
        (Gen("P", 3, "+"), Gen("C"), Gen("P", 2, "+"), Scalar.const(1)),
        (Gen("P", 3, "-"), Gen("C"), Gen("P", 2, "-"), Scalar.const(1)))


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
