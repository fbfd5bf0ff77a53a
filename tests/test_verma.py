import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest

from cgk.algebra import (
    AlgebraSpec,
    Gen,
    UnknownGenerator,
    bracket,
    creation_data,
    decomposition,
    enumerate_generators,
    normal_position,
    parse_gen,
    supported_specs,
    weight_table,
)
from cgk.scalars import Scalar, UnsupportedFamily
from cgk.singular import delta_at_condition, predicted_weight
from cgk.verma import (
    InfiniteSelection,
    MissingParameter,
    ModuleVector,
    PbwMonomial,
    Weight,
    act_closed_form,
    act_generic,
    act_word,
    check_monomial,
    d_grade,
    level_basis,
    resolve_params,
    symbolic_params,
    vacuum,
    weight_of,
)
from cgk.verma import _images

D1 = AlgebraSpec(1, 1, "mass")
D3 = AlgebraSpec(1, 3, "mass")
D1_5 = AlgebraSpec(1, 5, "mass")
M1 = AlgebraSpec(2, 1, "mass")
M3 = AlgebraSpec(2, 3, "mass")
EX2 = AlgebraSpec(2, 2, "exotic")
EX4 = AlgebraSpec(2, 4, "exotic")
NONE = AlgebraSpec(1, 2, "none")

DELTA = Scalar.symbol("delta")
MU = Scalar.symbol("mu")
R = Scalar.symbol("r")
THETA = Scalar.symbol("theta")
KAPPA = Scalar.symbol("kappa")


def mono(h, a=(), b=()):
    return PbwMonomial(h, tuple(a), tuple(b))


def test_vacuum_and_monomial_shape():
    v = vacuum(D1)
    assert v == ModuleVector.of(mono(0, (0,)))
    assert vacuum(M3).items()[0][0] == mono(0, (0, 0), (0, 0))
    assert vacuum(EX2).items()[0][0] == mono(0, (0, 0), (0,))
    assert vacuum(NONE).items()[0][0] == mono(0, (0,))
    with pytest.raises(ValueError):
        mono(-1, (0,))
    with pytest.raises(ValueError):
        act_generic(D1, Gen("H"), ModuleVector.of(mono(0, (0, 0))))


def test_missing_parameter():
    with pytest.raises(MissingParameter):
        resolve_params(D1, {"delta": 1})
    assert set(symbolic_params(M1)) == {"delta", "mu", "r"}
    assert set(symbolic_params(EX2)) == {"delta", "theta", "r"}
    assert set(symbolic_params(NONE)) == {"delta", "kappa"}
    # numeric values are accepted and coerced
    got = resolve_params(D1, {"delta": 2, "mu": Scalar.const(3)})
    assert got["delta"] == Scalar.const(2)


def test_symbolic_defaults_shared_and_copies_independent():
    for spec in (D1, M1, EX2, NONE):
        first = resolve_params(spec, None)
        assert dict(first) == dict(resolve_params(spec, None)) == symbolic_params(spec)
        with pytest.raises(TypeError):
            first["delta"] = Scalar.const(0)
        mine = symbolic_params(spec)
        mine["delta"] = Scalar.const(0)
        assert symbolic_params(spec)["delta"] == Scalar.symbol("delta")
        assert resolve_params(spec, None)["delta"] == Scalar.symbol("delta")


def test_h_raises_and_c_lowers_on_vacuum():
    for spec in (D1, D1_5, M1, M3, EX2):
        v = act_generic(spec, Gen("H"), vacuum(spec))
        (m, c), = v.items()
        assert m.h == 1 and c == Scalar.const(1)
        # C H |0> = [C, H]|0> = D|0> = -delta |0>
        w = act_generic(spec, Gen("C"), v)
        assert w == vacuum(spec).scaled(-DELTA)


def test_diagonal_eigenvalues():
    # central and rotation eigenvalues on a nontrivial monomial
    m = mono(1, (0, 1), (1, 0))
    v = ModuleVector.of(m)
    assert act_generic(M3, Gen("M"), v) == v.scaled(-MU)
    assert act_generic(M3, Gen("D"), v) == v.scaled(Scalar.const(6) - DELTA)
    assert act_generic(M3, Gen("J"), v) == v.scaled(-R)
    w = weight_of(M3, m)
    assert w[Gen("D")] == Scalar.const(6) - DELTA
    assert w[Gen("J")] == -R
    assert w[Gen("M")] == -MU

    me = mono(0, (1, 1), (1,))
    ve = ModuleVector.of(me)
    assert act_generic(EX2, Gen("Theta"), ve) == ve.scaled(THETA)
    assert act_generic(EX2, Gen("D"), ve) == ve.scaled(Scalar.const(4) - DELTA)
    assert act_generic(EX2, Gen("J"), ve) == ve.scaled(Scalar.const(1) - R)


def test_weight_of_example():
    w = weight_of(M1, mono(1, (0,), (1,)))
    assert w[Gen("D")] == Scalar.const(3) - DELTA
    assert w[Gen("J")] == Scalar.const(-1) - R


def test_closed_form_creation_example():
    # P1+ applied to H|0> picks up a lowering term
    v = act_closed_form(M3, Gen("P", 1, "+"), ModuleVector.of(mono(1, (0, 0), (0, 0))))
    assert v == ModuleVector(
        {
            mono(1, (0, 1), (0, 0)): Scalar.const(1),
            mono(0, (1, 0), (0, 0)): Scalar.const(1),
        }
    )
    assert act_generic(M3, Gen("P", 1, "+"), ModuleVector.of(mono(1, (0, 0), (0, 0)))) == v


def test_closed_form_c_example():
    v = act_closed_form(M1, Gen("C"), ModuleVector.of(mono(1, (1,), (0,))))
    assert v == ModuleVector.of(mono(0, (1,), (0,)), Scalar.const(1) - DELTA)
    assert act_generic(M1, Gen("C"), ModuleVector.of(mono(1, (1,), (0,)))) == v


def test_closed_form_unsupported():
    # the line family pairs its one string with itself:
    # C P0^2 |0> = (P1 P0 + P0 P1)|0> = [P1, P0]|0> = M|0> = -mu|0>
    v = ModuleVector.of(mono(0, (2,)))
    assert act_closed_form(D1, Gen("C"), v) == vacuum(D1).scaled(-MU)
    assert act_generic(D1, Gen("C"), v) == vacuum(D1).scaled(-MU)
    with pytest.raises(UnsupportedFamily):
        act_closed_form(NONE, Gen("C"), vacuum(NONE))
    # P2+ belongs to twoEll >= 2 only; both actions refuse it
    for action in (act_closed_form, act_generic):
        with pytest.raises(UnknownGenerator):
            action(M1, Gen("P", 2, "+"), ModuleVector.of(mono(0, (1,), (1,))))
        # a planar monomial does not fit the line family
        with pytest.raises(ValueError, match="does not fit"):
            action(D1, Gen("C"), ModuleVector.of(mono(0, (1,), (1,))))


@pytest.mark.parametrize("x", ["H", Gen("P", 9, "+"), Gen("H", 0), ("P", 9, "+"),
                               ("H", None, ""), ("P", 1, "+"), ["H", None, ""]], ids=repr)
def test_a_non_generator_is_refused_by_both_actions(x):
    # a name, a tuple of fields no generator of the family has, a plain
    # tuple equal to one of its generators, or an unhashable list of its
    # fields: only a Gen is a generator
    v = ModuleVector.of(mono(1, (0, 1), (1, 0)))
    for action in (act_closed_form, act_generic):
        with pytest.raises(UnknownGenerator, match=r"is not a generator of AlgebraSpec"):
            action(M3, x, v)


def test_exotic_central_pairing():
    def closed_word(gens):
        v = vacuum(EX2)
        for gen in reversed(gens):
            v = act_closed_form(EX2, gen, v)
        return v

    # P(l)- P(l)+ |0> = -I_l * theta |0>  (l = 1: I_1 = -1)
    word = [Gen("P", 1, "-"), Gen("P", 1, "+")]
    v = act_word(EX2, word, vacuum(EX2))
    assert v == vacuum(EX2).scaled(THETA)
    assert closed_word(word) == v
    # C P(1)+ P(0)- |0> = 2 theta |0>
    word = [Gen("C"), Gen("P", 1, "+"), Gen("P", 0, "-")]
    w = act_word(EX2, word, vacuum(EX2))
    assert w == vacuum(EX2).scaled(THETA * Scalar.const(2))
    assert closed_word(word) == w


def test_centerless_explicit_actions():
    # derived once by hand from the brackets; pinned against the oracle
    for h, k in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 3), (3, 2)]:
        v = ModuleVector.of(mono(h, (k,)))
        got_h = act_generic(NONE, Gen("H"), v)
        want_h = ModuleVector(
            {
                mono(h - 1, (k,)): Scalar.const(h) * (DELTA + Scalar.const(2 * k + h - 1)),
                mono(h, (k - 1,)): Scalar.const(2 * k) * KAPPA,
            }
            if h and k
            else (
                {mono(h - 1, (k,)): Scalar.const(h) * (DELTA + Scalar.const(2 * k + h - 1))}
                if h
                else ({mono(h, (k - 1,)): Scalar.const(2 * k) * KAPPA} if k else {})
            )
        )
        assert got_h == want_h, (h, k)

        got_p0 = act_generic(NONE, Gen("P", 0), v)
        want_p0 = ModuleVector.zero()
        if h:
            want_p0 = want_p0 + ModuleVector.of(mono(h - 1, (k,)), Scalar.const(2 * h) * KAPPA)
        if h >= 2:
            want_p0 = want_p0 + ModuleVector.of(mono(h - 2, (k + 1,)), Scalar.const(h * (h - 1)))
        assert got_p0 == want_p0, (h, k)

        got_p1 = act_generic(NONE, Gen("P", 1), v)
        want_p1 = ModuleVector.of(mono(h, (k,)), -KAPPA)
        if h:
            want_p1 = want_p1 + ModuleVector.of(mono(h - 1, (k + 1,)), Scalar.const(-h))
        assert got_p1 == want_p1, (h, k)

        assert act_generic(NONE, Gen("D"), v) == v.scaled(
            -DELTA - Scalar.const(2 * (h + k))
        )


def test_representation_property_generic():
    # [X, Y] acting as X(Y v) - Y(X v) for a spread of pairs and vectors
    rng = random.Random(20260822)
    for spec in (D1, M1, EX2, NONE, AlgebraSpec(1, 3, "mass")):
        gens = enumerate_generators(spec)
        basis = level_basis(spec, 2) + level_basis(spec, 3)
        for _ in range(25):
            x, y = rng.choice(gens), rng.choice(gens)
            m = rng.choice(basis)
            v = ModuleVector.of(m)
            lhs = act_generic(spec, x, act_generic(spec, y, v)) - act_generic(
                spec, y, act_generic(spec, x, v)
            )
            rhs = ModuleVector.zero()
            for gen, coef in bracket(spec, x, y).items():
                rhs = rhs + act_generic(spec, gen, v).scaled(coef)
            assert lhs == rhs, (spec, x, y, m)


def test_weight_additivity_under_creation():
    # acting with a creation generator shifts the D (and J) eigenvalue by
    # the generator's grade: D(g v) = (lambda + c) (g v)
    for spec in (D1, M1, EX2):
        plus = decomposition(spec)[0]
        for g in plus:
            v = act_generic(spec, g, vacuum(spec))
            lam = weight_of(spec, vacuum(spec).items()[0][0])[Gen("D")]
            combo = bracket(spec, Gen("D"), g)
            shift = combo.terms.get(g, Scalar.zero())
            assert act_generic(spec, Gen("D"), v) == v.scaled(lam + shift), (spec, g)


def test_closed_form_matches_generic_sample():
    # every extended family with twoEll <= 7, levels <= 6, symbolic and at
    # a numeric point (acceptance stops at twoEll <= 5, level <= 4)
    for spec in (s for s in supported_specs(7) if s.ext != "none"):
        gens = enumerate_generators(spec)
        basis = [m for p in range(0, 7) for m in level_basis(spec, p)]
        for x in gens:
            for m in basis:
                v = ModuleVector.of(m)
                for params in (None, NUMERIC_POINT):
                    assert act_closed_form(spec, x, v, params=params) == act_generic(
                        spec, x, v, params=params), (spec, x, m, params)


def test_level_of_and_enumeration():
    assert _reference_level_of(D1, mono(2, (1,))) == 5
    assert _reference_level_of(NONE, mono(2, (3,))) == 5
    # a grade-zero factor counts 1
    assert _reference_level_of(EX2, mono(1, (0, 2), (0,))) == 4
    assert level_basis(D1, 0) == [mono(0, (0,))]
    assert level_basis(D1, 2) == [mono(0, (2,)), mono(1, (0,))]
    assert level_basis(NONE, 2) == [mono(0, (2,)), mono(1, (1,)), mono(2, (0,))]
    assert level_basis(D1, -1) == []
    # levels are exhaustive and disjoint
    seen = set()
    for p in range(0, 5):
        for m in level_basis(M3, p):
            assert _reference_level_of(M3, m) == p
            assert m not in seen
            seen.add(m)


def test_level_basis_weight_constraint():
    got = level_basis(D1, {Gen("D"): Scalar.const(2) - DELTA})
    assert got == [mono(0, (2,)), mono(1, (0,))]
    # string keys work too
    got2 = level_basis(D1, {"D": Scalar.const(2) - DELTA})
    assert got2 == got
    # non-integer shift selects nothing
    half_shift = Scalar.const(3) / Scalar.const(2) - DELTA
    assert level_basis(D1, {Gen("D"): half_shift}) == []
    # rotation eigenvalue narrows the planar selection
    full = level_basis(M1, {Gen("D"): Scalar.const(1) - DELTA})
    assert full == [mono(0, (0,), (1,)), mono(0, (1,), (0,))]
    plus_only = level_basis(M1, {Gen("D"): Scalar.const(1) - DELTA, Gen("J"): Scalar.const(1) - R})
    assert plus_only == [mono(0, (1,), (0,))]
    # mismatched central eigenvalue selects nothing
    assert level_basis(M1, {Gen("D"): Scalar.const(1) - DELTA, Gen("M"): MU}) == []
    # H raises the weight, so a constraint cannot pin it
    with pytest.raises(ValueError, match="not a diagonal generator"):
        level_basis(D1, {Gen("D"): Scalar.const(2) - DELTA, Gen("H"): DELTA})
    # two keys that parse to one generator pin it twice
    with pytest.raises(ValueError, match="D is pinned twice"):
        level_basis(D1, {"D": Scalar.const(2) - DELTA, " D": -DELTA})
    with pytest.raises(ValueError, match="D is pinned twice"):
        level_basis(D1, {Gen("D"): Scalar.const(2) - DELTA, "D": Scalar.const(2) - DELTA})


def test_level_basis_infinite_selection():
    with pytest.raises(InfiniteSelection):
        level_basis(EX2, {Gen("D"): Scalar.const(2) - DELTA})
    got = level_basis(EX2, {Gen("D"): Scalar.const(2) - DELTA, Gen("J"): Scalar.const(1) - R})
    # the grade-zero factor compensates the rotation eigenvalue
    assert got == [
        mono(0, (0, 2), (1,)),
        mono(0, (1, 0), (0,)),
        mono(1, (0, 1), (0,)),
    ]
    for m in got:
        w = weight_of(EX2, m)
        assert w[Gen("D")] == Scalar.const(2) - DELTA
        assert w[Gen("J")] == Scalar.const(1) - R


def test_weight_constraint_with_numeric_params():
    got = level_basis(D1, {Gen("D"): Scalar.const(-1)}, params={"delta": 3, "mu": 1})
    assert got == [mono(0, (2,)), mono(1, (0,))]


def test_centerless_weight_includes_g0_only_on_eigenvectors():
    w0 = weight_of(NONE, mono(0, (2,)))
    assert w0[Gen("P", 1)] == -KAPPA
    w1 = weight_of(NONE, mono(1, (0,)))
    assert Gen("P", 1) not in w1


def test_closed_form_matches_generic_levels_6_and_7():
    # from level 6 on, the annihilators meet monomials with h >= n + 2,
    # where the closed-form sums must stop at i = n
    for spec in (D1, D3, D1_5, M1, EX2, M3):
        gens = enumerate_generators(spec)
        for p in (6, 7):
            for m in level_basis(spec, p):
                v = ModuleVector.of(m)
                for x in gens:
                    assert act_closed_form(spec, x, v) == act_generic(spec, x, v), (
                        spec, p, x, m)


def _reference_act_generic(spec, x, v, params=None):
    """The generic action over Gen words, as first written: the oracle for
    the ``act_generic`` of the integer table."""
    pvals = resolve_params(spec, params)
    pos = normal_position(spec)
    top, a_gens, b_gens = creation_data(spec)
    eigen = {g: pvals[sym] * Scalar.const(sign)
             for g, (sym, sign) in weight_table(spec).items()}

    def word_of(m):
        letters = [(pos[top], top)] * m.h
        for gens, expo in ((a_gens, m.a), (b_gens, m.b)):
            for gen, e in zip(gens, expo):
                letters += [(pos[gen], gen)] * e
        letters.sort(key=lambda pg: -pg[0])
        return tuple(g for _, g in letters)

    def monomial_of(word):
        return PbwMonomial(sum(1 for g in word if g == top),
                           tuple(sum(1 for g in word if g == gen) for gen in a_gens),
                           tuple(sum(1 for g in word if g == gen) for gen in b_gens))

    pending = {}

    def push(word, coef):
        if coef.is_zero():
            return
        prev = pending.get(word)
        pending[word] = coef if prev is None else prev + coef

    for m, coef in v.terms.items():
        check_monomial(spec, m)
        push((x,) + word_of(m), coef)

    out = {}
    while pending:
        word, coef = pending.popitem()
        if coef.is_zero():
            continue
        if not word:
            m = monomial_of(word)
            out[m] = out.get(m, Scalar.zero()) + coef
            continue
        last = word[-1]
        if pos[last] == 0:
            continue
        if pos[last] == 1:
            push(word[:-1], coef * eigen[last])
            continue
        swap_at = None
        for i in range(len(word) - 1):
            if pos[word[i]] < pos[word[i + 1]]:
                swap_at = i
                break
        if swap_at is None:
            m = monomial_of(word)
            out[m] = out.get(m, Scalar.zero()) + coef
            continue
        i = swap_at
        push(word[:i] + (word[i + 1], word[i]) + word[i + 2:], coef)
        for gen, c in bracket(spec, word[i], word[i + 1]).items():
            push(word[:i] + (gen,) + word[i + 2:], coef * c)
    return ModuleVector(out)


# a numeric point with non-integral values, r among them
NUMERIC_POINT = {"delta": Fraction(-5, 2), "mu": Fraction(3, 7), "r": Fraction(2, 3),
                 "theta": Fraction(-4, 5), "kappa": Fraction(1, 3)}


def _params(kind, spec):
    """A parameter set of one of four kinds: every parameter symbolic; the
    numeric point; delta at the level-2 root (symbolic where the family has
    none) with the rest symbolic; delta = 1/(p + 1) for another parameter p
    of the family, a value whose denominator is not one."""
    if kind == "symbolic":
        return None
    if kind == "numeric":
        return NUMERIC_POINT
    params = symbolic_params(spec)
    if kind == "root":
        root = delta_at_condition(spec, 2)
        if root is not None:
            params["delta"] = root
    else:
        other = min(name for name in params if name != "delta")
        params["delta"] = Scalar.const(1) / (params[other] + Scalar.const(1))
    return params


PARAM_KINDS = pytest.mark.parametrize("kind", ["symbolic", "numeric", "root", "quotient"])


@PARAM_KINDS
def test_generic_action_matches_reference(kind):
    for spec in supported_specs(5):
        params = _params(kind, spec)
        gens = enumerate_generators(spec)
        for p in range(5):
            for m in level_basis(spec, p):
                v = ModuleVector.of(m)
                for x in gens:
                    assert act_generic(spec, x, v, params=params) == \
                        _reference_act_generic(spec, x, v, params=params), (spec, x, m)


def test_long_words_fill_without_nesting():
    # the images fill on a work stack: words longer than the recursion
    # limit act like short ones, and the limit is left as it is
    limit = sys.getrecursionlimit()
    for spec, x, m in ((D1, Gen("C"), mono(2000, (0,))),
                       (M1, parse_gen("P1+"), mono(700, (400,), (400,)))):
        assert sum(m.a + m.b) + m.h > limit
        v = ModuleVector.of(m)
        want = act_closed_form(spec, x, v)
        assert want
        assert act_generic(spec, x, v) == want, (spec, x)
    assert sys.getrecursionlimit() == limit


def test_images_are_shared_across_parameters(monkeypatch):
    # an image is free of parameters: the second assignment reads the entry
    # the first one filled, and both still match the oracle
    import cgk.verma as verma

    x, m = parse_gen("P1+"), mono(2, (1,), (1,))
    images = _images(M1)
    key = (x, m)
    images.pop(key, None)
    v = ModuleVector.of(m)
    first = _params("root", M1)
    assert act_generic(M1, x, v, params=first) == \
        _reference_act_generic(M1, x, v, params=first)
    assert key in images
    size = len(images)

    def no_fill(self, key):
        raise AssertionError("the image of %r was not cached" % (key,))

    monkeypatch.setattr(verma._Images, "__missing__", no_fill)
    for params in (NUMERIC_POINT, _params("quotient", M1)):
        assert act_generic(M1, x, v, params=params) == \
            _reference_act_generic(M1, x, v, params=params)
    assert len(images) == size


def test_structure_table_equals_bracket():
    for spec in supported_specs(6):
        images = _images(spec)
        gens = enumerate_generators(spec)
        assert images.pos.keys() == set(gens)
        for x in gens:
            for y in gens:
                table = {g: Scalar.const(c) for g, c in images.brk[x, y]}
                assert table == bracket(spec, x, y).terms, (spec, x, y)


# coefficients whose denominators are 1, delta + 1 and mu
MIXED_COEFS = (Scalar.const(3), Scalar.const(-2) / (DELTA + Scalar.const(1)),
               (MU + Scalar.const(2)) / MU, Scalar.const(Fraction(-5, 7)))


def _multi_term_vectors(spec, rng, count=4):
    """Seeded vectors of up to four monomials of levels 0-3, mixed coefficients."""
    basis = [m for p in range(4) for m in level_basis(spec, p)]
    out = []
    for _ in range(count):
        monos = rng.sample(basis, min(4, len(basis)))
        out.append(ModuleVector(dict(zip(monos, MIXED_COEFS))))
    return out


@PARAM_KINDS
def test_generic_action_matches_reference_on_sums(kind):
    # each input monomial is rewritten on its own and scaled once per
    # output term; the images of overlapping monomials must merge exactly
    rng = random.Random(7)
    for spec in supported_specs(5):
        params = _params(kind, spec)
        for v in _multi_term_vectors(spec, rng):
            for x in enumerate_generators(spec):
                assert act_generic(spec, x, v, params=params) == \
                    _reference_act_generic(spec, x, v, params=params), (spec, x, v)


@pytest.mark.parametrize("params", [None, NUMERIC_POINT], ids=["symbolic", "numeric"])
def test_closed_form_is_linear(params):
    rng = random.Random(11)
    for spec in (M1, M3, EX2, EX4, D1, D3, D1_5):
        for v in _multi_term_vectors(spec, rng):
            for x in enumerate_generators(spec):
                parts = ModuleVector.zero()
                for m, c in v.terms.items():
                    parts = parts + act_closed_form(
                        spec, x, ModuleVector.of(m), params=params).scaled(c)
                got = act_closed_form(spec, x, v, params=params)
                assert got == parts, (spec, x, v)
                assert got == act_generic(spec, x, v, params=params), (spec, x, v)


def test_closed_form_matches_generic_random():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def cases(draw):
        spec = draw(st.sampled_from([M1, M3, EX2, EX4, AlgebraSpec(2, 5, "mass"),
                                     D1, D3, D1_5]))
        _, a_gens, b_gens = creation_data(spec)
        m = mono(draw(st.integers(0, 8)),
                 draw(st.lists(st.integers(0, 2), min_size=len(a_gens),
                               max_size=len(a_gens))),
                 draw(st.lists(st.integers(0, 2), min_size=len(b_gens),
                               max_size=len(b_gens))))
        return spec, draw(st.sampled_from(enumerate_generators(spec))), m

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(cases())
    def check(case):
        spec, x, m = case
        v = ModuleVector.of(m)
        assert act_closed_form(spec, x, v) == act_generic(spec, x, v)

    check()


def test_closed_form_matches_generic_at_high_levels():
    # long strings on every extended family up to twoEll = 21, levels 10 and up
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    specs = [spec for spec in supported_specs(21) if spec.ext != "none"]

    @st.composite
    def cases(draw):
        spec = draw(st.sampled_from(specs))
        _, a_gens, b_gens = creation_data(spec)
        m = mono(draw(st.integers(0, 20)),
                 draw(st.lists(st.integers(0, 2), min_size=len(a_gens),
                               max_size=len(a_gens))),
                 draw(st.lists(st.integers(0, 2), min_size=len(b_gens),
                               max_size=len(b_gens))))
        hyp.assume(_reference_level_of(spec, m) >= 10)
        return spec, draw(st.sampled_from(enumerate_generators(spec))), m

    levels = []

    @hyp.settings(max_examples=96, deadline=None, derandomize=True, database=None)
    @hyp.given(cases())
    def check(case):
        spec, x, m = case
        v = ModuleVector.of(m)
        assert act_closed_form(spec, x, v) == act_generic(spec, x, v)
        levels.append(_reference_level_of(spec, m))

    check()
    assert min(levels) >= 10 and max(levels) > 40


def test_closed_form_never_reads_the_brackets(monkeypatch):
    # the closed form is the oracle for act_generic: with the bracket, its
    # integer table and the central constants unreachable it must give the
    # same vectors
    import cgk.algebra
    import cgk.scalars
    import cgk.verma

    # the expected vectors come first, which also warms _images(spec)
    cases = []
    for spec in (s for s in supported_specs(5) if s.ext != "none"):
        for m in (m for p in range(4) for m in level_basis(spec, p)):
            v = ModuleVector.of(m)
            cases += [(spec, x, v, act_generic(spec, x, v))
                      for x in enumerate_generators(spec)]

    def unreachable(*args):
        raise AssertionError("the closed form read the bracket rules")

    cgk.verma._strings.cache_clear()
    monkeypatch.setattr(cgk.algebra, "bracket", unreachable)
    monkeypatch.setattr(cgk.algebra, "_structure", unreachable)
    monkeypatch.setattr(cgk.verma, "_structure", unreachable)
    monkeypatch.setattr(cgk.scalars, "central_constant", unreachable)
    monkeypatch.setattr(cgk.algebra, "central_constant", unreachable)
    for spec, x, v, want in cases:
        assert act_closed_form(spec, x, v) == want, (spec, x, v)


def test_monomial_is_a_tuple_with_the_dataclass_face():
    m = mono(2, (0, 1), (3,))
    assert (m.h, m.a, m.b) == (2, (0, 1), (3,))
    assert hash(m) == hash((2, (0, 1), (3,)))
    assert repr(m) == "PbwMonomial(h=2, a=(0, 1), b=(3,))"
    assert str(m) == "|2;0,1;3>"
    assert pickle.loads(pickle.dumps(m)) == m
    assert type(copy.deepcopy(m)) is PbwMonomial
    with pytest.raises(ValueError, match=r"negative exponent in PbwMonomial\(h=0"):
        mono(0, (1, -1))
    with pytest.raises(AttributeError):
        m.h = 3


def test_layout_never_reads_the_brackets(monkeypatch):
    # levels, weights, bases, the shape checks and the chart read the basis
    # layout of algebra._family, which no bracket rule enters
    import cgk.algebra
    import cgk.reps
    import cgk.verma

    def results(spec):
        basis = level_basis(spec, 3)
        m = basis[-1]
        weight = weight_of(spec, m)
        top, a_gens, b_gens = creation_data(spec)
        return (basis, level_basis(spec, weight), weight,
                d_grade(spec, (top,) + a_gens + b_gens), check_monomial(spec, m),
                vacuum(spec), cgk.reps.chart(spec))

    specs = (D3, M3, EX4, NONE)
    want = [results(spec) for spec in specs]

    def unreachable(*args):
        raise AssertionError("the basis layout read the bracket rules")

    cgk.algebra._family.cache_clear()
    cgk.reps.chart.cache_clear()
    monkeypatch.setattr(cgk.algebra, "bracket", unreachable)
    monkeypatch.setattr(cgk.algebra, "_structure", unreachable)
    monkeypatch.setattr(cgk.verma, "_structure", unreachable)
    assert [results(spec) for spec in specs] == want


# --- the grading as first written: the oracle for the one-table grading ----

def _reference_grading(spec):
    """(slots, top, d_top, j_top): slots are (block, index, gen, dgrade,
    jgrade, lweight) for the a/b strings."""
    def grade(diag, gen):
        combo = bracket(spec, diag, gen)
        return 0 if not combo.terms else combo.terms[gen].rational_value().numerator

    top, a_gens, b_gens = creation_data(spec)
    has_j = any(g.tag == "J" for g in weight_table(spec))
    slots = []
    for block, gens in (("a", a_gens), ("b", b_gens)):
        for i, gen in enumerate(gens):
            d = grade(Gen("D"), gen)
            j = grade(Gen("J"), gen) if has_j else 0
            slots.append((block, i, gen, d, j, abs(d) if d else 1))
    return (tuple(slots), top, grade(Gen("D"), top),
            grade(Gen("J"), top) if has_j else 0)


def _level_weights(spec):
    slots, top, d_top, _ = _reference_grading(spec)
    if spec.ext == "none":
        return slots, 1, [1] * len(slots)
    return slots, d_top, [(d if d > 0 else 1) for _, _, _, d, _, _ in slots]


def _reference_level_of(spec, m):
    check_monomial(spec, m)
    slots, top_w, slot_w = _level_weights(spec)
    total = m.h * top_w
    for (block, i, *_), lw in zip(slots, slot_w):
        total += (m.a[i] if block == "a" else m.b[i]) * lw
    return total


def _reference_weight_of(spec, m, params=None):
    check_monomial(spec, m)
    pvals = resolve_params(spec, params)
    slots, _, d_top, j_top = _reference_grading(spec)
    dshift, jshift = m.h * d_top, m.h * j_top
    for block, i, _, d, j, _ in slots:
        e = m.a[i] if block == "a" else m.b[i]
        dshift += e * d
        jshift += e * j
    eigen = {}
    for gen, (sym, sign) in weight_table(spec).items():
        base = pvals[sym] * Scalar.const(sign)
        if gen.tag == "D":
            eigen[gen] = base + Scalar.const(dshift)
        elif gen.tag == "J":
            eigen[gen] = base + Scalar.const(jshift)
        elif gen == Gen("P", 1) and spec.ext == "none":
            if m.h == 0:
                eigen[gen] = base
        else:
            eigen[gen] = base
    return Weight(eigen)


def _enumerate_by_level(spec, p):
    slots, top_w, slot_w = _level_weights(spec)
    lweights = [top_w] + slot_w
    sols = []

    def rec(i, rest, acc):
        if i == len(lweights):
            if rest == 0:
                sols.append(tuple(acc))
            return
        w = lweights[i]
        if i == len(lweights) - 1 and rest % w == 0:
            sols.append(tuple(acc) + (rest // w,))
            return
        for e in range(rest // w + 1):
            rec(i + 1, rest - e * w, acc + [e])

    rec(0, p, [])
    out = []
    for sol in sols:
        a = [0] * sum(1 for blk, *_ in slots if blk == "a")
        b = [0] * sum(1 for blk, *_ in slots if blk == "b")
        for (blk, idx, *_), e in zip(slots, sol[1:]):
            (a if blk == "a" else b)[idx] = e
        out.append(PbwMonomial(sol[0], tuple(a), tuple(b)))
    out.sort(key=lambda m: (m.h, m.a, m.b))
    return out


def _reference_as_int(scalar, what):
    if not scalar.is_rational():
        raise ValueError("%s is not a number: %s" % (what, scalar))
    val = scalar.rational_value()
    return int(val) if val.denominator == 1 else None


def _reference_level_basis(spec, constraint, params=None):
    """level_basis as first written, over the slot 6-tuples."""
    if isinstance(constraint, int):
        return [] if constraint < 0 else _enumerate_by_level(spec, constraint)
    if isinstance(constraint, Weight):
        eigen = dict(constraint.eigen)
    else:
        eigen = {}
        for key, val in dict(constraint).items():
            gen = key if isinstance(key, Gen) else parse_gen(key)
            eigen[gen] = val if isinstance(val, Scalar) else Scalar.const(val)
    pvals = resolve_params(spec, params)
    fixed = {name: val.rational_value() for name, val in pvals.items()
             if val.is_rational()}
    if fixed:
        eigen = {gen: val.substitute(fixed) for gen, val in eigen.items()}
    table = weight_table(spec)
    for gen in eigen:
        if gen not in table:
            raise ValueError("%s is not a diagonal generator of %r" % (gen, spec))
    if Gen("D") not in eigen:
        raise ValueError("a weight constraint must pin the D eigenvalue")
    sym, sign = table[Gen("D")]
    dshift = _reference_as_int(eigen[Gen("D")] - pvals[sym] * Scalar.const(sign),
                               "scaling shift")
    if dshift is None:
        return []
    jshift = None
    if Gen("J") in eigen:
        symj, signj = table[Gen("J")]
        jshift = _reference_as_int(eigen[Gen("J")] - pvals[symj] * Scalar.const(signj),
                                   "rotation shift")
        if jshift is None:
            return []
    only_h0 = False
    for gen in eigen:
        if gen.tag in ("M", "Theta", "P"):
            symc, signc = table[gen]
            if eigen[gen] != pvals[symc] * Scalar.const(signc):
                return []
            only_h0 = only_h0 or gen.tag == "P"
    slots, top, d_top, j_top = _reference_grading(spec)
    nonzero = [(d_top, j_top, ("top", None))]
    nonzero += [(d, j, (blk, idx)) for blk, idx, _, d, j, _ in slots if d != 0]
    zero_slots = [(blk, idx, j) for blk, idx, _, d, j, _ in slots if d == 0]
    if zero_slots and jshift is None:
        raise InfiniteSelection(
            "the scaling eigenvalue alone leaves a grade-zero factor free")
    if dshift and all(d * dshift < 0 for d, _, _ in nonzero):
        return []
    out = []

    def rec(i, rest, acc):
        if i == len(nonzero):
            if rest != 0:
                return
            h, jsum = 0, 0
            a = [0] * sum(1 for blk, *_ in slots if blk == "a")
            b = [0] * sum(1 for blk, *_ in slots if blk == "b")
            for (d, j, (blk, idx)), e in zip(nonzero, acc):
                jsum += j * e
                if blk == "top":
                    h = e
                else:
                    (a if blk == "a" else b)[idx] = e
            if zero_slots:
                blk, idx, jz = zero_slots[0]
                need = jshift - jsum
                if jz == 0 or need * jz < 0 or need % jz:
                    if need != 0:
                        return
                    e0 = 0
                else:
                    e0 = need // jz
                (a if blk == "a" else b)[idx] = e0
            elif jshift is not None and jsum != jshift:
                return
            out.append(PbwMonomial(h, tuple(a), tuple(b)))
            return
        w = abs(nonzero[i][0])
        for e in range(rest // w + 1):
            rec(i + 1, rest - e * w, acc + [e])

    rec(0, abs(dshift), [])
    if only_h0:
        out = [m for m in out if m.h == 0]
    out.sort(key=lambda m: (m.h, m.a, m.b))
    return out


def _outcome(fn, *args, **kw):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args, **kw)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


# two numeric points: integral, and non-integral with r among the values
GRID_POINTS = (None, {"delta": 3, "mu": 1, "r": 2, "theta": 5, "kappa": 0},
               NUMERIC_POINT)
GRID_BUMPS = (Scalar.const(1), Scalar.const(-1), Scalar.const(Fraction(1, 2)), MU)


def _grid_constraints(weight):
    """The weight, each entry dropped, and each entry bumped."""
    eigen = weight.eigen
    yield eigen
    for gen in eigen:
        yield {g: v for g, v in eigen.items() if g != gen}
        for bump in GRID_BUMPS:
            yield {**eigen, gen: eigen[gen] + bump}


@pytest.mark.parametrize("spec", supported_specs(7), ids=repr)
def test_grading_matches_reference(spec):
    for p in range(-1, 8):
        assert level_basis(spec, p) == _reference_level_basis(spec, p), (spec, p)
    for p in range(6):
        for m in level_basis(spec, p):
            assert _reference_level_of(spec, m) == p
            for params in GRID_POINTS:
                weight = _outcome(weight_of, spec, m, params=params)
                assert weight == _outcome(_reference_weight_of, spec, m, params=params)
                for constraint in _grid_constraints(weight_of(spec, m)):
                    assert _outcome(level_basis, spec, constraint, params=params) == \
                        _outcome(_reference_level_basis, spec, constraint,
                                 params=params), (spec, m, constraint, params)


@pytest.mark.parametrize("spec", supported_specs(21), ids=repr)
def test_layout_matches_reference(spec):
    # the basis layout of algebra._family beyond the caps of the grading
    # oracle above: slots, shape and grades, the chart and its coordinates
    from cgk.algebra import _family
    from cgk.diffop import Var
    from cgk.reps import _coordinates, chart

    slots, top, d_top, j_top = _reference_grading(spec)
    _, top_w, slot_w = _level_weights(spec)
    _, a_gens, b_gens = creation_data(spec)
    layout = _family(spec)
    factors = (top,) + tuple(gen for _, _, gen, *_ in slots)
    assert list(layout["slot"].items()) == [(g, s) for s, g in enumerate(factors)]
    assert layout["shape"] == (len(a_gens), len(b_gens))
    assert layout["d"] == (d_top,) + tuple(d for *_, d, _, _ in slots)
    assert layout["j"] == (j_top,) + tuple(j for *_, j, _ in slots)
    assert layout["level"] == (top_w,) + tuple(slot_w)
    names = [Var("t")] + [Var("x" if block == "a" else "y", i) for block, i, *_ in slots]
    assert list(chart(spec)) == names
    assert _coordinates(spec) == {gen: s for s, gen in enumerate(factors) if s}


def test_weight_spaces_partition_each_level():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(supported_specs(7)), st.integers(0, 6),
               st.sampled_from(GRID_POINTS))
    def check(spec, p, params):
        basis = level_basis(spec, p)
        classes = {}
        for m in basis:
            classes.setdefault(repr(weight_of(spec, m, params=params)), []).append(m)
        covered = []
        for members in classes.values():
            weight = weight_of(spec, members[0], params=params)
            space = level_basis(spec, weight, params=params)
            # the weight space holds the level's monomials of that weight
            assert [m for m in space if _reference_level_of(spec, m) == p
                    and weight_of(spec, m, params=params) == weight] == members
            covered += members
        assert sorted(covered) == basis

    check()


@pytest.mark.parametrize("spec", supported_specs(5), ids=repr)
def test_cached_selection_matches_brute_force(spec):
    # the cached enumeration against the independent one: levels 0-6, and
    # the monomials of levels 0-12 filtered by weight_of for each predicted
    # weight of q <= 3, every parameter symbolic and at two numeric points
    # (the exotic weight spaces of q = 3 reach level 9, the others 2q)
    pool = [m for p in range(13) for m in _enumerate_by_level(spec, p)]
    for p in range(7):
        assert level_basis(spec, p) == _enumerate_by_level(spec, p), (spec, p)
    for params in GRID_POINTS:
        for q in range(1, 4):
            weight = predicted_weight(spec, q, params=params)
            want = sorted(m for m in pool if weight_of(spec, m, params=params) == weight)
            assert want, (spec, q, params)
            assert level_basis(spec, weight.eigen, params=params) == want, (spec, q, params)


def test_selection_returns_a_fresh_list():
    weight = predicted_weight(EX2, 2).eigen
    for constraint in (3, weight):
        want = level_basis(EX2, constraint)
        got = level_basis(EX2, constraint)
        got.append(got.pop(0))
        got.append(PbwMonomial(9, (0, 0), (0,)))
        assert level_basis(EX2, constraint) == want
        got.clear()
        assert level_basis(EX2, constraint) == want != []
