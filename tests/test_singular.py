import copy
import functools
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

import pytest

from cgk import cli, singular, verma
from cgk.algebra import (AlgebraSpec, Gen, annihilator_generators, decomposition,
                         supported_specs, weight_table)
from cgk.scalars import SYMBOLS, ParamPoly, Scalar, parse_scalar, poly_div_exact, poly_gcd
from cgk.singular import (
    NonPolynomialParameter,
    SearchResult,
    SingularReport,
    _matrix_kernel,
    _search_system,
    certify,
    delta_at_condition,
    predicted_weight,
    quadratic_element,
    search_singular,
    singular_closed,
    singular_condition,
    verify_singular,
    weight_shift,
)
from cgk.verma import (
    ModuleVector,
    PbwMonomial,
    Weight,
    act_generic,
    level_basis,
    required_parameters,
    resolve_params,
    symbolic_params,
    vacuum,
)

D1 = AlgebraSpec(1, 1, "mass")
D3 = AlgebraSpec(1, 3, "mass")
M1 = AlgebraSpec(2, 1, "mass")
EX2 = AlgebraSpec(2, 2, "exotic")
NONE = AlgebraSpec(1, 2, "none")

DELTA = Scalar.symbol("delta")
MU = Scalar.symbol("mu")


def mono(h, a=(), b=()):
    return PbwMonomial(h, tuple(a), tuple(b))


def params_at_root(spec, q):
    root = delta_at_condition(spec, q)
    out = {"delta": root}
    if spec.ext == "mass":
        out["mu"] = Scalar.symbol("mu")
    elif spec.ext == "exotic":
        out["theta"] = Scalar.symbol("theta")
        out["r"] = Scalar.symbol("r")
    if spec.d == 2 and spec.ext == "mass":
        out["r"] = Scalar.symbol("r")
    return out


def test_condition_examples():
    assert singular_condition(D1, 1) == Scalar.const(2) * DELTA + Scalar.const(1)
    assert singular_condition(AlgebraSpec(2, 1, "mass"), 2) == DELTA
    assert singular_condition(EX2, 1) == DELTA + Scalar.const(2)
    assert singular_condition(NONE, 3) == Scalar.symbol("kappa")
    with pytest.raises(ValueError):
        singular_condition(D1, 0)
    for q in (0, -1):
        with pytest.raises(ValueError, match="q must be a positive integer"):
            predicted_weight(D1, q)
        with pytest.raises(ValueError, match="q must be a positive integer"):
            singular_closed(D1, q)


def _reference_singular_condition(spec, q):
    """singular_condition with the formula written out per family."""
    delta = Scalar.symbol("delta")
    if spec.ext == "none":
        return Scalar.symbol("kappa")
    if spec.d == 1:
        # 2*delta - 2(q-1) + (l+1/2)^2 = 0, written without half-integers
        lp = Fraction(spec.twoEll + 1, 2)
        return Scalar.const(2) * delta + Scalar.const(-2 * (q - 1) + lp * lp)
    if spec.ext == "mass":
        lp = Fraction(spec.twoEll + 1, 2)
        return delta + Scalar.const(-q + lp * lp + 1)
    ell = spec.twoEll // 2
    return delta + Scalar.const(-q + ell * (ell + 1) + 1)


def test_condition_matches_reference():
    for spec in supported_specs(21):
        for q in range(1, 6):
            assert singular_condition(spec, q) == _reference_singular_condition(spec, q), (
                spec, q)


def test_weight_shift_is_the_grade_of_the_quadratic_element():
    for spec in supported_specs(9):
        for q in range(1, 5):
            assert weight_shift(spec, q) == (-2 * q if spec.ext == "none" else 2 * q)
    assert [s for s in supported_specs(9) if s.ext == "none"] == [NONE]


def _reference_quadratic_element(spec, params=None):
    """quadratic_element with its factors and coefficients written out per
    family."""
    two_ell = spec.twoEll
    if spec.ext == "none":
        return [((Gen("P", 2),), Scalar.const(1))]
    pvals = resolve_params(spec, params)
    if spec.d == 1:
        half = (two_ell - 1) // 2
        return [((Gen("H"),), Scalar.const(2 * factorial(half) ** 2) * pvals["mu"]),
                ((Gen("P", half), Gen("P", half)), Scalar.const(1))]
    if spec.ext == "mass":
        half = (two_ell - 1) // 2
        return [((Gen("H"),), Scalar.const(factorial(half) ** 2) * pvals["mu"]),
                ((Gen("P", half, "+"), Gen("P", half, "-")), Scalar.const(1))]
    ell = two_ell // 2
    return [((Gen("H"),), Scalar.const(factorial(ell) * factorial(ell - 1)) * pvals["theta"]),
            ((Gen("P", ell - 1, "-"), Gen("P", ell, "+")), Scalar.const((-1) ** ell))]


def test_quadratic_element_matches_reference():
    # the factors of a word are creation generators, which commute, so a
    # word is compared as a multiset
    def multisets(pieces):
        return [(Counter(word), coef) for word, coef in pieces]

    point = {"delta": Fraction(-5, 2), "mu": 3, "theta": -4, "r": 2, "kappa": 5}
    for spec in supported_specs(21):
        for params in (None, point):
            got = quadratic_element(spec, params)
            want = _reference_quadratic_element(spec, params)
            assert multisets(got) == multisets(want), spec


def _reference_predicted_weight(spec, q, params=None):
    """predicted_weight with the shift written out per family."""
    pvals = resolve_params(spec, params)
    shift = -2 * q if spec.ext == "none" else 2 * q
    eigen = {}
    for gen, (sym, sign) in weight_table(spec).items():
        base = pvals[sym] * Scalar.const(sign)
        eigen[gen] = base + Scalar.const(shift) if gen.tag == "D" else base
    return Weight(eigen)


def test_predicted_weight_matches_reference():
    points = (None, {"delta": Fraction(-5, 2), "mu": 3, "r": Fraction(2, 3),
                     "theta": -4, "kappa": Fraction(1, 3)})
    for spec in supported_specs(9):
        for q in range(1, 5):
            for params in points:
                want = _reference_predicted_weight(spec, q, params)
                got = predicted_weight(spec, q, params=params)
                assert got == want and list(got.eigen) == list(want.eigen), (spec, q)


def test_delta_at_condition():
    assert delta_at_condition(D1, 1) == Fraction(-1, 2)
    assert delta_at_condition(D1, 2) == Fraction(1, 2)
    assert delta_at_condition(AlgebraSpec(2, 1, "mass"), 2) == 0
    assert delta_at_condition(EX2, 1) == -2
    assert delta_at_condition(NONE, 2) is None


def test_closed_form_shape_line_family():
    v = singular_closed(D1, 1)
    assert v == ModuleVector(
        {mono(1, (0,)): Scalar.const(2) * MU, mono(0, (2,)): Scalar.const(1)}
    )


def test_verify_singular_at_root_and_off_root():
    for spec, q in [(D1, 1), (D1, 2), (D3, 1), (M1, 1), (M1, 2), (EX2, 1)]:
        params = params_at_root(spec, q)
        v = singular_closed(spec, q, params=params)
        report = verify_singular(spec, v, params=params)
        assert report.ok, (spec, q, report.failures)
        want = predicted_weight(spec, q, params=params)
        assert report.weight[Gen("D")] == want[Gen("D")]
        # off the condition the same candidate must fail
        v_bad = singular_closed(spec, q)
        bad = verify_singular(spec, v_bad)
        assert not bad.ok, (spec, q)


def test_verify_rejects_zero_and_inhomogeneous():
    report = verify_singular(D1, ModuleVector.zero())
    assert not report.ok
    v = vacuum(D1) + ModuleVector.of(mono(1, (0,)))
    assert not verify_singular(D1, v).ok


def _verify_cases():
    """(spec, q, params, vector): for every family of supported_specs(5) and
    q = 1, 2, the closed-form vector at the numeric root (kappa = 0 on the
    centerless family), off the root, and at the root plus a stray monomial,
    the last of level 4, which most annihilators fail on."""
    for spec in supported_specs(5):
        for q in (1, 2):
            if spec.ext == "none":
                root, off = {"delta": DELTA, "kappa": 0}, {"delta": DELTA, "kappa": 1}
            else:
                root = numeric_params_at_root(spec, q)
                off = dict(root, delta=root["delta"] + 1)
            v = singular_closed(spec, q, params=root)
            yield spec, q, root, v
            yield spec, q, off, singular_closed(spec, q, params=off)
            yield spec, q, root, v + ModuleVector.of(level_basis(spec, 4)[-1])


def test_verify_verdict_is_its_failure_list():
    # ok, bool() and an empty failure list agree, and replacing the
    # failures of a passing report flips its verdict
    for spec, q, params, v in _verify_cases():
        report = verify_singular(spec, v, params=params)
        assert report.ok == bool(report) == (not report.failures), (spec, q, params)
        if report.ok:
            failed = SingularReport(report.vector, report.weight, ["candidate vector is zero"])
            assert not failed.ok and not failed and report.ok


def test_reports_are_records_with_the_dataclass_face():
    v = ModuleVector.of(PbwMonomial(0, (1,), ()))
    found, report = SearchResult([v]), SingularReport(v, None)
    assert (found.vectors, found.caveats) == ([v], [])
    assert (report.vector, report.weight, report.failures) == (v, None, [])
    assert SearchResult(vectors=[v], caveats=[]) == found
    assert SingularReport(vector=v, weight=None, failures=[]) == report
    assert found != SearchResult([v], [Scalar.symbol("mu")]) and found != SearchResult([])
    assert report != SingularReport(v, None, ["candidate vector is zero"])
    # equal fields of another class do not make an equal record
    assert found != (found.vectors, found.caveats) and report != found
    assert repr(found) == "SearchResult(vectors=[%r], caveats=[])" % (v,)
    assert repr(report) == "SingularReport(vector=%r, weight=None, failures=[])" % (v,)
    # the default lists are not shared between instances
    SearchResult([]).caveats.append(1)
    SingularReport(v, None).failures.append("x")
    assert SearchResult([]).caveats == [] and SingularReport(v, None).failures == []
    for obj in (found, report):
        copies = [copy.deepcopy(obj), copy.copy(obj)]
        copies += [pickle.loads(pickle.dumps(obj, proto))
                   for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert twin == obj and type(twin) is type(obj), (obj, twin)
    assert list(found) == [v] and len(found) == 1 and not SearchResult([])
    assert report.ok and report and not SingularReport(v, None, ["x"])
    with pytest.raises(TypeError):
        hash(found)


def test_verify_reports_as_on_every_annihilator(monkeypatch):
    # a failing check lists every failing annihilator: the same report as a
    # check over the whole wing
    reports = [verify_singular(spec, v, params=params) for spec, _, params, v in _verify_cases()]
    assert [r.ok for r in reports] == [True, False, False] * (len(reports) // 3)
    # some of them fail on an annihilator that is not kept
    assert any(kind == "annihilator" and x not in annihilator_generators(spec)[0]
               for (spec, *_), r in zip(_verify_cases(), reports) for kind, x, _ in r.failures)
    monkeypatch.setattr(singular, "annihilator_generators",
                        lambda spec: (tuple(decomposition(spec)[2]), ()))
    for (spec, q, params, v), report in zip(_verify_cases(), reports):
        assert verify_singular(spec, v, params=params) == report, (spec, q, params)


def test_passing_verify_acts_with_the_kept_annihilators_only(monkeypatch):
    calls = []

    def spy(spec, x, v, params=None):
        calls.append(x)
        return act_generic(spec, x, v, params=params)

    monkeypatch.setattr(singular, "act_generic", spy)
    passed = 0
    for spec, q, params, v in _verify_cases():
        calls.clear()
        report = verify_singular(spec, v, params=params)
        if report.ok:
            passed += 1
            assert calls == list(annihilator_generators(spec)[0]) + list(report.weight.eigen), (
                spec, q)
    assert passed == 2 * len(supported_specs(5))


def numeric_params_at_root(spec, q):
    return {
        "delta": delta_at_condition(spec, q),
        "mu": 1,
        "theta": 1,
        "r": Fraction(2, 3),
    }


def test_search_matches_closed_form():
    for spec, q in [(D1, 1), (D1, 2), (M1, 1), (EX2, 1)]:
        params = numeric_params_at_root(spec, q)
        closed = singular_closed(spec, q, params=params)
        weight = predicted_weight(spec, q, params=params)
        found = search_singular(spec, weight.eigen, params=params)
        assert len(found) == 1, (spec, q)
        assert not found.caveats
        got = found.vectors[0]
        # same ray: both normalized by their lexicographically first term
        closed_n = closed.scaled(closed.items()[0][1] ** -1)
        assert closed_n == got, (spec, q)


def test_search_with_symbolic_mass_reports_mass_caveats():
    params = params_at_root(D1, 1)
    closed = singular_closed(D1, 1, params=params)
    weight = predicted_weight(D1, 1, params=params)
    found = search_singular(D1, weight.eigen, params=params)
    assert len(found) == 1
    assert found.vectors[0] == closed.scaled(closed.items()[0][1] ** -1)
    # the kernel is valid wherever the recorded pivots are nonzero; with a
    # symbolic mass they may only involve the mass parameter
    for c in found.caveats:
        assert c.substitute({"mu": 1}).is_rational()


def test_search_off_root_is_empty():
    for spec, q in [(D1, 1), (M1, 1), (EX2, 1)]:
        params = dict(params_at_root(spec, q))
        params["delta"] = Fraction(delta_at_condition(spec, q)) + 1
        weight = predicted_weight(spec, q, params=params)
        found = search_singular(spec, weight.eigen, params=params)
        assert len(found) == 0, (spec, q)


def test_search_on_an_empty_weight_space():
    # a half-integer scaling shift selects no monomial: no rows, no kernel;
    # the centerless family adds its kappa row to the operators all the same
    for spec in (D1, NONE):
        eigen = {Gen("D"): -DELTA + Fraction(1, 2)}
        assert level_basis(spec, eigen) == []
        assert search_singular(spec, eigen) == SearchResult([], []), spec


def test_centerless_search():
    free = {"delta": Scalar.symbol("delta"), "kappa": 0}
    for p in range(1, 4):
        found = search_singular(NONE, p, params=free)
        assert len(found) == 1, p
        assert found.vectors[0] == ModuleVector.of(mono(0, (p,)))
        assert verify_singular(NONE, found.vectors[0], params=free).ok
        for kappa in (1, Fraction(-2), Fraction(7, 3)):
            params = {"delta": Scalar.symbol("delta"), "kappa": kappa}
            found_k = search_singular(NONE, p, params=params)
            assert len(found_k) == 0, (p, kappa)


def test_search_symbolic_reports_caveats_or_empty():
    # fully symbolic search at the q=1 weight space: generically empty,
    # any nonzero answer must carry caveats naming the cancelled pivots
    weight = predicted_weight(D1, 1)
    found = search_singular(D1, weight.eigen)
    assert isinstance(found, SearchResult)
    if found.vectors:
        assert found.caveats


def _reference_kernel(rows, ncols):
    """The former Gauss-Jordan kernel, kept as the oracle.

    Every other row is reduced by a multiple of the pivot row divided by
    the pivot; the pivot is of minimal total degree, the first row winning
    ties, and each non-rational pivot is a caveat.
    """
    mat = [list(r) for r in rows]
    caveats = []
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        best = None
        for r in range(row, len(mat)):
            entry = mat[r][col]
            if entry.is_zero():
                continue
            deg = entry.num.total_degree() + entry.den.total_degree()
            if best is None or deg < best[0]:
                best = (deg, r)
        if best is None:
            continue
        _, r = best
        mat[row], mat[r] = mat[r], mat[row]
        piv = mat[row][col]
        if not piv.is_rational():
            caveats.append(piv)
        for r2 in range(len(mat)):
            if r2 == row:
                continue
            factor = mat[r2][col] / piv
            if factor.is_zero():
                continue
            for c in range(ncols):
                mat[r2][c] = mat[r2][c] - factor * mat[row][c]
        pivots.append((row, col))
        row += 1
        if row == len(mat):
            break
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Scalar.zero()] * ncols
        vec[fc] = Scalar.const(1)
        for prow, pcol in pivots:
            piv = mat[prow][pcol]
            vec[pcol] = -(mat[prow][fc] / piv)
        basis.append(tuple(vec))
    return basis, caveats


def _sparse(rows):
    """Dense rows as sparse ones: a dict {col: entry} of the nonzero
    entries of each row."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _dense(vectors, ncols):
    """Sparse rows or kernel vectors {col: entry} as tuples of ncols Scalars."""
    return [tuple(vec.get(c, Scalar.zero()) for c in range(ncols)) for vec in vectors]


def _cleared(rows, rational=None):
    """Sparse Scalar rows in the ring the kernel eliminates in, each row
    times the lcm of its denominators.  When ``rational`` (by default: when
    every entry is rational) the entries become Python ints; otherwise
    ParamPoly, each row times the lcm of its polynomial denominators."""
    if rational is None:
        rational = all(x.is_rational() for row in rows for x in row.values())
    out = []
    for row in rows:
        if rational:
            values = {c: x.rational_value() for c, x in row.items()}
            scale = lcm(*(v.denominator for v in values.values()))
            out.append({c: v.numerator * (scale // v.denominator) for c, v in values.items()})
            continue
        scale = ParamPoly.const(1)
        for x in row.values():
            scale = poly_div_exact(scale * x.den, poly_gcd(scale, x.den))
        out.append({c: poly_div_exact(x.num * scale, x.den) for c, x in row.items()})
    return out


def _as_scalar(x):
    return x if type(x) is Scalar else Scalar.const(x)


def _solved(kernel, ncols):
    """The kernel vectors {col: entry} (ints, Fractions or Scalars) as the
    search prints them: Scalars, each vector divided by its least-column
    entry, over the columns."""
    out = []
    for vec in kernel:
        scale = _as_scalar(vec[min(vec)])
        out.append(ModuleVector.of_raw({c: _as_scalar(x) / scale for c, x in vec.items()}))
    return out


def _matrix_kernel_of_scalars(rows, ncols):
    return _matrix_kernel(_cleared(rows), ncols)


def _reference_kernel_of_sparse(rows, ncols):
    basis, caveats = _reference_kernel(_dense(rows, ncols), ncols)
    return [{c: x for c, x in enumerate(vec) if x} for vec in basis], caveats


def _matrix_loci(solve, rows, ncols):
    """``singular._certified`` of the kernel of the sparse Scalar ``rows``:
    the kernel and each re-search at a point are solve(rows, ncols), with
    the point substituted into the rows."""
    @functools.cache
    def search(point):
        at = dict(point)
        moved = [{c: x.substitute(at) for c, x in row.items()} for row in rows]
        kernel, caveats = solve([{c: x for c, x in row.items() if x} for row in moved], ncols)
        return SearchResult(_solved(kernel, ncols), caveats)

    return singular._certified(search)


def _same_loci(got, want):
    """Certified loci of two eliminations agree: the hyperplanes always,
    and every locus when every factor splits on both sides."""
    assert {k: d for k, d in got[0].items() if len(k) == 1} == {
        k: d for k, d in want[0].items() if len(k) == 1}
    if not (got[1] or want[1]):
        assert got == want


def _checked_kernel(rows, ncols):
    """The kernel of the sparse int or ParamPoly ``rows``, checked against
    ``_reference_kernel`` on them as dense Scalars: same vectors, stored
    without zeros, and the same certified loci, each side re-solving its
    own rows at each point (see ``_same_loci``).  The rows are left as
    they were."""
    before = [dict(row) for row in rows]
    basis, caveats = _matrix_kernel(rows, ncols)
    assert rows == before
    assert all(x for vec in basis for x in vec.values())
    scalars = [{c: Scalar(x) for c, x in row.items()} for row in rows]
    assert _dense(basis, ncols) == _reference_kernel(_dense(scalars, ncols), ncols)[0]
    _same_loci(_matrix_loci(_matrix_kernel_of_scalars, scalars, ncols),
               _matrix_loci(_reference_kernel_of_sparse, scalars, ncols))
    return basis, caveats


# (d, twoEll, ext, highest q): the singular cases the search benchmark runs
SEARCH_GRID = ((1, 1, "mass", 3), (1, 3, "mass", 3), (1, 5, "mass", 3),
               (2, 1, "mass", 3), (2, 3, "mass", 3), (2, 2, "exotic", 3),
               (2, 4, "exotic", 2))


def _search_grid():
    """(spec, constraint, params) of every search: each singular case with
    every parameter symbolic and at the numeric root, and the centerless
    levels 1-5 with kappa symbolic and at kappa = 0."""
    for d, two_ell, ext, q_max in SEARCH_GRID:
        spec = AlgebraSpec(d, two_ell, ext)
        for q in range(1, q_max + 1):
            for params in (symbolic_params(spec), numeric_params_at_root(spec, q)):
                yield spec, predicted_weight(spec, q, params=params).eigen, params
    for level in range(1, 6):
        for kappa in (Scalar.symbol("kappa"), 0):
            yield NONE, level, {"delta": DELTA, "kappa": kappa}


def _kernel_calls_match_reference(monkeypatch, searches):
    """Run the searches with every kernel call checked against
    ``_reference_kernel``; return the number of calls."""
    matrices = []

    def checked(rows, ncols):
        matrices.append(ncols)
        return _checked_kernel(rows, ncols)

    monkeypatch.setattr(singular, "_matrix_kernel", checked)
    for spec, constraint, params in searches:
        search_singular(spec, constraint, params=params)
    return len(matrices)


def test_kernel_matches_reference_on_search_grid(monkeypatch):
    assert _kernel_calls_match_reference(monkeypatch, _search_grid()) == 50


def _dense_system(spec, constraint, params, annihilators):
    """A search's system rebuilt densely from the module action and
    ``ModuleVector.coefficient``, as ``cgkbench/checks.py`` builds it over
    every annihilator: one column per basis monomial, one row per
    (operator, monomial of its images), the monomials sorted by (h, a, b).
    The operators are ``annihilators`` and, on the centerless family, P1
    shifted by kappa."""
    pvals = resolve_params(spec, params)
    basis = level_basis(spec, constraint, params=params)
    operators = [(x, None) for x in annihilators]
    if spec.ext == "none":
        operators.append((Gen("P", 1), pvals["kappa"]))
    rows = []
    for x, shift in operators:
        images = []
        for m in basis:
            img = act_generic(spec, x, ModuleVector.of(m), params=params)
            if shift is not None:
                img = img + ModuleVector.of(m, shift)
            images.append(img)
        targets = sorted({t for img in images for t in img.terms},
                         key=lambda m: (m.h, m.a, m.b))
        rows += [[img.coefficient(t) for img in images] for t in targets]
    return basis, rows


def _entries(rows):
    """Each row's (column, type, entry) in column order."""
    return [[(c, type(x), x) for c, x in sorted(row.items())] for row in rows]


def _is_rational(spec, params):
    return all(v.is_rational() for v in resolve_params(spec, params).values())


def _check_system_matches_rebuild(spec, constraint, params):
    """``_search_system`` equals the dense rebuild over the kept
    annihilators, cleared on the test side: same basis, rows in the same
    order with the same entries in the same ring, ints when every
    parameter is rational and ParamPoly otherwise."""
    basis, rows = _search_system(spec, constraint, params)
    want_basis, want_rows = _dense_system(spec, constraint, params,
                                          annihilator_generators(spec)[0])
    assert basis == want_basis, (spec, constraint, params)
    assert _entries(rows) == _entries(_cleared(_sparse(want_rows), _is_rational(spec, params))), (
        spec, constraint, params)


def _full_system(spec, constraint, params=None):
    """The search's system rebuilt over every annihilator, cleared."""
    basis, rows = _dense_system(spec, constraint, params, decomposition(spec)[2])
    return basis, _cleared(_sparse(rows), _is_rational(spec, params))


def _certified_search(spec, constraint, params):
    """(search_singular, certify of it) on the same arguments."""
    found = search_singular(spec, constraint, params=params)
    return found, certify(spec, constraint, params, found)


def _check_search_matches_full_system(monkeypatch, spec, constraint, params):
    """``search_singular`` and ``certify`` answer as on the rebuild over
    every annihilator, which every re-search of ``certify`` rebuilds too:
    the same vectors, and the same certified loci."""
    found, loci = _certified_search(spec, constraint, params)
    with monkeypatch.context() as patch:
        patch.setattr(singular, "_search_system", _full_system)
        want, want_loci = _certified_search(spec, constraint, params)
    assert found.vectors == want.vectors, (spec, constraint, params)
    assert loci == want_loci, (spec, constraint, params)
    return loci


def test_search_system_matches_dense_rebuild():
    # the row order decides pivot ties and the order of the raw caveats
    for spec, constraint, params in _search_grid():
        _check_system_matches_rebuild(spec, constraint, params)


def _random_searches(check):
    """Run check(spec, constraint, params) on drawn searches: families of
    supported_specs(5) at a drawn singular weight or level, each parameter
    a symbol, an int, a Fraction or a linear polynomial in any symbol,
    another parameter's included; half the draws take only numbers, so
    that the rows are ints."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    numbers = st.one_of(st.integers(-4, 4), fractions)

    def values(name):
        linear = st.tuples(fractions, fractions.filter(bool), st.sampled_from(SYMBOLS)).map(
            lambda t: Scalar.symbol(t[2]) * t[1] + t[0])
        return st.one_of(st.just(Scalar.symbol(name)), numbers, linear)

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def run(data):
        spec = data.draw(st.sampled_from(supported_specs(5)))
        names = required_parameters(spec)
        rational = data.draw(st.booleans())
        params = {name: data.draw(numbers if rational else values(name))
                  for name in names}
        if data.draw(st.booleans()):
            q = data.draw(st.integers(1, 3))
            constraint = predicted_weight(spec, q, params=params).eigen
        else:
            constraint = data.draw(st.integers(0, 4))
        check(spec, constraint, params)

    run()


def test_search_system_matches_rebuild_random():
    _random_searches(_check_system_matches_rebuild)


def test_search_matches_the_full_annihilator_system(monkeypatch):
    # the kept annihilators' rows span the same row space as every
    # annihilator's at every point, so the kernel is the same, and so are
    # the certified loci, though the raw caveats may differ (see the
    # (2,5,mass) level-8 test below)
    searches = list(_search_grid()) + _whole_level_searches()
    assert len(searches) == 56
    for search in searches:
        _check_search_matches_full_system(monkeypatch, *search)


def test_search_matches_the_full_annihilator_system_random(monkeypatch):
    _random_searches(lambda *search: _check_search_matches_full_system(monkeypatch, *search))


def test_search_never_calls_the_generic_action(monkeypatch):
    # the rows come from the image table, not from instantiated images
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[:2])
        return act_generic(*args, **kwargs)

    monkeypatch.setattr(singular, "act_generic", spy)
    monkeypatch.setattr(verma, "act_generic", spy)
    for spec, constraint, params in _search_grid():
        search_singular(spec, constraint, params=params)
    assert calls == []


def test_search_rejects_a_parameter_with_a_denominator():
    params = {"delta": Scalar.const(1) / (MU + 1), "mu": MU}
    assert issubclass(NonPolynomialParameter, ValueError)
    for constraint in (1, predicted_weight(D1, 1).eigen):
        with pytest.raises(NonPolynomialParameter, match="delta"):
            search_singular(D1, constraint, params=params)


def test_search_accepts_polynomial_parameters(monkeypatch):
    # delta = mu/2 + 1: a polynomial with a Fraction coefficient
    params = {"delta": MU / 2 + 1, "mu": MU, "r": Scalar.symbol("r")}
    searches = [(spec, constraint, params) for spec in (D1, M1)
                for constraint in (1, 2, predicted_weight(spec, 1, params=params).eigen)]
    for search in searches:
        _check_system_matches_rebuild(*search)
    assert _kernel_calls_match_reference(monkeypatch, searches) == len(searches)


def test_level_zero_search_is_the_vacuum():
    # one basis monomial and no rows: the kernel's one free column, with no
    # pivot to substitute into
    for spec in supported_specs(5):
        basis, rows = _search_system(spec, 0)
        assert (len(basis), rows) == (1, []), spec
        assert search_singular(spec, 0) == SearchResult([vacuum(spec)], []), spec


def _whole_level_searches():
    """The whole-level searches of tests/bench_layers.py, every parameter
    symbolic and at the numeric root of q = level / 2, whose singular
    vector lies on that level, so that the kernel is not empty."""
    return [(spec, level, params)
            for spec, level in ((D1, 10), (D1, 12), (M1, 6))
            for params in (symbolic_params(spec), numeric_params_at_root(spec, level // 2))]


def test_kernel_matches_reference_on_whole_levels(monkeypatch):
    searches = _whole_level_searches()
    assert _kernel_calls_match_reference(monkeypatch, searches) == 6
    for spec, level, params in searches[1::2]:
        assert len(search_singular(spec, level, params=params)) == 1, (spec, level)


def test_search_scales_the_reference_kernel(monkeypatch):
    # search_singular divides each kernel vector by its least-column entry
    # in the field of the matrix: its vectors are _reference_kernel's divided
    # the same way, and until then an int matrix's kernel holds ints and
    # Fractions (canonical: no Fraction is integral), a ParamPoly matrix's
    # Scalars
    calls = []

    def recorded(rows, ncols):
        basis, caveats = _matrix_kernel(rows, ncols)
        calls.append((rows, ncols, basis))
        return basis, caveats

    monkeypatch.setattr(singular, "_matrix_kernel", recorded)
    rings = Counter()
    for spec, constraint, params in list(_search_grid()) + _whole_level_searches():
        found = search_singular(spec, constraint, params=params)
        [(rows, ncols, kernel)] = calls
        calls.clear()
        [ring] = {type(x) for row in rows for x in row.values()}
        entries = [x for vec in kernel for x in vec.values()]
        if ring is int:
            assert all(type(x) is int or type(x) is Fraction and x.denominator != 1
                       for x in entries), (spec, constraint, params)
        else:
            assert ring is ParamPoly and all(type(x) is Scalar for x in entries)
        rings[ring] += len(entries)
        monos = level_basis(spec, constraint, params=params)
        scalars = [{c: Scalar(x) for c, x in row.items()} for row in rows]
        want = []
        for vec in _reference_kernel(_dense(scalars, ncols), ncols)[0]:
            scale = next(x for x in vec if x)
            want.append(ModuleVector({monos[c]: x / scale for c, x in enumerate(vec)}))
        assert found.vectors == want, (spec, constraint, params)
    assert rings[int] and rings[ParamPoly]


def test_search_with_a_parameter_valued_in_another_parameters_symbol(monkeypatch):
    # r = theta with theta = 0: the lowest weight's rotation eigenvalue is
    # written in theta, and the weight space takes theta = 0 on both sides
    params = {"delta": DELTA, "r": Scalar.symbol("theta"), "theta": 0}
    weight = predicted_weight(EX2, 1, params=params).eigen
    _check_system_matches_rebuild(EX2, weight, params)
    assert _kernel_calls_match_reference(monkeypatch, [(EX2, weight, params)]) == 1
    assert search_singular(EX2, weight, params=params) == SearchResult(
        [ModuleVector.of(mono(0, (0, 1), (1,)))], [])


def _matrices(st, size, entries):
    """A strategy of (rows, ncols) with 1 to ``size`` rows and columns.

    Sometimes a row is a multiple of another on its first t columns (a
    scaled duplicate when t is every column), two columns are equal, or a
    column is zero.  Such a row has zeros on those t columns once they are
    eliminated, so the kernel leaves it alone and may later take it as a
    stale pivot row.
    """

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, size))
        m = draw(st.integers(1, size))
        rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            k = draw(st.integers(-2, 2))
            t = draw(st.integers(1, m))
            rows[i][:t] = [x * k for x in rows[j][:t]]
        if m > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(m)))[:2]
            for row in rows:
                row[i] = row[j]
        if draw(st.booleans()):
            c = draw(st.integers(0, m - 1))
            for row in rows:
                row[c] = Scalar.zero()
        return rows, m

    return matrices()


def test_kernel_matches_reference_random():
    # sparse entries of degree <= 1, each in one symbol: denser ones make the
    # reference's gcds take minutes on a 2x3 matrix
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def atoms(names):
        return st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                         st.sampled_from(names)).map(
            lambda t: Scalar.symbol(t[2]) * t[1] + Scalar.const(t[0]))

    zero = st.just(Scalar.zero())
    atom3 = atoms(("delta", "mu", "r"))
    quotients = st.one_of(zero, atom3, st.tuples(atom3, atom3.filter(bool)).map(
        lambda p: p[0] / p[1]))
    polys = st.one_of(zero, atoms(("delta", "mu")))

    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(st.one_of(_matrices(st, 3, quotients), _matrices(st, 5, polys)))
    def check(case):
        rows, ncols = case
        _checked_kernel(_cleared(_sparse(rows)), ncols)

    check()


def test_kernel_matches_reference_rational():
    # every entry rational: the kernel runs on Python ints, which the
    # random test above almost never reaches.  About a third of the drawn
    # matrices have one row or one column.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entries = st.one_of(
        st.just(0), st.integers(-3, 3),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3)))).map(Scalar.const)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(_matrices(st, 6, entries))
    def check(case):
        rows, ncols = case
        assert not _checked_kernel(_cleared(_sparse(rows)), ncols)[1]

    check()


def test_kernel_pinned_slow_reference_case():
    # the Gauss-Jordan reference took tens of seconds on these rows as
    # Scalars; cleared into ParamPoly they take it well under a second, so
    # the pinned answer is checked against it as well
    rows = [[parse_scalar(x) for x in row] for row in (
        ("(-mu-2)/(r-2*mu-3)", "0", "r+1"),
        ("0", "r/(delta+3/2)", "0"),
        ("(-2*r+3)/(mu+2)", "2", "mu+3"),
        ("(delta*r-2*delta*mu+2*mu-3*delta+4)/(r-2*mu-3)", "1", "-2*delta-4"),
    )]
    basis, caveats = _checked_kernel(_cleared(_sparse(rows)), 3)
    assert basis == []
    assert [str(c) for c in caveats] == [
        "-mu-2",
        "r",
        "(-2*r^3+4*mu*r^2+mu^3+7*r^2-2*mu*r+7*mu^2+10*mu+3)/(mu+2)",
    ]


def test_search_certifies_the_kept_rows_as_the_full_system(monkeypatch):
    # (2,5,mass) level 8, every parameter symbolic: the kept rows list 51
    # raw caveats and the full system 52, each a multiple of mu or 1/mu but
    # for (3/16*delta+9/8)/mu^2; both certify to the same two loci
    spec = AlgebraSpec(2, 5, "mass")
    found = search_singular(spec, 8)
    assert (len(found), len(found.caveats)) == (0, 51)
    want = ({(("delta", -6),): 1, (("mu", 0),): 23}, [])
    assert _check_search_matches_full_system(monkeypatch, spec, 8, None) == want


def test_loci_do_not_depend_on_the_row_order(monkeypatch):
    # the rows of _search_system, shuffled before _matrix_kernel in the
    # search and in every re-search: other pivots, other raw caveats, the
    # same vectors and certified loci
    hyp = pytest.importorskip("hypothesis")
    searches = [(spec, constraint) for spec in supported_specs(5)
                for constraint in [*range(7), *(predicted_weight(spec, q).eigen
                                                for q in (1, 2, 3))]]
    want = [_certified_search(spec, constraint, None) for spec, constraint in searches]
    system = singular._search_system

    @hyp.settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @hyp.given(hyp.strategies.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)

        def shuffled(*args):
            basis, rows = system(*args)
            return basis, rng.sample(rows, len(rows))

        with monkeypatch.context() as patch:
            patch.setattr(singular, "_search_system", shuffled)
            for (spec, constraint), (found, loci) in zip(searches, want):
                got, got_loci = _certified_search(spec, constraint, None)
                assert (got.vectors, got_loci) == (found.vectors, loci), (spec, constraint)

    check()
    assert sum(len(found.caveats) for found, _ in want) > len(searches)


def _hand_built(monkeypatch, rows):
    """Make the search of every family solve the rows ``rows``, each a dict
    {column: scalar text} with the resolved parameters substituted, over
    the first columns of (1,1,mass) level 4."""
    ncols = 1 + max(c for row in rows for c in row)
    basis = level_basis(D1, 4)[:ncols]

    def system(spec, constraint, params=None):
        values = {n: v.num for n, v in resolve_params(spec, params).items()}
        built = [{c: parse_scalar(x).num.substitute(values) for c, x in row.items()}
                 for row in rows]
        return basis, [{c: x for c, x in row.items() if x} for row in built]

    monkeypatch.setattr(singular, "_search_system", system)
    return basis


def _printed(capsys, *argv):
    assert cli.run(["singular", "search", "--d", "1", "--two-ell", "1", "--ext", "mass",
                    *argv]) == 0
    return capsys.readouterr().out


def test_a_locus_kept_only_for_a_vector_denominator(monkeypatch, capsys):
    # at delta = -1 the kernel keeps its dimension 1, but the printed vector
    # has the coefficient 1/(delta+1) there: rule (b) keeps the locus
    basis = _hand_built(monkeypatch, [{0: "1", 2: "1"}, {1: "delta+1", 2: "1"}])
    found = search_singular(D1, 4)
    assert [str(c) for c in found.caveats] == ["delta+1"]
    assert found.vectors == [ModuleVector({basis[0]: Scalar.const(1),
                                           basis[1]: Scalar.const(1) / (DELTA + 1),
                                           basis[2]: Scalar.const(-1)})]
    assert len(search_singular(D1, 4, {"delta": -1, "mu": MU})) == 1
    assert certify(D1, 4, None, found) == ({(("delta", -1),): 1}, [])
    assert _printed(capsys, "--level", "4").endswith("\nat delta = -1: dimension 1\n")


def test_a_factor_that_does_not_split_is_uncertified(monkeypatch, capsys):
    # (delta+1)(delta^2+2)(delta+mu): delta = -1 splits off and is dropped,
    # as the dimension and the printed vector hold there; the rest has no
    # factor linear in one symbol, and is printed whole
    _hand_built(monkeypatch, [{0: "(delta+1)*(delta^2+2)*(delta+mu)", 1: "1"}])
    found = search_singular(D1, 4)
    assert len(found) == 1 and len(found.caveats) == 1
    rest = parse_scalar("(delta^2+2)*(delta+mu)")
    assert certify(D1, 4, None, found) == ({}, [((), rest.num)])
    assert _printed(capsys, "--level", "4").endswith("\nat %s = 0: not certified\n" % rest)
    assert json.loads(_printed(capsys, "--level", "4", "--render", "json"))["caveats"] == [
        {"at": {}, "vanishes": str(rest), "dimension": None}]
    # roots whose end coefficients pass _ROOT_BOUND are not looked for
    big = parse_scalar("(delta-100000)*(delta-100001)").num
    assert singular._linear_factors(big) == ([], big)
