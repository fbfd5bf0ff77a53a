"""Microbenchmarks, one small fixed input per layer of the stack.

ParamPoly mul, poly_div_exact and poly_gcd -> Scalar normalisation -> bracket
and the Jacobi audit of its integer table (jacobi_check) -> act_generic /
act_closed_form, on one vector and per unit monomial
(test_module_action_per_monomial) -> the search's weight space (level_basis) and
system (_search_system) -> its elimination (_matrix_kernel) -> the whole
search (search_singular), the certification of its caveats (certify, on
(2,5,mass) level 8) and the check of its vector (verify_singular) ->
diffop.compose, commutator and twisted_commutator -> rep_check /
intertwining_check.  The scale rows run larger families; each cold row
(test_module_scale_cold, test_intertwining_check_scale_cold) times a fresh
interpreter that imports cgk and runs its warm row's call once, the cost
of a one-shot command, caches and Leibniz tables built included, and
test_cli_cold times three ``cgk`` commands the same way.  The
search's system has one block of rows per kept annihilator of
``algebra.annihilator_generators`` (17 rows and 42 entries on the top case,
where every annihilator gives 23 and 60).  The file name
does not match ``test_*.py``, so the tier-1 run does not collect it; it needs
``pytest-benchmark`` and skips without it.  Run it from the repository root:

    PYTHONPATH=src python -m pytest tests/bench_layers.py

To compare two checkouts, save a run of the first one and compare the
second against it, with the same storage directory for both.  Byte-compile
each checkout first: with ``PYTHONDONTWRITEBYTECODE`` set, a checkout
without current ``__pycache__`` files recompiles ``cgk`` in every process,
which doubles the set-up time of ``cgkbench`` runs and skews a comparison
towards the checkout that happens to be compiled.  Time two byte-compiled
copies of the same commit first: they can differ by a few per cent, so read
a difference between the checkouts only beyond that offset:

    cd OLD && python3 -m compileall -q src cgkbench
    cd NEW && python3 -m compileall -q src cgkbench
    cd OLD && PYTHONPATH=src python -m pytest tests/bench_layers.py \\
        --benchmark-storage="$BENCH_DIR" --benchmark-save=old
    cd NEW && PYTHONPATH=src python -m pytest tests/bench_layers.py \\
        --benchmark-storage="$BENCH_DIR" --benchmark-compare

``--benchmark-compare`` picks the latest saved run; add
``--benchmark-compare-fail=median:10%`` to fail on a slowdown.  On a
shared machine, alternate the two checkouts over several rounds before
trusting a difference of a few per cent.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

pytest.importorskip("pytest_benchmark")

from cgk.algebra import (  # noqa: E402
    AlgebraSpec,
    Gen,
    bracket,
    enumerate_generators,
    jacobi_check,
)
from cgk.diffop import commutator, compose, twisted_commutator  # noqa: E402
from cgk.invariants import intertwining_check, invariant_operator  # noqa: E402
from cgk.reps import left_action, rep_check  # noqa: E402
from cgk.scalars import ParamPoly, Scalar, poly_div_exact, poly_gcd  # noqa: E402
import cgk  # noqa: E402
from cgk.singular import (  # noqa: E402
    _matrix_kernel,
    _search_system,
    certify,
    delta_at_condition,
    predicted_weight,
    search_singular,
    singular_closed,
    verify_singular,
    weight_shift,
)
from cgk.verma import (  # noqa: E402
    ModuleVector,
    act_closed_form,
    act_generic,
    level_basis,
    symbolic_params,
)

D5 = AlgebraSpec(1, 5, "mass")
D7 = AlgebraSpec(1, 7, "mass")
M1 = AlgebraSpec(2, 1, "mass")
M3 = AlgebraSpec(2, 3, "mass")
M5 = AlgebraSpec(2, 5, "mass")
EX2 = AlgebraSpec(2, 2, "exotic")
EX6 = AlgebraSpec(2, 6, "exotic")
DELTA, MU, R = (ParamPoly.symbol(name) for name in ("delta", "mu", "r"))
P = DELTA * DELTA + MU * R - ParamPoly.const(3) * DELTA + ParamPoly.const(Fraction(1, 2))
Q = DELTA * MU - R * R + ParamPoly.const(2)
F = DELTA + MU + ParamPoly.const(1)


def test_parampoly_mul(benchmark):
    benchmark(lambda: (P * Q) * (P * Q))


def test_poly_div_exact_one_term(benchmark):
    quot = P * Q * F
    den = DELTA * MU * ParamPoly.const(3)
    assert benchmark(poly_div_exact, quot * den, den) == quot


def test_poly_div_exact_long_quotient(benchmark):
    quot = (P * Q) * (P * Q)
    assert benchmark(poly_div_exact, quot * F, F) == quot


def test_poly_gcd(benchmark):
    a, b = P * F * F, Q * F
    assert benchmark(poly_gcd, a, b) == F


def test_poly_gcd_monomial_content(benchmark):
    a, b = P * F * F * DELTA * DELTA * MU, Q * F * DELTA * MU * MU * MU
    assert benchmark(poly_gcd, a, b) == F * DELTA * MU


def test_scalar_normalisation(benchmark):
    num, den = P * Q * F, Q * F * ParamPoly.const(3)
    assert benchmark(Scalar, num, den) == Scalar(P) / Scalar.const(3)


def test_bracket(benchmark):
    gens = enumerate_generators(M3)
    benchmark(lambda: [bracket(M3, x, y) for x in gens for y in gens])


def test_jacobi_check(benchmark):
    assert benchmark(jacobi_check, M3) == []


def _module_action(benchmark, action, spec):
    """Every generator on the level-4 vector with coefficients 1, 2, ..."""
    basis = level_basis(spec, 4)
    v = ModuleVector({m: Scalar.const(i + 1) for i, m in enumerate(basis)})
    gens = enumerate_generators(spec)
    benchmark(lambda: [action(spec, x, v) for x in gens])


ACTIONS = pytest.mark.parametrize("action", [act_generic, act_closed_form],
                                  ids=["act_generic", "act_closed_form"])


@ACTIONS
def test_module_action(benchmark, action):
    _module_action(benchmark, action, M3)


@ACTIONS
def test_module_action_line_family(benchmark, action):
    _module_action(benchmark, action, D5)


@ACTIONS
def test_module_action_per_monomial(benchmark, action):
    """Every generator of (2,3,mass) on each level-4 monomial as a unit
    vector, the shape of the closed-vs-generic cases, where the per-call
    overhead dominates.  The calls go through a spec built afresh, equal to
    the key of the family's caches but not the same object, as each CLI
    command and workload case builds its own."""
    vectors = [ModuleVector.of(m) for m in level_basis(M3, 4)]
    gens = enumerate_generators(M3)
    for x in gens:  # the family's caches take their key before spec exists
        action(M3, x, vectors[0])
    spec = AlgebraSpec(2, 3, "mass")
    assert spec == M3 and spec is not M3
    benchmark(lambda: [action(spec, x, v) for x in gens for v in vectors])


def _top_search(point):
    """(spec, constraint, params) of the search workload's top case,
    (2,3,mass) q = 3: every parameter symbolic (ParamPoly entries), or at
    the numeric root mu = 1, r = 2/3 (a rational matrix, so Python ints)."""
    params = symbolic_params(M3) if point == "symbolic" else {
        "delta": delta_at_condition(M3, 3), "mu": 1, "r": Fraction(2, 3)}
    return M3, predicted_weight(M3, 3, params=params).eigen, params


POINTS = pytest.mark.parametrize("point", ["symbolic", "root"])


@POINTS
def test_level_basis(benchmark, point):
    """Selecting the weight space of the search workload's top case."""
    spec, constraint, params = _top_search(point)
    assert len(benchmark(level_basis, spec, constraint, params=params)) == 9


@POINTS
def test_search_system(benchmark, point):
    """Building the linear system of the search workload's top case: the
    rows of the kept annihilators C, P2+ and P2-."""
    basis, rows = benchmark(_search_system, *_top_search(point))
    assert (len(basis), len(rows), sum(map(len, rows))) == (9, 17, 42)
    ring = ParamPoly if point == "symbolic" else int
    assert all(type(x) is ring for row in rows for x in row.values())


@POINTS
def test_matrix_kernel(benchmark, point):
    """The elimination of the search workload's top case."""
    basis, rows = _search_system(*_top_search(point))
    basis, _ = benchmark(_matrix_kernel, rows, len(basis))
    assert len(basis) == (point == "root")


@POINTS
def test_search_singular(benchmark, point):
    """The whole search of the search workload's top case."""
    spec, constraint, params = _top_search(point)
    found = benchmark(search_singular, spec, constraint, params=params)
    assert len(found) == (point == "root")


def test_certify(benchmark):
    """Certifying the 51 raw caveats of (2,5,mass) level 8, every parameter
    symbolic: a search at each locus and at each locus those find."""
    found = search_singular(M5, 8)
    loci = benchmark(certify, M5, 8, None, found)
    assert loci == ({(("delta", -6),): 1, (("mu", 0),): 23}, [])


def test_verify_singular(benchmark):
    """Checking the closed-form vector of the search workload's top case at
    the root: the kept annihilators and the diagonal generators."""
    spec, _, params = _top_search("root")
    v = singular_closed(spec, 3, params=params)
    assert benchmark(verify_singular, spec, v, params=params).ok


def test_compose(benchmark):
    params = {"delta": delta_at_condition(M1, 2), "mu": 1, "r": Fraction(2, 3)}
    power = invariant_operator(M1, 2, params)
    special = left_action(M1, Gen("C"), params)
    benchmark(compose, power, special)


def _top_case_operands(spec=EX2):
    """S^3, pi_L(C) and its delta-shifted copy, with delta at the level-3
    root and every other parameter symbolic: on (2,2,exotic) the operands of
    ``cgk pde check --d 2 --two-ell 2 --ext exotic --q 3 --delta auto``."""
    params = dict(symbolic_params(spec), delta=delta_at_condition(spec, 3))
    shifted = dict(params, delta=params["delta"] - weight_shift(spec, 3))
    power = invariant_operator(spec, 3, params)
    return power, left_action(spec, Gen("C"), params), left_action(spec, Gen("C"), shifted)


def test_compose_intertwining_operands(benchmark):
    power, special, _ = _top_case_operands()
    benchmark(compose, power, special)


def test_commutator(benchmark):
    power, special, _ = _top_case_operands()
    benchmark(commutator, power, special)


def test_twisted_commutator(benchmark):
    power, special, shifted = _top_case_operands()
    assert benchmark(twisted_commutator, power, special, shifted).is_zero()


def test_twisted_commutator_large(benchmark):
    power, special, shifted = _top_case_operands(M5)
    assert benchmark(twisted_commutator, power, special, shifted).is_zero()


def test_rep_check(benchmark):
    assert benchmark(rep_check, M1) == []


def test_intertwining_check(benchmark):
    params = {"delta": delta_at_condition(M1, 2), "mu": 1, "r": Fraction(2, 3)}
    assert benchmark(intertwining_check, M1, 2, params) == []


# scale rows: families larger than the ones the tests and cgkbench use
INTERTWINING_SCALE_ROWS = pytest.mark.parametrize(
    "spec, q", [(M5, 5), (EX6, 4), (D7, 5)],
    ids=["2-5-mass-q5", "2-6-exotic-q4", "1-7-mass-q5"])


@INTERTWINING_SCALE_ROWS
def test_intertwining_check_scale(benchmark, spec, q):
    """``cgk pde check --delta auto`` on a larger family: delta at the
    level-q root, every other parameter symbolic."""
    params = dict(symbolic_params(spec), delta=delta_at_condition(spec, q))
    assert benchmark(intertwining_check, spec, q, params) == []


def _cold(benchmark, source):
    """Time a fresh interpreter that runs ``source`` once and exits."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cgk.__file__)))
    argv = [sys.executable, "-c", source]
    benchmark.pedantic(subprocess.run, args=(argv,), rounds=3, iterations=1, kwargs={
        "env": env, "check": True, "stdout": subprocess.DEVNULL})


# the three steps of the paper's pipeline as one-shot commands: the
# singular vector, its realization and the invariant equation it yields
CLI_COLD = {
    "singular-search": "singular search --d 2 --two-ell 3 --ext mass --level 3",
    "reps-check": "reps check --d 2 --two-ell 1 --ext mass",
    "pde-check": "pde check --d 2 --two-ell 2 --ext exotic --q 3 --delta auto",
}


@pytest.mark.parametrize("row", sorted(CLI_COLD))
def test_cli_cold(benchmark, row):
    """A ``cgk`` command in a fresh interpreter: start-up, the import of
    the layers it loads, argv parsing and the command itself."""
    _cold(benchmark, "from cgk.cli import main\nmain(%r)" % (CLI_COLD[row].split(),))


@INTERTWINING_SCALE_ROWS
def test_intertwining_check_scale_cold(benchmark, spec, q):
    """The warm row's check as a one-shot command runs it: in a fresh
    interpreter, import and every Leibniz table built included."""
    _cold(benchmark, "\n".join([
        "from cgk.algebra import AlgebraSpec",
        "from cgk.invariants import intertwining_check",
        "from cgk.singular import delta_at_condition",
        "from cgk.verma import symbolic_params",
        "spec = %r" % (spec,),
        "params = dict(symbolic_params(spec), delta=delta_at_condition(spec, %d))" % q,
        "assert intertwining_check(spec, %d, params) == []" % q]))


def test_rep_check_scale(benchmark):
    assert benchmark(rep_check, M5) == []


# module-side scale rows: one statement each over the names _SCALE_SETUP
# defines.  The warm row times the statement in this process after one
# untimed call; the cold row times a fresh interpreter that imports cgk,
# runs the setup and the statement once, and exits.
_SCALE_SETUP = """
from cgk.algebra import AlgebraSpec, Gen, enumerate_generators
from cgk.singular import search_singular
from cgk.verma import ModuleVector, PbwMonomial, act_closed_form, act_generic, level_basis
D1, M1, M3 = AlgebraSpec(1, 1, "mass"), AlgebraSpec(2, 1, "mass"), AlgebraSpec(2, 3, "mass")
LEVEL7 = [(g, ModuleVector.of(m)) for m in level_basis(M3, 7) for g in enumerate_generators(M3)]
C_H300 = ModuleVector.of(PbwMonomial(300, (0,), ()))
"""
MODULE_SCALE = {
    "search-1-1-mass-level10": "search_singular(D1, 10)",
    "search-1-1-mass-level12": "search_singular(D1, 12)",
    "search-2-1-mass-level6": "search_singular(M1, 6)",
    "closed-vs-generic-2-3-mass-level7":
        "[(act_closed_form(M3, g, v), act_generic(M3, g, v)) for g, v in LEVEL7]",
    "C-H300-1-1-mass": "act_generic(D1, Gen('C'), C_H300)",
}
SCALE_ROWS = pytest.mark.parametrize("row", sorted(MODULE_SCALE))


@SCALE_ROWS
def test_module_scale(benchmark, row):
    names = {}
    exec(_SCALE_SETUP, names)
    call = eval("lambda: " + MODULE_SCALE[row], names)
    call()
    benchmark(call)


@SCALE_ROWS
def test_module_scale_cold(benchmark, row):
    _cold(benchmark, _SCALE_SETUP + MODULE_SCALE[row])

