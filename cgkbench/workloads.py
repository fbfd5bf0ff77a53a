"""Case grids of the three workloads.

A case is one fixed unit of work with a stable name.  ``build_cases``
does everything that happens before timing starts (importing ``cgk``,
drawing the seeded inputs, enumerating bases and weights), so the set-up
probe and the timed run build exactly the same cases.  Each case's
``run`` returns its output; ``checks.py`` verifies those outputs.

This module imports nothing beyond ``cgk`` and the standard library, so
the figures for set-up time and peak memory see no oracle library.
"""

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction

from cgk import cli
from cgk.algebra import AlgebraSpec, bracket, enumerate_generators
from cgk.scalars import Scalar
from cgk.singular import (
    delta_at_condition,
    predicted_weight,
    search_singular,
    singular_closed,
    verify_singular,
)
from cgk.verma import (
    ModuleVector,
    act_closed_form,
    act_generic,
    level_basis,
    symbolic_params,
)

WORKLOADS = ("intertwine", "module", "search")

# The single heaviest case of each workload: the query a user waits for
# longest.  Its median time is reported as ``top_case_s``.
TOP_CASE = {
    "intertwine": "pde-check d=2 twoEll=2 exotic q=3",
    "module": "closed-vs-generic d=2 twoEll=3 mass level=5",
    "search": "search-symbolic d=2 twoEll=3 mass q=3",
}

# (d, twoEll, ext, highest q) per grid; the smoke grids are small enough
# for a quick self-check and keep every kind of case.
INTERTWINE_GRID = ((1, 1, "mass", 3), (1, 3, "mass", 2), (2, 1, "mass", 3),
                   (2, 2, "exotic", 3))
INTERTWINE_SMOKE = ((1, 1, "mass", 2), (2, 1, "mass", 1))
# A weight that is the condition root of no family at q = 1.
OFF_ROOT_DELTA = "1/7"

CLOSED_FORM_GRID = ((2, 1, "mass"), (2, 2, "exotic"), (2, 3, "mass"))
CLOSED_FORM_SMOKE = ((2, 1, "mass"),)
CLOSED_FORM_LEVEL = 5
CLOSED_FORM_SMOKE_LEVEL = 2
REP_GRID = ((1, 1, "mass"), (1, 3, "mass"), (2, 1, "mass"), (2, 2, "exotic"),
            (2, 3, "mass"))
REP_SMOKE = ((1, 1, "mass"), (2, 1, "mass"))
REP_TRIPLES = 12            # per family; levels cycle through 1..REP_LEVEL
REP_SMOKE_TRIPLES = 3
REP_LEVEL = 3
# (d, twoEll, ext, highest q): the acceptance suite's singular cases plus q = 3
# on the three smallest planar families.
SINGULAR_GRID = ((1, 1, "mass", 3), (1, 3, "mass", 3), (1, 5, "mass", 3),
                 (2, 1, "mass", 3), (2, 3, "mass", 3), (2, 2, "exotic", 3),
                 (2, 4, "exotic", 2))
SINGULAR_SMOKE = ((1, 1, "mass", 2), (2, 2, "exotic", 1))
CENTERLESS_LEVEL = 5
CENTERLESS_SMOKE_LEVEL = 2


@dataclass
class Case:
    """One timed unit of work.

    ``ops`` is how many program operations one call attempts; ``meta``
    holds what the checks need to know about the inputs.
    """

    name: str
    run: object
    ops: int = 1
    meta: dict = field(default_factory=dict)


def family_label(spec):
    return "d=%d twoEll=%d %s" % (spec.d, spec.twoEll, spec.ext)


def spec_args(spec):
    return ["--d", str(spec.d), "--two-ell", str(spec.twoEll), "--ext", spec.ext]


def _cli_call(argv):
    """A case that runs ``cgk`` in-process; returns (exit code, stdout)."""
    argv = list(argv)

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()

    return call


def _intertwine_cases(grid):
    cases = []
    for d, two_ell, ext, q_max in grid:
        spec = AlgebraSpec(d, two_ell, ext)
        fam = family_label(spec)
        base = spec_args(spec)
        meta = {"spec": spec}
        cases.append(Case("reps-check %s" % fam, _cli_call(
            ["reps", "check"] + base + ["--render", "json"]),
            meta=dict(meta, kind="reps-check")))
        for gen in enumerate_generators(spec):
            cases.append(Case("reps-left %s %s" % (fam, gen), _cli_call(
                ["reps", "left"] + base + ["--gen", str(gen), "--render", "json"]),
                meta=dict(meta, kind="reps-left", gen=str(gen))))
        for q in range(1, q_max + 1):
            cases.append(Case("pde-emit %s q=%d" % (fam, q), _cli_call(
                ["pde", "emit"] + base + ["--q", str(q), "--render", "json"]),
                meta=dict(meta, kind="pde-emit", q=q)))
            cases.append(Case("pde-check %s q=%d" % (fam, q), _cli_call(
                ["pde", "check"] + base + ["--q", str(q), "--delta", "auto"]),
                meta=dict(meta, kind="pde-check", q=q)))
        cases.append(Case("pde-check-off-root %s" % fam, _cli_call(
            ["pde", "check"] + base + ["--q", "1", "--delta", OFF_ROOT_DELTA]),
            meta=dict(meta, kind="pde-check-off-root", q=1,
                      delta=Fraction(OFF_ROOT_DELTA))))
    return cases


def _closed_form_case(spec, level):
    gens = enumerate_generators(spec)
    pairs = [(g, ModuleVector.of(m)) for m in level_basis(spec, level) for g in gens]

    def call():
        return [(act_closed_form(spec, g, v), act_generic(spec, g, v))
                for g, v in pairs]

    return Case("closed-vs-generic %s level=%d" % (family_label(spec), level), call,
                ops=2 * len(pairs),
                meta={"kind": "closed-vs-generic", "spec": spec, "pairs": pairs})


def _rep_case(spec, rng, count):
    """Seeded (X, Y, monomial) triples; monomial levels cycle 1..REP_LEVEL."""
    gens = enumerate_generators(spec)
    triples = []
    for i in range(count):
        x, y = rng.sample(gens, 2)
        monos = level_basis(spec, 1 + i % REP_LEVEL)
        triples.append((x, y, ModuleVector.of(rng.choice(monos))))

    def call():
        out = []
        for x, y, v in triples:
            lhs = ModuleVector.zero()
            for z, c in bracket(spec, x, y).items():
                lhs = lhs + act_generic(spec, z, v).scaled(c)
            rhs = (act_generic(spec, x, act_generic(spec, y, v))
                   - act_generic(spec, y, act_generic(spec, x, v)))
            out.append((lhs, rhs))
        return out

    return Case("rep-property %s" % family_label(spec), call, ops=len(triples),
                meta={"kind": "rep-property", "spec": spec, "triples": triples})


def _root_params(spec, q):
    """delta at the condition root, every other parameter symbolic."""
    params = symbolic_params(spec)
    params["delta"] = delta_at_condition(spec, q)
    return params


def _singular_case(spec, q):
    params = _root_params(spec, q)
    expected = predicted_weight(spec, q, params=params)

    def call():
        v = singular_closed(spec, q, params=params)
        return verify_singular(spec, v, params=params, expect_weight=expected)

    return Case("singular-verify %s q=%d" % (family_label(spec), q), call, ops=2,
                meta={"kind": "singular-verify", "spec": spec, "q": q,
                      "root": params["delta"]})


def _module_cases(smoke, rng):
    cases = []
    top = CLOSED_FORM_SMOKE_LEVEL if smoke else CLOSED_FORM_LEVEL
    for d, two_ell, ext in (CLOSED_FORM_SMOKE if smoke else CLOSED_FORM_GRID):
        for level in range(top + 1):
            cases.append(_closed_form_case(AlgebraSpec(d, two_ell, ext), level))
    count = REP_SMOKE_TRIPLES if smoke else REP_TRIPLES
    for d, two_ell, ext in (REP_SMOKE if smoke else REP_GRID):
        cases.append(_rep_case(AlgebraSpec(d, two_ell, ext), rng, count))
    for d, two_ell, ext, q_max in (SINGULAR_SMOKE if smoke else SINGULAR_GRID):
        for q in range(1, q_max + 1):
            cases.append(_singular_case(AlgebraSpec(d, two_ell, ext), q))
    return cases


def _search_case(name, spec, constraint, params, meta):
    def call():
        return search_singular(spec, constraint, params=params)

    return Case(name, call, meta=dict(meta, spec=spec, constraint=constraint,
                                      params=params))


def _search_cases(smoke):
    cases = []
    for d, two_ell, ext, q_max in (SINGULAR_SMOKE if smoke else SINGULAR_GRID):
        spec = AlgebraSpec(d, two_ell, ext)
        for q in range(1, q_max + 1):
            label = "%s q=%d" % (family_label(spec), q)
            root = delta_at_condition(spec, q)
            free = symbolic_params(spec)
            cases.append(_search_case(
                "search-symbolic %s" % label, spec,
                predicted_weight(spec, q, params=free).eigen, free,
                {"kind": "search-symbolic", "q": q, "root": {"delta": root}}))
            numeric = {"delta": root, "mu": 1, "theta": 1, "r": Fraction(2, 3)}
            cases.append(_search_case(
                "search-root %s" % label, spec,
                predicted_weight(spec, q, params=numeric).eigen, numeric,
                {"kind": "search-root", "q": q}))
    spec = AlgebraSpec(1, 2, "none")
    top = CENTERLESS_SMOKE_LEVEL if smoke else CENTERLESS_LEVEL
    for level in range(1, top + 1):
        label = "%s level=%d" % (family_label(spec), level)
        free = {"delta": Scalar.symbol("delta"), "kappa": Scalar.symbol("kappa")}
        cases.append(_search_case(
            "search-symbolic %s" % label, spec, level, free,
            {"kind": "search-symbolic", "q": level, "root": {"kappa": 0}}))
        root = {"delta": Scalar.symbol("delta"), "kappa": 0}
        cases.append(_search_case(
            "search-root %s" % label, spec, level, root,
            {"kind": "search-root", "q": level}))
    return cases


def build_cases(workload, seed, smoke=False):
    """The workload's cases, in the order every pass runs them."""
    if workload == "intertwine":
        cases = _intertwine_cases(INTERTWINE_SMOKE if smoke else INTERTWINE_GRID)
    elif workload == "module":
        cases = _module_cases(smoke, random.Random(seed))
    elif workload == "search":
        cases = _search_cases(smoke)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    names = [c.name for c in cases]
    assert len(set(names)) == len(names), "case names must be unique"
    return cases
