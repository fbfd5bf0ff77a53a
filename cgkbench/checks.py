"""Correctness checks of the workloads' outputs.

Every check compares the program's output with a computation made apart
from it (``sympy`` applying emitted operators to random polynomials,
``sympy``'s own nullspace) or with a property the mathematics forces
(closed form equals normal ordering, the representation property, the
scaling eigenvalue 2q - delta).  None compares with a stored copy of an
earlier output.  ``sympy`` is imported here only, after memory has been
read, so it never shows in the memory or set-up figures.
"""

import json
import random
from fractions import Fraction

import sympy
from sympy.parsing.sympy_parser import parse_expr

from cgk.algebra import Gen, decomposition
from cgk.scalars import SYMBOLS, Scalar, render_scalar
from cgk.singular import singular_closed
from cgk.verma import ModuleVector, act_generic, level_basis, resolve_params
from workloads import family_label

PARAMS = {name: sympy.Symbol(name) for name in SYMBOLS}
DELTA = PARAMS["delta"]
RANDOM_POLYS = 2          # random test polynomials per (family, q)


def _expr(text, names):
    return parse_expr(text.replace("^", "**"), local_dict=names)


def _case_rng(seed, name):
    return random.Random("%d:%s" % (seed, name))


# --- intertwine ------------------------------------------------------------

class _Operator:
    """An emitted operator as sympy data: [(coef Poly, ((var, order), ...))]."""

    def __init__(self, payload, shift=0):
        self.chart = [sympy.Symbol(v) for v in payload["chart"]]
        names = dict(PARAMS, **{str(v): v for v in self.chart})
        self.gens = self.chart + list(PARAMS.values())
        self.terms = []
        for entry in payload["operator"]:
            coef = _expr(entry["coef"], names)
            if shift:
                coef = coef.subs(DELTA, DELTA + shift)
            partials = tuple((names[v], int(k)) for v, k in entry["partials"].items())
            self.terms.append((sympy.Poly(coef, *self.gens, domain="QQ"), partials))

    def apply(self, f):
        out = sympy.Poly(0, *self.gens, domain="QQ")
        for coef, partials in self.terms:
            g = f.diff(*partials) if partials else f
            if not g.is_zero:
                out = out + coef * g
        return out


def _random_poly(rng, chart, gens, degree, count):
    """A seeded polynomial in the chart variables of high enough degree."""
    expr = 0
    for _ in range(count):
        mono = 1
        for v in chart:
            mono *= v ** rng.randint(0, degree)
        expr += rng.choice([-1, 1]) * rng.randint(1, 9) * mono
    top = 1
    for v in chart:
        top *= v ** degree
    expr += top
    return sympy.Poly(expr, *gens, domain="QQ")


def _at_delta(poly, value):
    return poly.eval(DELTA, sympy.Rational(value.numerator, value.denominator))


def _heat_failures(label, q, payload):
    """(1, 1, mass): S^q must be (2 mu d_t + d_x0^2)^q, expanded by sympy."""
    a, b = sympy.symbols("a b")
    want = sympy.Poly((2 * PARAMS["mu"] * a + b ** 2) ** q, a, b).as_dict()
    names = dict(PARAMS)
    got = {}
    for entry in payload["operator"]:
        parts = entry["partials"]
        if set(parts) - {"t", "x0"}:
            return ["%s q=%d: heat operator has partials %s" % (label, q, parts)]
        got[(parts.get("t", 0), parts.get("x0", 0))] = _expr(entry["coef"], names)
    if set(got) != set(want) or any(
            sympy.expand(got[k] - want[k]) != 0 for k in want):
        return ["%s q=%d: operator is not (2*mu*d/dt + (d/dx0)^2)^%d" % (label, q, q)]
    return []


def _intertwine_family(label, spec, group, outputs, seed):
    failures = []
    lefts = {}
    emits = {}
    checks = {}
    for case in group:
        kind = case.meta["kind"]
        code, text = outputs[case.name]
        if kind == "pde-check-off-root":
            if code != 1 or json.loads(text).get("ok") is not False:
                failures.append("%s: off-root pde check exited %d" % (case.name, code))
            continue
        if code != 0:
            failures.append("%s: exit code %d" % (case.name, code))
            continue
        payload = json.loads(text)
        if kind == "reps-check" and payload.get("ok") is not True:
            failures.append("%s: realization audit failed" % case.name)
        elif kind == "reps-left":
            lefts[case.meta["gen"]] = payload
        elif kind == "pde-emit":
            emits[case.meta["q"]] = payload
        elif kind == "pde-check":
            checks[case.meta["q"]] = payload
    for q, payload in sorted(checks.items()):
        audited = {g["gen"] for g in payload["generators"] if g["ok"]}
        if payload.get("ok") is not True or audited != set(lefts):
            failures.append("%s q=%d: pde check did not pass every generator"
                            % (label, q))
    for q, emitted in sorted(emits.items()):
        if (spec.d, spec.twoEll, spec.ext) == (1, 1, "mass"):
            failures += _heat_failures(label, q, emitted)
        if q not in checks:
            continue
        root = Fraction(checks[q]["delta"])
        power = _Operator(emitted)
        rng = _case_rng(seed, "%s q=%d" % (label, q))
        for _ in range(RANDOM_POLYS):
            f = _random_poly(rng, power.chart, power.gens, 2 * q + 1, 4)
            sf = power.apply(f)
            if sf.is_zero:
                failures.append("%s q=%d: S^q kills the test polynomial" % (label, q))
                continue
            for gen, payload in sorted(lefts.items()):
                before = _Operator(payload)
                after = _Operator(payload, shift=-2 * q)
                residual = power.apply(before.apply(f)) - after.apply(sf)
                if gen == "C" and residual.is_zero:
                    failures.append("%s q=%d: symbolic-delta residual on C vanishes"
                                    % (label, q))
                if not _at_delta(residual, root).is_zero:
                    failures.append("%s q=%d: S^q does not intertwine %s at delta=%s"
                                    % (label, q, gen, root))
    return failures


def check_intertwine(cases, outputs, seed):
    groups = {}
    for case in cases:
        groups.setdefault(case.meta["spec"], []).append(case)
    failures = []
    for spec, group in groups.items():
        failures += _intertwine_family(family_label(spec), spec, group, outputs, seed)
    return failures


# --- module ----------------------------------------------------------------

def check_module(cases, outputs, seed):
    failures = []
    for case in cases:
        kind = case.meta["kind"]
        out = outputs[case.name]
        if kind == "closed-vs-generic":
            for (gen, v), (closed, generic) in zip(case.meta["pairs"], out):
                if closed != generic:
                    failures.append("%s: closed form differs from normal ordering "
                                    "for %s on %r" % (case.name, gen, v))
        elif kind == "rep-property":
            for (x, y, v), (lhs, rhs) in zip(case.meta["triples"], out):
                if lhs != rhs:
                    failures.append("%s: [%s,%s]v != %s(%sv) - %s(%sv) on %r"
                                    % (case.name, x, y, x, y, y, x, v))
        elif kind == "singular-verify":
            want = Scalar.const(2 * case.meta["q"] - case.meta["root"])
            if not out.ok or out.vector.is_zero():
                failures.append("%s: vector is not singular" % case.name)
            elif out.weight[Gen("D")] != want:
                failures.append("%s: D eigenvalue %s, want 2q - delta = %s"
                                % (case.name, out.weight[Gen("D")], want))
    return failures


# --- search ----------------------------------------------------------------

def _sym(scalar):
    return _expr(render_scalar(scalar), PARAMS)


def _system(spec, constraint, params):
    """The search's linear system, rebuilt from the module action alone."""
    pvals = resolve_params(spec, params)
    basis = level_basis(spec, constraint, params=params)
    operators = [(x, None) for x in decomposition(spec)[2]]
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
        rows += [[_sym(img.coefficient(t)) for img in images] for t in targets]
    return basis, sympy.Matrix(rows)


def _proportional(u, w):
    return sympy.Matrix.hstack(u, w).rank(simplify=True) == 1


def _search_root(case, found):
    spec, q = case.meta["spec"], case.meta["q"]
    params = case.meta["params"]
    basis, matrix = _system(spec, case.meta["constraint"], params)
    kernel = matrix.nullspace(simplify=True)
    if len(kernel) != 1:
        return ["%s: sympy nullspace has dimension %d" % (case.name, len(kernel))]
    if len(found) != 1:
        return ["%s: search found dimension %d" % (case.name, len(found))]
    vec = sympy.Matrix([_sym(found.vectors[0].coefficient(m)) for m in basis])
    closed = singular_closed(spec, q, params=params)
    ray = sympy.Matrix([_sym(closed.coefficient(m)) for m in basis])
    failures = []
    if any(sympy.simplify(e) != 0 for e in matrix * vec):
        failures.append("%s: found vector is not in the kernel" % case.name)
    if not _proportional(kernel[0], vec) or not _proportional(ray, vec):
        failures.append("%s: found vector is not the closed-form ray" % case.name)
    return failures


def _search_symbolic(case, found):
    root = {PARAMS[k]: v for k, v in case.meta["root"].items()}
    if len(found) != 0:
        return ["%s: generic weight has a %d-dimensional kernel"
                % (case.name, len(found))]
    if not any(sympy.simplify(_sym(c).subs(root)) == 0 for c in found.caveats):
        return ["%s: no caveat vanishes at %s" % (case.name, case.meta["root"])]
    return []


def check_search(cases, outputs, seed):
    failures = []
    for case in cases:
        if case.meta["kind"] == "search-root":
            failures += _search_root(case, outputs[case.name])
        else:
            failures += _search_symbolic(case, outputs[case.name])
    return failures


CHECKS = {
    "intertwine": check_intertwine,
    "module": check_module,
    "search": check_search,
}


def check(workload, cases, outputs, seed):
    """Failure messages for one pass's outputs (empty when all hold)."""
    return CHECKS[workload](cases, outputs, seed)
