"""Command-line front end with exact JSON and LaTeX serialization.

Every subcommand drives one of the library modules; all numbers cross the
boundary as exact rationals or canonical scalar strings, so emitted JSON
re-parses to equal values.  ``cgk selftest`` runs the package's full
acceptance suite (the same runners the test suite uses).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    Gen,
    bracket,
    central_element,
    decomposition,
    enumerate_generators,
    jacobi_check,
    parse_gen,
    supported_specs,
)
from .diffop import (
    CoefPoly,
    DiffOp,
    Var,
    latex_diffop,
    op_power,
    parse_diffop,
    render_diffop,
    render_poly_in_vars,
)
from .invariants import (
    ConditionNotSatisfied,
    divisible_by_condition,
    intertwining_check,
    intertwining_residual,
    invariant_operator,
)
from .reps import chart, left_action, rep_check, right_action
from .scalars import DivisionByZero, Scalar, parse_scalar, render_scalar
from .singular import (
    delta_at_condition,
    predicted_weight,
    search_singular,
    singular_closed,
    singular_condition,
    verify_singular,
)
from .verma import (
    ModuleVector,
    PbwMonomial,
    act_closed_form,
    act_generic,
    check_monomial,
    level_basis,
    symbolic_params,
    weight_of,
)

DEFAULT_LEVEL_CAP = 4
PARAM_NAMES = ("delta", "mu", "theta", "r", "kappa")


class UsageError(ValueError):
    """Bad command-line input (reported on stderr with exit code 2)."""


# --- exact serialization ---------------------------------------------------

def monomial_to_json(m):
    return {"h": m.h, "a": list(m.a), "b": list(m.b)}


def _json_int(value):
    # int() would truncate 1.5 and read true or "1"; bool is an int subclass
    if type(value) is not int:
        raise TypeError("%s is not an integer" % (json.dumps(value),))
    return value


def monomial_from_json(data, spec=None):
    if not isinstance(data, dict):
        raise UsageError("monomial JSON must be an object with integer fields "
                         "h, a, b, got %s" % (json.dumps(data),))
    try:
        m = PbwMonomial(
            _json_int(data["h"]),
            tuple(_json_int(v) for v in data.get("a", ())),
            tuple(_json_int(v) for v in data.get("b", ())),
        )
    except (KeyError, TypeError) as exc:
        raise UsageError("monomial JSON needs integer fields h, a, b: %s" % exc)
    if spec is not None:
        check_monomial(spec, m)
    return m


def vector_to_json(v):
    return [
        {"monomial": monomial_to_json(m), "coef": render_scalar(c)}
        for m, c in v.items()
    ]


def vector_from_json(entries, spec=None):
    out = ModuleVector.zero()
    for entry in entries:
        out = out + ModuleVector.of(
            monomial_from_json(entry["monomial"], spec),
            parse_scalar(entry["coef"]),
        )
    return out


def diffop_to_json(op):
    entries = []
    for dexpo, poly in op.items():
        partials = {str(v): e for v, e in zip(op.chart, dexpo) if e}
        entries.append({"coef": render_poly_in_vars(poly), "partials": partials})
    return entries


def diffop_from_json(entries, ch):
    zero_expo = (0,) * len(ch)
    out = DiffOp.zero(ch)
    for entry in entries:
        lifted = parse_diffop(entry["coef"], ch)
        if any(d != zero_expo for d in lifted.terms):
            raise UsageError("coef %r is not order-zero" % (entry["coef"],))
        poly = lifted.terms.get(zero_expo, CoefPoly.zero(ch))
        dexpo = [0] * len(ch)
        for name, order in entry["partials"].items():
            try:
                slot = ch.index(Var.parse(name))
            except ValueError:
                raise UsageError("partial %r is not a variable of the chart (%s)"
                                 % (name, ", ".join(map(str, ch)))) from None
            try:
                order = _json_int(order)
            except TypeError as exc:
                raise UsageError("order of partial %r: %s" % (name, exc)) from None
            if order < 0:
                raise UsageError("order of partial %r is negative: %d" % (name, order))
            dexpo[slot] += order
        out = out + DiffOp(ch, {tuple(dexpo): poly})
    return out


def _weight_items(w):
    """(generator name, eigenvalue text) of a weight, sorted by name."""
    return sorted((str(g), render_scalar(sc)) for g, sc in w.eigen.items())


def weight_to_json(w):
    return dict(_weight_items(w))


def combo_to_json(combo):
    return [{"gen": str(g), "coef": render_scalar(c)} for g, c in combo.items()]


# --- argument plumbing -----------------------------------------------------

def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % (text,))


def _add_spec_args(sub):
    sub.add_argument("--d", type=int, required=True, help="spatial dimension (1 or 2)")
    sub.add_argument(
        "--two-ell", dest="two_ell", type=int, required=True,
        help="twice the rational label (integers only)",
    )
    sub.add_argument(
        "--ext", required=True, choices=("mass", "exotic", "none"),
        help="central extension",
    )


def _add_param_args(sub, require_delta=False):
    sub.add_argument(
        "--delta", required=require_delta,
        help="scaling weight (rational, or 'auto' with --q)",
    )
    for name in ("mu", "theta", "r", "kappa"):
        sub.add_argument("--%s" % name, type=_fraction, help="family parameter")


def _add_output_args(sub, renders=("text", "json")):
    sub.add_argument("--render", choices=renders, default=renders[0])
    sub.add_argument("--out", help="write the result to FILE instead of stdout")


def _spec_of(args):
    return AlgebraSpec(args.d, args.two_ell, args.ext)


def _params_of(spec, args, q=None):
    provided = {}
    for name in PARAM_NAMES:
        val = getattr(args, name, None)
        if val is None:
            continue
        if name == "delta":
            text = str(val).strip()
            if text == "auto":
                if q is None:
                    raise UsageError("--delta auto needs --q")
                val = delta_at_condition(spec, q)
                if val is None:
                    raise UsageError(
                        "the centerless family has no delta condition root"
                    )
            else:
                try:
                    val = Fraction(text)
                except (ValueError, ZeroDivisionError):
                    raise UsageError("--delta expects a rational or 'auto'")
        provided[name] = val
    if not provided:
        return None
    params = symbolic_params(spec)
    params.update({k: v for k, v in provided.items() if k in params})
    return params


def _config(args, q=None):
    """The family and the parameters of an invocation."""
    spec = _spec_of(args)
    return spec, _params_of(spec, args, q=q)


def _level_cap():
    raw = os.environ.get("CGK_CAPS_LEVEL")
    if raw is None:
        return DEFAULT_LEVEL_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("CGK_CAPS_LEVEL must be an integer, got %r" % (raw,))
    if cap < 0:
        raise UsageError("CGK_CAPS_LEVEL must be non-negative")
    return cap


def _level(level):
    """A --level value; a negative grading level is outside the module."""
    if level < 0:
        raise UsageError("level must be a non-negative integer")
    return level


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out, exc.strerror or exc)) from None
    else:
        try:
            print(text)
        except BrokenPipeError:
            _drop_stdout()


def _drop_stdout():
    """The reader of stdout has gone: send later output, and the flush at
    interpreter exit, to the null device, so the command still ends with
    its own exit code and prints nothing more."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


# --- subcommand handlers ---------------------------------------------------

def cmd_algebra_show(args):
    spec = _spec_of(args)
    plus, zero, minus = decomposition(spec)
    gens = enumerate_generators(spec)
    brackets = []
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            combo = bracket(spec, x, y)
            if not combo.is_zero():
                brackets.append((x, y, combo))
    if args.render == "json":
        central = central_element(spec)
        _emit_json(args, {
            "spec": {"d": spec.d, "twoEll": spec.twoEll, "ext": spec.ext},
            "blocks": {
                "plus": [str(g) for g in plus],
                "zero": [str(g) for g in zero],
                "minus": [str(g) for g in minus],
            },
            "central": str(central) if central else None,
            "brackets": [
                {"x": str(x), "y": str(y), "value": combo_to_json(c)}
                for x, y, c in brackets
            ],
        })
        return 0
    lines = [
        "g+ : %s" % ", ".join(map(str, plus)),
        "g0 : %s" % ", ".join(map(str, zero)),
        "g- : %s" % ", ".join(map(str, minus)),
    ]
    for x, y, combo in brackets:
        lines.append("[%s, %s] = %s" % (x, y, combo))
    _emit(args, "\n".join(lines))
    return 0


def cmd_algebra_jacobi(args):
    spec = _spec_of(args)
    failures = jacobi_check(spec)
    if args.render == "json":
        _emit_json(args, {
            "ok": not failures,
            "failures": [
                {"x": str(x), "y": str(y), "z": str(z),
                 "residual": combo_to_json(r)}
                for x, y, z, r in failures
            ],
        })
    else:
        gens = enumerate_generators(spec)
        if failures:
            lines = ["jacobi: FAIL (%d triples)" % len(failures)]
            lines += [
                "  [[%s,%s],%s]-cycle residue: %s" % (x, y, z, r)
                for x, y, z, r in failures
            ]
            _emit(args, "\n".join(lines))
        else:
            _emit(args, "jacobi: ok (%d generators, all triples close)" % len(gens))
    return 1 if failures else 0


def cmd_verma_act(args):
    spec, params = _config(args)
    gen = parse_gen(args.gen)
    mono = monomial_from_json(json.loads(args.monomial), spec)
    action = act_closed_form if args.action == "closed" else act_generic
    result = action(spec, gen, ModuleVector.of(mono), params=params)
    if args.render == "json":
        _emit_json(args, {"vector": vector_to_json(result)})
    else:
        _emit(args, str(result))
    return 0


def cmd_verma_basis(args):
    spec, params = _config(args)
    if (args.level is None) == (args.weight is None):
        raise UsageError("give exactly one of --level or --weight")
    if args.level is not None:
        constraint = _level(args.level)
    else:
        raw = json.loads(args.weight)
        if not isinstance(raw, dict) or not all(
                isinstance(val, str) for val in raw.values()):
            raise UsageError('--weight must be a JSON object of scalar strings, '
                             'e.g. {"D": "-delta+2"}, got %s' % (args.weight,))
        constraint = {key: parse_scalar(val) for key, val in raw.items()}
    monos = level_basis(spec, constraint, params=params)
    if args.render == "json":
        _emit_json(args, {"basis": [monomial_to_json(m) for m in monos]})
    else:
        _emit(args, "\n".join(str(m) for m in monos) if monos else "(empty)")
    return 0


def cmd_verma_weight(args):
    spec, params = _config(args)
    mono = monomial_from_json(json.loads(args.monomial), spec)
    w = weight_of(spec, mono, params=params)
    if args.render == "json":
        _emit_json(args, {"weight": weight_to_json(w)})
    else:
        _emit(args, "\n".join("%s -> %s" % item for item in _weight_items(w)))
    return 0


def cmd_singular_condition(args):
    spec = _spec_of(args)
    cond = singular_condition(spec, args.q)
    root = delta_at_condition(spec, args.q)
    if args.render == "json":
        _emit_json(args, {
            "q": args.q,
            "condition": render_scalar(cond),
            "delta": None if root is None else str(root),
        })
    elif root is None:
        _emit(args, "condition: %s = 0 (every level)" % render_scalar(cond))
    else:
        _emit(args, "condition: %s = 0  (delta = %s)" % (render_scalar(cond), root))
    return 0


def cmd_singular_closed(args):
    spec, params = _config(args, q=args.q)
    v = singular_closed(spec, args.q, params=params)
    if args.render == "json":
        _emit_json(args, {"q": args.q, "vector": vector_to_json(v)})
    else:
        _emit(args, str(v))
    return 0


def cmd_singular_verify(args):
    spec, params = _config(args, q=args.q)
    v = singular_closed(spec, args.q, params=params)
    expected = predicted_weight(spec, args.q, params=params)
    report = verify_singular(spec, v, params=params, expect_weight=expected)
    if args.render == "json":
        _emit_json(args, {
            "q": args.q,
            "ok": report.ok,
            "weight": weight_to_json(report.weight) if report.weight else None,
            "failures": [_failure_json(f) for f in report.failures],
        })
    elif report.ok:
        _emit(args, "verify: PASS (level-%d vector is singular)" % args.q)
    else:
        lines = ["verify: FAIL"]
        lines += ["  %s" % _failure_text(f) for f in report.failures]
        _emit(args, "\n".join(lines))
    return 0 if report.ok else 1


def _failure_detail(payload, vector):
    """A verification failure's payload; ``vector`` writes a ModuleVector."""
    if isinstance(payload, ModuleVector):
        return vector(payload)
    if isinstance(payload, Scalar):
        return render_scalar(payload)
    return str(payload)


def _failure_json(failure):
    if isinstance(failure, str):
        return {"kind": "degenerate", "detail": failure}
    kind, gen, payload = failure
    return {"kind": kind, "generator": str(gen),
            "detail": _failure_detail(payload, vector_to_json)}


def _failure_text(failure):
    if isinstance(failure, str):
        return failure
    kind, gen, payload = failure
    detail = _failure_detail(payload, str)
    return "%s %s: %s" % (kind, gen, detail)


def cmd_singular_search(args):
    spec, params = _config(args, q=args.q)
    if args.level is not None:
        constraint = _level(args.level)
    elif args.q is not None:
        constraint = predicted_weight(spec, args.q, params=params).eigen
    else:
        raise UsageError("give --level, or --q for the predicted weight space")
    found = search_singular(spec, constraint, params=params)
    if args.render == "json":
        _emit_json(args, {
            "dimension": len(found),
            "vectors": [vector_to_json(v) for v in found.vectors],
            "caveats": [render_scalar(c) for c in found.caveats],
        })
    else:
        lines = ["kernel dimension: %d" % len(found)]
        lines += ["  %s" % v for v in found.vectors]
        if found.caveats:
            lines.append("valid where none of these vanish: %s"
                         % ", ".join(render_scalar(c) for c in found.caveats))
        _emit(args, "\n".join(lines))
    return 0


def _emit_operator(args, op, fields=None, text="%s", latex="%s"):
    """An operator as JSON (its chart and terms, plus ``fields``), or in
    the ``latex`` or ``text`` form."""
    if args.render == "json":
        _emit_json(args, {**(fields or {}), "chart": [str(v) for v in op.chart],
                          "operator": diffop_to_json(op)})
    elif args.render == "latex":
        _emit(args, latex % latex_diffop(op))
    else:
        _emit(args, text % render_diffop(op))
    return 0


def cmd_reps(args):
    spec, params = _config(args)
    gen = parse_gen(args.gen)
    if args.action == "left":
        op = left_action(spec, gen, params=params)
    else:
        op = right_action(spec, gen)
    return _emit_operator(args, op)


def cmd_reps_check(args):
    spec, params = _config(args)
    failures = rep_check(spec, side=args.side, params=params)
    if args.render == "json":
        _emit_json(args, {
            "side": args.side,
            "ok": not failures,
            "failures": [
                {"x": str(x), "y": str(y), "residual": diffop_to_json(r)}
                for x, y, r in failures
            ],
        })
    elif failures:
        lines = ["rep check (%s): FAIL" % args.side]
        lines += [
            "  [%s, %s] residual: %s" % (x, y, render_diffop(r))
            for x, y, r in failures
        ]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "rep check (%s): ok" % args.side)
    return 1 if failures else 0


def cmd_pde_emit(args):
    spec, params = _config(args, q=args.q)
    op = invariant_operator(spec, args.q, params=params)
    return _emit_operator(args, op, {"q": args.q}, text="(%s) psi = 0",
                          latex=r"\left(%s\right)\psi = 0")


def cmd_pde_check(args):
    spec, params = _config(args, q=args.q)
    try:
        failures = intertwining_check(spec, args.q, params)
    except ConditionNotSatisfied as exc:
        _emit_json(args, {"q": args.q, "ok": False, "error": str(exc)})
        return 1
    failed = {g: r for g, r in failures}
    report = []
    for gen in enumerate_generators(spec):
        entry = {"gen": str(gen), "ok": gen not in failed}
        if gen in failed:
            entry["residual"] = diffop_to_json(failed[gen])
        report.append(entry)
    _emit_json(args, {
        "q": args.q,
        "delta": str(params["delta"]),
        "ok": not failures,
        "generators": report,
    })
    return 1 if failures else 0


def cmd_selftest(args):
    _level_cap()  # a bad CGK_CAPS_LEVEL fails before any criterion runs
    results = []
    for name, runner in acceptance_criteria():
        start = time.perf_counter()
        ok, detail = runner()
        results.append({"name": name, "ok": ok, "detail": detail,
                        "seconds": round(time.perf_counter() - start, 6)})
    all_ok = all(r["ok"] for r in results)
    if args.render == "json":
        _emit_json(args, {"criteria": results, "ok": all_ok})
    else:
        lines = ["[%s] %s: %s" % ("PASS" if r["ok"] else "FAIL", r["name"], r["detail"])
                 for r in results]
        lines.append("selftest: %s" % ("PASS" if all_ok else "FAIL"))
        _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


# --- acceptance criteria (shared by selftest and the test suite) -----------

def _extended_specs(two_ell_max):
    return [s for s in supported_specs(two_ell_max) if s.ext != "none"]


def _root_params_symbolic(spec, q):
    return {
        "delta": delta_at_condition(spec, q),
        "mu": Scalar.symbol("mu"),
        "theta": Scalar.symbol("theta"),
        "r": Scalar.symbol("r"),
    }


def _root_params_numeric(spec, q):
    return {
        "delta": delta_at_condition(spec, q),
        "mu": 1,
        "theta": 1,
        "r": Fraction(2, 3),
    }


def _singular_cases():
    cases = []
    for two_ell in (1, 3, 5):
        cases += [(AlgebraSpec(1, two_ell, "mass"), q) for q in (1, 2, 3)]
    for two_ell in (1, 3):
        cases += [(AlgebraSpec(2, two_ell, "mass"), q) for q in (1, 2)]
    for two_ell in (2, 4):
        cases += [(AlgebraSpec(2, two_ell, "exotic"), q) for q in (1, 2)]
    return cases


def criterion_jacobi():
    """Structure constants close for every supported family."""
    specs = supported_specs(6)
    for spec in specs:
        failures = jacobi_check(spec)
        if failures:
            x, y, z, residual = failures[0]
            return False, "%r: %d failing triples; first (%s, %s, %s) residual: %s" % (
                spec, len(failures), x, y, z, residual)
    return True, "all triples close for %d specs (twoEll <= 6)" % len(specs)


def criterion_closed_form():
    """Closed-form actions equal the normal-ordering oracle."""
    cap = _level_cap()
    checked = 0
    for spec in _extended_specs(5):
        gens = enumerate_generators(spec)
        for level in range(cap + 1):
            for mono in level_basis(spec, level):
                v = ModuleVector.of(mono)
                for gen in gens:
                    closed = act_closed_form(spec, gen, v)
                    generic = act_generic(spec, gen, v)
                    if closed != generic:
                        return False, "mismatch: %r, %s on %s; closed - generic: %s" % (
                            spec, gen, mono, closed - generic)
                    checked += 1
    return True, "%d actions agree (levels <= %d, twoEll <= 5)" % (checked, cap)


def criterion_singular_verify():
    """Closed-form vectors are singular at the condition root."""
    for spec, q in _singular_cases():
        params = _root_params_symbolic(spec, q)
        v = singular_closed(spec, q, params=params)
        expected = predicted_weight(spec, q, params=params)
        report = verify_singular(spec, v, params=params, expect_weight=expected)
        if not report.ok:
            return False, "%r q=%d: %d failures; first %s" % (
                spec, q, len(report.failures), _failure_text(report.failures[0]))
        root = delta_at_condition(spec, q)
        if report.weight[Gen("D")] != Scalar.const(Fraction(2 * q) - root):
            return False, "%r q=%d: scaling eigenvalue is not 2q - delta" % (spec, q)
    return True, "%d (family, level) cases verified" % len(_singular_cases())


def criterion_search_matches():
    """Nullspace search finds exactly the closed-form ray."""
    for spec, q in _singular_cases():
        params = _root_params_numeric(spec, q)
        closed = singular_closed(spec, q, params=params)
        weight = predicted_weight(spec, q, params=params)
        found = search_singular(spec, weight.eigen, params=params)
        normalized = closed.scaled(closed.items()[0][1] ** -1)
        if len(found) != 1 or found.caveats or found.vectors[0] != normalized:
            return False, "%r q=%d: found [%s] (caveats: [%s]); closed-form ray %s" % (
                spec, q, "; ".join(str(v) for v in found.vectors),
                ", ".join(render_scalar(c) for c in found.caveats), normalized)
    return True, "one-dimensional kernels match for %d cases" % len(_singular_cases())


def criterion_centerless():
    """Centerless kernels: exactly the creation powers, only at kappa=0."""
    spec = AlgebraSpec(1, 2, "none")
    cap = _level_cap()
    free = {"delta": Scalar.symbol("delta"), "kappa": 0}
    for p in range(1, cap + 1):
        found = search_singular(spec, p, params=free)
        want = ModuleVector.of(PbwMonomial(0, (p,), ()))
        if len(found) != 1 or found.vectors[0] != want:
            return False, "kappa=0, level %d: found [%s]; want %s" % (
                p, "; ".join(str(v) for v in found.vectors), want)
        report = verify_singular(spec, found.vectors[0], params=free)
        if not report.ok:
            return False, "kappa=0, level %d: %d failures; first %s" % (
                p, len(report.failures), _failure_text(report.failures[0]))
        for kappa in (1, Fraction(-2), Fraction(7, 3)):
            params = {"delta": Scalar.symbol("delta"), "kappa": kappa}
            dim = len(search_singular(spec, p, params=params))
            if dim:
                return False, "kappa=%s, level %d: kernel of dimension %d, want 0" % (
                    kappa, p, dim)
    return True, "levels 1..%d: kernels exist exactly at kappa=0" % cap


def criterion_rep_audit():
    """The weighted realization reproduces every bracket."""
    specs = _extended_specs(5)
    for spec in specs:
        failures = rep_check(spec, side="left")
        if failures:
            x, y, residual = failures[0]
            return False, "%r: %d failing pairs; first [%s, %s] residual: %s" % (
                spec, len(failures), x, y, render_diffop(residual))
    return True, "all brackets reproduced for %d extended specs" % len(specs)


def _heat_cases():
    """(label, computed operator, expected operator), one case at a time."""
    d1 = AlgebraSpec(1, 1, "mass")
    heat = parse_diffop("2*mu*d/dt + (d/dx0)^2", chart(d1))
    for q in (1, 2, 3):
        yield "twoEll=1, q=%d" % q, invariant_operator(d1, q), op_power(heat, q)
    d3 = AlgebraSpec(1, 3, "mass")
    yield "twoEll=3, q=1", invariant_operator(d3, 1), parse_diffop(
        "2*mu*d/dt + 2*mu*x1*d/dx0 + (d/dx1)^2", chart(d3))
    d5 = AlgebraSpec(1, 5, "mass")
    yield "twoEll=5, q=1", invariant_operator(d5, 1), parse_diffop(
        "8*mu*d/dt + 8*mu*x1*d/dx0 + 16*mu*x2*d/dx1 + (d/dx2)^2", chart(d5))


def criterion_heat():
    """The lowest line-family hierarchy is the heat hierarchy, verbatim."""
    for label, got, want in _heat_cases():
        if got != want:
            return False, "%s: operator differs; computed - expected: %s" % (
                label, render_diffop(got - want))
    return True, "heat powers q <= 3 and twoEll in {3, 5} operators verbatim"


def criterion_intertwining():
    """The invariant operator intertwines the shifted realizations."""
    count = 0
    for spec in _extended_specs(5):
        for q in (1, 2):
            failures = intertwining_check(spec, q, _root_params_numeric(spec, q))
            if failures:
                gen, residual = failures[0]
                return False, "%r q=%d: %d generators fail; first %s residual: %s" % (
                    spec, q, len(failures), gen, render_diffop(residual))
            residual = intertwining_residual(spec, Gen("C"), q)  # symbolic weight
            cond = singular_condition(spec, q)
            if residual.is_zero():
                return False, "%r q=%d: symbolic residual vanishes" % (spec, q)
            if not divisible_by_condition(residual, cond):
                return False, "%r q=%d: residual not divisible by condition" % (spec, q)
            count += 1
    return True, "%d (family, level) identities hold; residuals track the condition" % count


def acceptance_criteria():
    """The eight acceptance criteria as (name, runner) pairs."""
    return [
        ("jacobi-closure", criterion_jacobi),
        ("closed-form-vs-oracle", criterion_closed_form),
        ("singular-annihilation", criterion_singular_verify),
        ("search-matches-closed-form", criterion_search_matches),
        ("centerless-kernels", criterion_centerless),
        ("left-realization-audit", criterion_rep_audit),
        ("heat-hierarchy-recovery", criterion_heat),
        ("intertwining-identity", criterion_intertwining),
    ]


# --- parser ----------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse tree, built once per process (parsing never mutates it)."""
    parser = argparse.ArgumentParser(
        prog="cgk",
        description="Exact toolkit for conformal Galilei algebras, their "
                    "lowest-weight modules, and invariant equation hierarchies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="generators, brackets, audits")
    alg_sub = p_algebra.add_subparsers(dest="action", required=True)
    p = alg_sub.add_parser("show", help="blocks and nonzero brackets")
    _add_spec_args(p)
    _add_output_args(p)
    p.set_defaults(handler=cmd_algebra_show)
    p = alg_sub.add_parser("jacobi", help="audit the structure constants")
    _add_spec_args(p)
    _add_output_args(p)
    p.set_defaults(handler=cmd_algebra_jacobi)

    p_verma = sub.add_parser("verma", help="lowest-weight module calculus")
    verma_sub = p_verma.add_subparsers(dest="action", required=True)
    p = verma_sub.add_parser("act", help="apply a generator to a basis monomial")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--gen", required=True, help="generator name, e.g. C or P1+")
    p.add_argument("--monomial", required=True,
                   help='JSON monomial {"h": int, "a": [...], "b": [...]}')
    p.add_argument("--action", choices=("generic", "closed"), default="generic")
    _add_output_args(p)
    p.set_defaults(handler=cmd_verma_act)
    p = verma_sub.add_parser("basis", help="enumerate basis monomials")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--level", type=int, help="grading level")
    p.add_argument("--weight", help='JSON weight constraint {"D": "-delta+2", ...}')
    _add_output_args(p)
    p.set_defaults(handler=cmd_verma_basis)
    p = verma_sub.add_parser("weight", help="diagonal eigenvalues of a monomial")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--monomial", required=True)
    _add_output_args(p)
    p.set_defaults(handler=cmd_verma_weight)

    p_sing = sub.add_parser("singular", help="singular vectors of the modules")
    sing_sub = p_sing.add_subparsers(dest="action", required=True)
    p = sing_sub.add_parser("condition", help="existence condition and its root")
    _add_spec_args(p)
    p.add_argument("--q", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(handler=cmd_singular_condition)
    p = sing_sub.add_parser("closed", help="closed-form candidate vector")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--q", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(handler=cmd_singular_closed)
    p = sing_sub.add_parser("verify", help="verify the closed-form vector")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--q", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(handler=cmd_singular_verify)
    p = sing_sub.add_parser("search", help="exact nullspace search")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--q", type=int, help="search the level-q predicted weight space")
    p.add_argument("--level", type=int, help="search a whole grading level")
    _add_output_args(p)
    p.set_defaults(handler=cmd_singular_search)

    p_reps = sub.add_parser("reps", help="differential-operator realizations")
    reps_sub = p_reps.add_subparsers(dest="action", required=True)
    for side in ("left", "right"):
        p = reps_sub.add_parser(side, help="%s realization of one generator" % side)
        _add_spec_args(p)
        if side == "left":
            _add_param_args(p)
        p.add_argument("--gen", required=True)
        _add_output_args(p, renders=("text", "json", "latex"))
        p.set_defaults(handler=cmd_reps, action=side)
    p = reps_sub.add_parser("check", help="audit a realization against the brackets")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--side", choices=("left", "right"), default="left")
    _add_output_args(p)
    p.set_defaults(handler=cmd_reps_check)

    p_pde = sub.add_parser("pde", help="invariant equation hierarchies")
    pde_sub = p_pde.add_subparsers(dest="action", required=True)
    p = pde_sub.add_parser("emit", help="print the level-q invariant equation")
    _add_spec_args(p)
    _add_param_args(p)
    p.add_argument("--q", type=int, required=True)
    _add_output_args(p, renders=("text", "json", "latex"))
    p.set_defaults(handler=cmd_pde_emit)
    p = pde_sub.add_parser("check", help="verify the intertwining identity")
    _add_spec_args(p)
    _add_param_args(p, require_delta=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="write the result to FILE instead of stdout")
    p.set_defaults(handler=cmd_pde_check)

    p_self = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_output_args(p_self)
    p_self.set_defaults(handler=cmd_selftest)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, DivisionByZero) as exc:
        # str() of a KeyError is the repr of its message, so print the message
        print("error: %s" % (exc.args[0] if len(exc.args) == 1 else exc,),
              file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure is still one line and a usage-class exit code:
        # 1 is reserved for a verification that ran and failed
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


def main(argv=None):
    code = run(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    sys.exit(code)


if __name__ == "__main__":
    main()
