"""Command-line front end with exact JSON and LaTeX serialization.

Every subcommand drives one of the library modules; all numbers cross the
boundary as exact rationals or canonical scalar strings, so emitted JSON
re-parses to equal values.  ``cgk selftest`` runs the package's
acceptance criteria (``acceptance``, the runners the test suite uses).

``COMMANDS`` builds the one parser tree (``build_parser``).  An argv that
starts with a command path is parsed by that command's leaf parser, which
gives the namespace, the errors and the help of the whole tree; any other
argv, or one with words the leaf does not take, goes through the whole
tree (``_parse``).

``_emit`` writes every result, and ``_emit_check`` every check report
through it, so a check's one verdict is its list of failures.

Each command is one process, so start-up counts: the module imports only
the layers every command needs (``algebra``, ``scalars``, ``verma``,
``singular``).  The ``reps`` and ``pde`` handlers and the operator writers
import the names they use from ``diffop``, ``reps`` and ``invariants`` in
the function, so ``algebra``, ``verma`` and ``singular`` commands never
load those three; only ``selftest`` loads ``acceptance``.  ``argparse`` is
imported by ``build_parser`` (and ``_fraction``'s error), and ``json`` by
the code that reads or writes JSON, so importing this module loads
neither, and a command that reads and writes no JSON never loads
``json``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    _structure,
    bracket,
    central_element,
    decomposition,
    enumerate_generators,
    jacobi_check,
    parse_gen,
)
from .scalars import DivisionByZero, Scalar, parse_scalar, render_scalar
from .singular import (
    certify,
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
    required_parameters,
    symbolic_params,
    weight_of,
)

PARAM_NAMES = ("delta", "mu", "theta", "r", "kappa")


class UsageError(ValueError):
    """Bad command-line input (reported on stderr with exit code 2)."""


# --- exact serialization ---------------------------------------------------

def monomial_to_json(m):
    return {"h": m.h, "a": list(m.a), "b": list(m.b)}


def _json_int(value):
    # int() would truncate 1.5 and read true or "1"; bool is an int subclass
    if type(value) is not int:
        import json

        raise TypeError("%s is not an integer" % (json.dumps(value),))
    return value


def monomial_from_json(data, spec=None):
    import json

    if not isinstance(data, dict):
        raise UsageError("monomial JSON must be an object with integer fields "
                         "h, a, b, got %s" % (json.dumps(data),))
    extra = [json.dumps(key) for key in sorted(data.keys() - {"h", "a", "b"})]
    if extra:
        raise UsageError("monomial JSON has no field %s (its fields are h, a, b)" % extra[0])
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


def _json_flag(text, flag):
    """The JSON value given to ``flag``; UsageError when it is not JSON or repeats a key."""
    import json

    def unique(pairs):
        keys = [key for key, _ in pairs]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise UsageError("%s repeats the key %s" % (flag, json.dumps(key)))
        return dict(pairs)

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not JSON: %s" % (flag, exc)) from None


def vector_to_json(v):
    return [
        {"monomial": monomial_to_json(m), "coef": render_scalar(c)}
        for m, c in v.items()
    ]


def diffop_to_json(op):
    from .diffop import render_poly_in_vars

    entries = []
    for dexpo, poly in op.items():
        partials = {str(v): e for v, e in zip(op.chart, dexpo) if e}
        entries.append({"coef": render_poly_in_vars(poly), "partials": partials})
    return entries


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
        import argparse

        raise argparse.ArgumentTypeError("not a rational number: %r" % (text,))


def _config(args, q=None):
    """The family and the parameters of an invocation; the parameters are
    None when no parameter flag was given.  ``q`` is the command's --q, the
    level that ``--delta auto`` solves the condition at.  A parameter flag
    that the family lacks is a usage error."""
    spec = AlgebraSpec(args.d, args.two_ell, args.ext)
    given = [name for name in PARAM_NAMES if getattr(args, name, None) is not None]
    names = required_parameters(spec)
    foreign = [name for name in given if name not in names]
    if foreign:
        raise UsageError("%r has no parameter %s; its parameters are %s" % (
            spec, ", ".join("--" + name for name in foreign), ", ".join(names)))
    provided = {}
    for name in given:
        val = getattr(args, name)
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
    # after the flags, so a bad --delta is still the error reported first
    if q is not None and q < 1:
        raise ValueError("q must be a positive integer")
    if not provided:
        return spec, None
    params = symbolic_params(spec)
    params.update(provided)
    return spec, params


def _level(level):
    """A --level value; a negative grading level is outside the module."""
    if level < 0:
        raise UsageError("level must be a non-negative integer")
    return level


def _emit(args, out):
    """Write ``out`` to --out or stdout: a str as it is, anything else as JSON."""
    if not isinstance(out, str):
        import json

        out = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from None
    else:
        try:
            print(out)
        except BrokenPipeError:
            _drop_stdout()


def _emit_check(args, failures, fields, entry, head, line, passed):
    """Write a check's report and return its exit code, 1 when anything
    failed.  As JSON it is ``fields`` plus ``ok`` and the failures, each
    written by ``entry``; as text, ``passed``, or ``head`` and one indented
    ``line`` per failure."""
    if args.render == "json":
        out = {**fields, "ok": not failures, "failures": [entry(f) for f in failures]}
    else:
        out = "\n".join([head] + ["  " + line(f) for f in failures]) if failures else passed
    _emit(args, out)
    return 1 if failures else 0


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


# --- subcommand handlers ---------------------------------------------------
#
# Each handler hands _emit one output: the JSON payload or the text, with
# the form --render did not ask for left unbuilt; a check hands _emit_check its failures.

def cmd_algebra_show(args):
    spec, _ = _config(args)
    blocks = dict(zip(("plus", "zero", "minus"), decomposition(spec)))
    gens = enumerate_generators(spec)
    brackets = [(x, y, bracket(spec, x, y)) for i, x in enumerate(gens)
                for y in gens[i + 1:] if _structure(spec)[x, y]]
    if args.render == "json":
        central = central_element(spec)
        out = {
            "spec": {"d": spec.d, "twoEll": spec.twoEll, "ext": spec.ext},
            "blocks": {name: [str(g) for g in block] for name, block in blocks.items()},
            "central": str(central) if central else None,
            "brackets": [{"x": str(x), "y": str(y), "value": combo_to_json(c)}
                         for x, y, c in brackets],
        }
    else:
        out = "\n".join(["g%s : %s" % (sign, ", ".join(map(str, block)))
                         for sign, block in zip("+0-", blocks.values())]
                        + ["[%s, %s] = %s" % (x, y, c) for x, y, c in brackets])
    _emit(args, out)
    return 0


def cmd_algebra_jacobi(args):
    spec, _ = _config(args)
    failures = jacobi_check(spec)
    return _emit_check(
        args, failures, {},
        lambda f: dict(zip("xyz", map(str, f)), residual=combo_to_json(f[3])),
        "jacobi: FAIL (%d triples)" % len(failures),
        lambda f: "[[%s,%s],%s]-cycle residue: %s" % tuple(f),
        "jacobi: ok (%d generators, all triples close)" % len(enumerate_generators(spec)))


def cmd_verma_act(args):
    spec, params = _config(args)
    gen = parse_gen(args.gen)
    mono = monomial_from_json(_json_flag(args.monomial, "--monomial"), spec)
    action = act_closed_form if args.action == "closed" else act_generic
    result = action(spec, gen, ModuleVector.of(mono), params=params)
    _emit(args, {"vector": vector_to_json(result)} if args.render == "json"
          else str(result))
    return 0


def cmd_verma_basis(args):
    spec, params = _config(args)
    if (args.level is None) == (args.weight is None):
        raise UsageError("give exactly one of --level or --weight")
    if args.level is not None:
        constraint = _level(args.level)
    else:
        raw = _json_flag(args.weight, "--weight")
        if not isinstance(raw, dict) or not all(
                isinstance(val, str) for val in raw.values()):
            raise UsageError('--weight must be a JSON object of scalar strings, '
                             'e.g. {"D": "-delta+2"}, got %s' % (args.weight,))
        constraint = {key: parse_scalar(val) for key, val in raw.items()}
    monos = level_basis(spec, constraint, params=params)
    _emit(args, {"basis": [monomial_to_json(m) for m in monos]} if args.render == "json"
          else ("\n".join(str(m) for m in monos) if monos else "(empty)"))
    return 0


def cmd_verma_weight(args):
    spec, params = _config(args)
    mono = monomial_from_json(_json_flag(args.monomial, "--monomial"), spec)
    w = weight_of(spec, mono, params=params)
    _emit(args, {"weight": weight_to_json(w)} if args.render == "json"
          else "\n".join("%s -> %s" % item for item in _weight_items(w)))
    return 0


def cmd_singular_condition(args):
    spec, _ = _config(args, q=args.q)
    cond = render_scalar(singular_condition(spec, args.q))
    root = delta_at_condition(spec, args.q)
    if args.render == "json":
        out = {"q": args.q, "condition": cond, "delta": None if root is None else str(root)}
    elif root is None:
        out = "condition: %s = 0 (every level)" % cond
    else:
        out = "condition: %s = 0  (delta = %s)" % (cond, root)
    _emit(args, out)
    return 0


def cmd_singular_closed(args):
    spec, params = _config(args, q=args.q)
    v = singular_closed(spec, args.q, params=params)
    _emit(args, {"q": args.q, "vector": vector_to_json(v)} if args.render == "json"
          else str(v))
    return 0


def cmd_singular_verify(args):
    spec, params = _config(args, q=args.q)
    v = singular_closed(spec, args.q, params=params)
    expected = predicted_weight(spec, args.q, params=params)
    report = verify_singular(spec, v, params=params, expect_weight=expected)
    weight = weight_to_json(report.weight) if report.weight else None
    return _emit_check(args, report.failures, {"q": args.q, "weight": weight},
                       _failure_json, "verify: FAIL", _failure_text,
                       "verify: PASS (level-%d vector is singular)" % args.q)


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
    if args.level is not None and args.q is not None:
        raise UsageError("give --level or --q, not both")
    if args.level is not None:
        constraint = _level(args.level)
    elif args.q is not None:
        constraint = predicted_weight(spec, args.q, params=params).eigen
    else:
        raise UsageError("give --level, or --q for the predicted weight space")
    found = search_singular(spec, constraint, params=params)
    loci, uncertified = certify(spec, constraint, params, found)
    at = lambda point: {name: render_scalar(Scalar.const(v)) for name, v in point}
    if args.render == "json":
        caveats = [{"at": at(point), "dimension": dim} for point, dim in loci.items()]
        caveats += [{"at": at(point), "vanishes": render_scalar(Scalar(factor)),
                     "dimension": None} for point, factor in uncertified]
        out = {"dimension": len(found), "caveats": caveats,
               "vectors": [vector_to_json(v) for v in found.vectors]}
    else:
        lines = ["kernel dimension: %d" % len(found)]
        lines += ["  %s" % v for v in found.vectors]
        where = lambda point: ["%s = %s" % kv for kv in at(point).items()]
        lines += ["at %s: dimension %d" % (", ".join(where(point)), dim)
                  for point, dim in loci.items()]
        lines += ["at %s: not certified" % ", ".join(
            where(point) + ["%s = 0" % render_scalar(Scalar(factor))])
            for point, factor in uncertified]
        out = "\n".join(lines)
    _emit(args, out)
    return 0


def _emit_operator(args, op, fields=None, text="%s", latex="%s"):
    """An operator as JSON (its chart and terms, plus ``fields``), or in
    the ``latex`` or ``text`` form."""
    if args.render == "json":
        out = {**(fields or {}), "chart": [str(v) for v in op.chart],
               "operator": diffop_to_json(op)}
    elif args.render == "latex":
        from .diffop import latex_diffop
        out = latex % latex_diffop(op)
    else:
        from .diffop import render_diffop
        out = text % render_diffop(op)
    _emit(args, out)
    return 0


def cmd_reps(args):
    from .reps import left_action, right_action

    spec, params = _config(args)
    gen = parse_gen(args.gen)
    if args.action == "left":
        op = left_action(spec, gen, params=params)
    else:
        op = right_action(spec, gen)
    return _emit_operator(args, op)


def cmd_reps_check(args):
    from .diffop import render_diffop
    from .reps import rep_check

    spec, params = _config(args)
    failures = rep_check(spec, side=args.side, params=params)
    return _emit_check(
        args, failures, {"side": args.side},
        lambda f: dict(zip("xy", map(str, f)), residual=diffop_to_json(f[2])),
        "rep check (%s): FAIL" % args.side,
        lambda f: "[%s, %s] residual: %s" % (f[0], f[1], render_diffop(f[2])),
        "rep check (%s): ok" % args.side)


def cmd_pde_emit(args):
    from .invariants import invariant_operator

    spec, params = _config(args, q=args.q)
    op = invariant_operator(spec, args.q, params=params)
    return _emit_operator(args, op, {"q": args.q}, text="(%s) psi = 0",
                          latex=r"\left(%s\right)\psi = 0")


def cmd_pde_check(args):
    from .invariants import ConditionNotSatisfied, intertwining_check

    spec, params = _config(args, q=args.q)
    try:
        failures = intertwining_check(spec, args.q, params)
    except ConditionNotSatisfied as exc:
        _emit(args, {"q": args.q, "ok": False, "error": str(exc)})
        return 1
    failed = {g: r for g, r in failures}
    report = []
    for gen in enumerate_generators(spec):
        entry = {"gen": str(gen), "ok": gen not in failed}
        if gen in failed:
            entry["residual"] = diffop_to_json(failed[gen])
        report.append(entry)
    _emit(args, {
        "q": args.q,
        "delta": str(params["delta"]),
        "ok": not failures,
        "generators": report,
    })
    return 1 if failures else 0


def cmd_selftest(args):
    from .acceptance import _level_cap, acceptance_criteria

    _level_cap()  # a bad CGK_CAPS_LEVEL fails before any criterion runs
    results = []
    for name, runner in acceptance_criteria():
        start = time.perf_counter()
        ok, detail = runner()
        results.append({"name": name, "ok": ok, "detail": detail,
                        "seconds": round(time.perf_counter() - start, 6)})
    all_ok = all(r["ok"] for r in results)
    _emit(args, {"criteria": results, "ok": all_ok} if args.render == "json" else "\n".join(
        ["[%s] %s: %s" % ("PASS" if r["ok"] else "FAIL", r["name"], r["detail"])
         for r in results] + ["selftest: %s" % ("PASS" if all_ok else "FAIL")]))
    return 0 if all_ok else 1


# --- parser ----------------------------------------------------------------

_FAMILY = (
    ("--d", {"type": int, "required": True, "help": "spatial dimension (1 or 2)"}),
    ("--two-ell", {"dest": "two_ell", "type": int, "required": True,
                   "help": "twice the rational label (integers only)"}),
    ("--ext", {"required": True, "choices": ("mass", "exotic", "none"),
               "help": "central extension"}),
)
_DELTA_HELP = "scaling weight (rational, or 'auto' with --q)"
_OTHER_PARAMS = tuple(("--" + name, {"type": _fraction, "help": "family parameter"})
                      for name in PARAM_NAMES[1:])
_PARAMS = (("--delta", {"help": _DELTA_HELP}),) + _OTHER_PARAMS
_DELTA_REQUIRED = (("--delta", {"required": True, "help": _DELTA_HELP}),) + _OTHER_PARAMS
_TEXT_JSON = ("text", "json")
_WITH_LATEX = ("text", "json", "latex")
_Q = (("--q", {"type": int, "required": True}),)
_GEN = (("--gen", {"required": True}),)

# group -> (help, rows).  A row is (command, help, handler, parameter flags:
# () / _PARAMS / _DELTA_REQUIRED, the command's own arguments in order,
# renders); every command takes the _FAMILY flags first and --out last, and
# renders () means JSON only, with no --render flag.
COMMANDS = {
    "algebra": ("generators, brackets, audits", (
        ("show", "blocks and nonzero brackets", cmd_algebra_show, (), (), _TEXT_JSON),
        ("jacobi", "audit the structure constants", cmd_algebra_jacobi, (), (), _TEXT_JSON),
    )),
    "verma": ("lowest-weight module calculus", (
        ("act", "apply a generator to a basis monomial", cmd_verma_act, _PARAMS, (
            ("--gen", {"required": True, "help": "generator name, e.g. C or P1+"}),
            ("--monomial", {"required": True,
                            "help": 'JSON monomial {"h": int, "a": [...], "b": [...]}'}),
            ("--action", {"choices": ("generic", "closed"), "default": "generic"}),
        ), _TEXT_JSON),
        ("basis", "enumerate basis monomials", cmd_verma_basis, _PARAMS, (
            ("--level", {"type": int, "help": "grading level"}),
            ("--weight", {"help": 'JSON weight constraint {"D": "-delta+2", ...}'}),
        ), _TEXT_JSON),
        ("weight", "diagonal eigenvalues of a monomial", cmd_verma_weight, _PARAMS,
         (("--monomial", {"required": True}),), _TEXT_JSON),
    )),
    "singular": ("singular vectors of the modules", (
        ("condition", "existence condition and its root", cmd_singular_condition, (), _Q,
         _TEXT_JSON),
        ("closed", "closed-form candidate vector", cmd_singular_closed, _PARAMS, _Q,
         _TEXT_JSON),
        ("verify", "verify the closed-form vector", cmd_singular_verify, _PARAMS, _Q,
         _TEXT_JSON),
        ("search", "exact nullspace search", cmd_singular_search, _PARAMS, (
            ("--q", {"type": int, "help": "search the level-q predicted weight space"}),
            ("--level", {"type": int, "help": "search a whole grading level"}),
        ), _TEXT_JSON),
    )),
    "reps": ("differential-operator realizations", (
        ("left", "left realization of one generator", cmd_reps, _PARAMS, _GEN, _WITH_LATEX),
        ("right", "right realization of one generator", cmd_reps, (), _GEN, _WITH_LATEX),
        ("check", "audit a realization against the brackets", cmd_reps_check, _PARAMS,
         (("--side", {"choices": ("left", "right"), "default": "left"}),), _TEXT_JSON),
    )),
    "pde": ("invariant equation hierarchies", (
        ("emit", "print the level-q invariant equation", cmd_pde_emit, _PARAMS, _Q,
         _WITH_LATEX),
        ("check", "verify the intertwining identity", cmd_pde_check, _DELTA_REQUIRED, _Q,
         ()),
    )),
}


def _add_arguments(parser, arguments, renders, handler):
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    if renders:
        parser.add_argument("--render", choices=renders, default=renders[0])
    parser.add_argument("--out", help="write the result to FILE instead of stdout")
    parser.set_defaults(handler=handler)


@functools.cache
def build_parser():
    """The argparse tree, built once per process (parsing never mutates it).
    A group's subparsers store the command name in ``action``, which is how
    ``reps left`` and ``reps right`` share a handler.

    ``parser.leaves`` maps each command path, ``(group, command)`` or
    ``("selftest",)``, to its leaf parser and the names the levels above
    it set, for ``_parse``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cgk",
        description="Exact toolkit for conformal Galilei algebras, their "
                    "lowest-weight modules, and invariant equation hierarchies.",
    )
    parser.leaves = {}
    sub = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, rows) in COMMANDS.items():
        commands = sub.add_parser(group, help=group_help).add_subparsers(
            dest="action", required=True)
        for name, help_text, handler, param_flags, arguments, renders in rows:
            leaf = commands.add_parser(name, help=help_text)
            _add_arguments(leaf, _FAMILY + param_flags + arguments, renders, handler)
            parser.leaves[group, name] = leaf, {"command": group, "action": name}
    leaf = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_arguments(leaf, (), _TEXT_JSON, cmd_selftest)
    parser.leaves["selftest",] = leaf, {"command": "selftest"}
    return parser


_PARAM_FLAGS = frozenset("--" + name for name in PARAM_NAMES)


def _joined_params(argv):
    """``argv`` with each parameter flag joined to a next word that starts
    with a single '-': argparse reads a negative rational such as -1/2 as
    an option, but takes it after '='."""
    out = []
    for word in argv:
        if out and out[-1] in _PARAM_FLAGS and word[:1] == "-" and word[1:2] != "-":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _parse(argv):
    """The namespace of ``argv``, parsed by its leaf parser when it starts
    with a command path.

    The root and group parsers hand every word after their command name to
    the level below, so the leaf sees the same words, and writes the same
    errors and help, as it does under the whole tree.  The leaf parses into
    a fresh namespace that then overrides the names set above it, as
    argparse's subparsers do (``verma act`` has its own ``--action``).  Any
    other argv, or words the leaf does not take, go through the whole tree,
    which writes the root's errors (``unrecognized arguments``).
    """
    parser = build_parser()
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in parser.leaves:
            leaf, names = parser.leaves[path]
            args, extra = leaf.parse_known_args(argv[len(path):])
            if not extra:
                return type(args)(**{**names, **vars(args)})
            break
    return parser.parse_args(argv)


def run(argv=None):
    try:
        args = _parse(_joined_params(sys.argv[1:] if argv is None else argv))
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
    # under ``python -m cgk.cli`` this module is ``__main__``: register it
    # as ``cgk.cli`` too, so ``acceptance`` raises the UsageError that
    # ``run`` catches, not one of a second copy of the module
    sys.modules.setdefault("cgk.cli", sys.modules[__name__])
    main()
