"""Command-line interface: grammar, exit codes, and exact serialization."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import cgk.invariants
import cgk.reps
from cgk import acceptance, cli
from cgk.algebra import (
    AlgebraSpec,
    Gen,
    GenCombo,
    InvalidSpec,
    UnknownGenerator,
    enumerate_generators,
    jacobi_check,
    supported_specs,
)
from cgk.cli import (
    build_parser,
    diffop_to_json,
    monomial_from_json,
    monomial_to_json,
    run,
    vector_to_json,
)
from cgk.diffop import DiffOp, VariableMismatch, parse_diffop, render_diffop
from cgk.invariants import invariant_operator
from cgk.reps import UnsupportedGenerator, chart, left_action
from cgk.scalars import DivisionByZero, Scalar, UnsupportedFamily, parse_scalar
from cgk.singular import SearchResult, SingularReport, singular_closed
from cgk.verma import (
    InfiniteSelection,
    MissingParameter,
    ModuleVector,
    PbwMonomial,
    Weight,
    level_basis,
    required_parameters,
    resolve_params,
)
from test_algebra import _corrupt_structure
from test_diffop import _reference_residual
from test_invariants import _corrupt_left_action, _shifted_params
from test_reps import _reference_rep_check

D1 = AlgebraSpec(1, 1, "mass")
D3 = AlgebraSpec(1, 3, "mass")
EX2 = AlgebraSpec(2, 2, "exotic")
D1_FLAGS = ("--d", "1", "--two-ell", "1", "--ext", "mass")


def vector_from_json(entries, spec=None):
    """The module vector that ``vector_to_json`` wrote: the round-trip
    oracle."""
    out = ModuleVector.zero()
    for entry in entries:
        out = out + ModuleVector.of(monomial_from_json(entry["monomial"], spec),
                                    parse_scalar(entry["coef"]))
    return out


def diffop_from_json(entries, ch):
    """The operator on the chart ``ch`` that ``diffop_to_json`` wrote: the
    round-trip oracle."""
    out = DiffOp.zero(ch)
    for entry in entries:
        term = parse_diffop(entry["coef"], ch)
        for name, order in entry["partials"].items():
            term = term * DiffOp.partial(ch, name, order)
        out = out + term
    return out


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pde_emit_latex_example(capsys):
    code, out, _ = invoke(
        capsys, "pde", "emit", "--d", "1", "--two-ell", "3", "--ext", "mass",
        "--q", "1", "--render", "latex",
    )
    assert code == 0
    assert "\\partial_{x_{1}}^{2}" in out
    assert "2 \\mu \\partial_{t}" in out
    # the operator applies to psi as a whole, as in the text form's ( ... ) psi
    assert out.startswith("\\left(2 \\mu x_{1}")
    assert out.endswith("\\partial_{x_{1}}^{2}\\right)\\psi = 0\n")


def test_centerless_search_example(capsys):
    code, out, _ = invoke(
        capsys, "singular", "search", "--d", "1", "--two-ell", "2", "--ext",
        "none", "--kappa", "0", "--level", "2", "--render", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["caveats"] == []
    assert vector_from_json(payload["vectors"][0]) == ModuleVector.of(
        PbwMonomial(0, (2,), ())
    )


def test_jacobi_example_exit_zero(capsys):
    code, out, _ = invoke(
        capsys, "algebra", "jacobi", "--d", "2", "--two-ell", "2", "--ext",
        "exotic", "--render", "json",
    )
    assert code == 0
    assert json.loads(out) == {"ok": True, "failures": []}


def test_verma_act_generic_equals_closed(capsys):
    argv = [
        "verma", "act", "--d", "2", "--two-ell", "3", "--ext", "mass",
        "--gen", "P1+", "--monomial", '{"h":1,"a":[1,0],"b":[0,0]}',
        "--render", "json",
    ]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    generic = vector_from_json(json.loads(out)["vector"])
    code, out, _ = invoke(capsys, *argv, "--action", "closed")
    assert code == 0
    closed = vector_from_json(json.loads(out)["vector"])
    expected = ModuleVector.of(PbwMonomial(1, (1, 1), (0, 0))) + ModuleVector.of(
        PbwMonomial(0, (2, 0), (0, 0))
    )
    assert generic == closed == expected


def test_verma_basis_level_and_weight(capsys):
    code, out, _ = invoke(
        capsys, "verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass",
        "--level", "2", "--render", "json",
    )
    assert code == 0
    basis = [monomial_from_json(m) for m in json.loads(out)["basis"]]
    assert basis == [PbwMonomial(0, (2,), ()), PbwMonomial(1, (0,), ())]
    code, out, _ = invoke(
        capsys, "verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass",
        "--weight", '{"D": "-delta+2", "M": "-mu"}', "--render", "json",
    )
    assert code == 0
    assert [monomial_from_json(m) for m in json.loads(out)["basis"]] == basis


def test_weight_constraint_in_given_parameters(capsys):
    # a weight written in delta, with delta given, selects what the number does
    family = ["verma", "basis", "--d", "2", "--two-ell", "1", "--ext", "mass",
              "--delta", "0"]
    symbolic = invoke(capsys, *family, "--weight", '{"D": "-delta+2"}')
    numeric = invoke(capsys, *family, "--weight", '{"D": "2"}')
    assert symbolic == numeric
    code, out, err = symbolic
    assert (code, err) == (0, "")
    assert out.split() == ["|0;0;2>", "|0;1;1>", "|0;2;0>", "|1;0;0>"]


def test_unexpected_exception_is_one_line_exit_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "level_basis", boom)
    code, out, err = invoke(
        capsys, "verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass",
        "--level", "2",
    )
    assert (code, out, err) == (2, "", "internal error: RuntimeError: boom\n")


@pytest.mark.parametrize("error", [
    InvalidSpec, UnknownGenerator, UnsupportedGenerator, UnsupportedFamily,
    MissingParameter, InfiniteSelection, VariableMismatch, DivisionByZero,
], ids=lambda e: e.__name__)
def test_typed_error_is_one_line_exit_two(capsys, monkeypatch, error):
    # each typed error reaches run's one handler: its message, never its repr
    def fail(*args, **kwargs):
        raise error("no %s here" % error.__name__)

    monkeypatch.setattr(cli, "level_basis", fail)
    code, out, err = invoke(
        capsys, "verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass",
        "--level", "2",
    )
    assert (code, out, err) == (2, "", "error: no %s here\n" % error.__name__)


PDE_CHECK_MU0 = ["pde", "check", "--d", "1", "--two-ell", "1", "--ext", "mass", "--q", "1",
                 "--mu", "0"]


class _ClosingStdout:
    """A stdout whose reader goes away after the first write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        if self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("delta, want", [("auto", 0), ("1/7", 1)])
def test_closed_stdout_keeps_exit_code(capsys, monkeypatch, delta, want):
    stdout = _ClosingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = run(PDE_CHECK_MU0 + ["--delta", delta])
    assert (code, capsys.readouterr().err) == (want, "")
    assert stdout.writes[0].startswith("{")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_pipe_exits_cleanly(unbuffered):
    # a pipe whose read end is closed before the command writes: no stderr
    # line, no traceback at interpreter exit, and the command's own exit code
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cgk.cli"] + PDE_CHECK_MU0 + ["--delta", "auto"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def _readme_commands():
    """Every ``cgk ...`` line of the README's shell blocks, continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "cgk":
                commands.append(argv[1:])
    return commands


def _assert_snapshot(capsys, commands, name):
    """Run each command and compare its exit code, stdout and stderr with the
    JSON snapshot ``name`` beside this file; returns the snapshot entries."""
    snapshot = json.loads(pathlib.Path(__file__).with_name(name).read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in snapshot] == [shlex.join(argv) for argv in commands]
    for argv, entry in zip(commands, snapshot):
        got = invoke(capsys, *argv)
        assert got == (entry["code"], entry["stdout"], entry["stderr"]), argv
    return snapshot


def test_readme_examples_run(capsys, monkeypatch):
    # readme_outputs.json pins each command's exact stdout, stderr and exit code
    monkeypatch.delenv("CGK_CAPS_LEVEL", raising=False)
    commands = _readme_commands()
    assert len(commands) >= 14
    for entry in _assert_snapshot(capsys, commands, "readme_outputs.json"):
        assert (entry["code"], entry["stderr"]) == (0, "") and entry["stdout"], entry["argv"]


def _corpus_commands():
    """A sweep of every family with twoEll <= 4 through the commands whose
    output follows the generator layout: blocks, bases, realizations of
    every generator, singular vectors and equations for q <= 2, and the
    centerless family's error lines."""
    commands = []
    for spec in supported_specs(4):
        family = ["--d", str(spec.d), "--two-ell", str(spec.twoEll), "--ext", spec.ext]
        commands += [["algebra", "show", *family, "--render", render]
                     for render in ("text", "json")]
        commands += [["verma", "basis", *family, "--level", str(level)] for level in range(4)]
        for gen in enumerate_generators(spec):
            commands += [["reps", "left", *family, "--gen", str(gen), "--render", "json"],
                         ["reps", "right", *family, "--gen", str(gen)]]
        commands.append(["reps", "check", *family])
        for q in ("1", "2"):
            commands += [["singular", "closed", *family, "--q", q],
                         ["singular", "search", *family, "--q", q, "--render", "json"],
                         ["singular", "verify", *family, "--q", q, "--delta", "auto"],
                         ["pde", "emit", *family, "--q", q, "--render", "latex"],
                         ["pde", "check", *family, "--q", q, "--delta", "auto",
                          "--mu", "1", "--theta", "1", "--r", "2/3"]]
    return commands


def test_cli_output_corpus(capsys, monkeypatch):
    # cli_outputs.json pins the corpus's exact stdout, stderr and exit codes
    monkeypatch.delenv("CGK_CAPS_LEVEL", raising=False)
    _assert_snapshot(capsys, _corpus_commands(), "cli_outputs.json")


def _help_paths():
    """Every parser path: the root, each group, each command and selftest."""
    groups = {"algebra": ("show", "jacobi"), "verma": ("act", "basis", "weight"),
              "singular": ("condition", "closed", "verify", "search"),
              "reps": ("left", "right", "check"), "pde": ("emit", "check")}
    paths = [[]]
    for group, commands in groups.items():
        paths += [[group]] + [[group, command] for command in commands]
    return paths + [["selftest"]]


def _surface_commands():
    """What the sweep of ``_corpus_commands`` leaves out: the help of every
    parser path and every command's other renders, on three families."""
    commands = [[*path, "--help"] for path in _help_paths()]
    for spec in (D1, EX2, AlgebraSpec(1, 2, "none")):
        family = ["--d", str(spec.d), "--two-ell", str(spec.twoEll), "--ext", spec.ext]
        renders = (("--render", "text"), ("--render", "json"))
        commands += [["algebra", "jacobi", *family, *render] for render in renders]
        monos = [m for level in (0, 1) for m in level_basis(spec, level)]
        for m in monos:
            mono = ["--monomial", json.dumps(monomial_to_json(m))]
            commands += [["verma", "weight", *family, *mono, *render] for render in renders]
            commands += [["verma", "act", *family, "--gen", str(gen), *mono,
                          "--action", action, *render]
                         for gen in enumerate_generators(spec)
                         for action in ("generic", "closed") for render in renders]
        weights = ['{"D": "-delta+2"}', '{"D": "-delta-2"}']
        commands += [["verma", "basis", *family, "--weight", w, *render]
                     for w in weights for render in renders]
        for gen in enumerate_generators(spec):
            commands += [["reps", "left", *family, "--gen", str(gen), "--render", r]
                         for r in ("text", "latex")]
            commands += [["reps", "right", *family, "--gen", str(gen), "--render", r]
                         for r in ("json", "latex")]
        commands += [["reps", "check", *family, "--render", "json"],
                     ["reps", "check", *family, "--side", "right"]]
        for q in ("1", "2"):
            commands += [["singular", "condition", *family, "--q", q, *render]
                         for render in renders]
            commands += [["singular", "closed", *family, "--q", q, "--render", "json"],
                         ["singular", "verify", *family, "--q", q, "--delta", "auto",
                          "--render", "json"],
                         ["singular", "search", *family, "--q", q],
                         ["singular", "search", *family, "--level", q]]
            commands += [["pde", "emit", *family, "--q", q, *render] for render in renders]
    return commands


def test_cli_surface_corpus(capsys, monkeypatch):
    # cli_surface_outputs.json pins the help texts and the renders that
    # cli_outputs.json leaves out; argparse wraps help to COLUMNS
    monkeypatch.delenv("CGK_CAPS_LEVEL", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    _assert_snapshot(capsys, _surface_commands(), "cli_surface_outputs.json")


def test_basis_reads_printed_weight_keys(capsys):
    # P1 is the centerless family's diagonal generator, named as printed
    code, out, err = invoke(
        capsys, "verma", "basis", "--d", "1", "--two-ell", "2", "--ext", "none",
        "--weight", '{"D":"-delta-2","P1":"-kappa"}')
    assert (code, out, err) == (0, "|0;1;>\n", "")


def test_weight_output_feeds_basis(capsys):
    for spec in supported_specs(5):
        family = ["--d", str(spec.d), "--two-ell", str(spec.twoEll), "--ext", spec.ext]
        for level in range(3):
            for m in level_basis(spec, level):
                code, out, err = invoke(
                    capsys, "verma", "weight", *family, "--render", "json",
                    "--monomial", json.dumps(monomial_to_json(m)))
                assert (code, err) == (0, ""), (spec, m)
                weight = json.dumps(json.loads(out)["weight"])
                code, out, err = invoke(capsys, "verma", "basis", *family, "--weight", weight)
                assert (code, err) == (0, ""), (spec, m, weight)
                assert str(m) in out.splitlines(), (spec, m, weight)


def test_closed_action_beyond_annihilator_range(capsys):
    # h >= n + 2 once an annihilator's sum reaches past i = n
    argv = [
        "verma", "act", "--d", "2", "--two-ell", "1", "--ext", "mass",
        "--gen", "P1+", "--monomial", '{"h":3,"a":[0],"b":[0]}',
    ]
    for action in ("closed", "generic"):
        code, out, err = invoke(capsys, *argv, "--action", action)
        assert (code, out, err) == (0, "3*|2;1;0>\n", ""), action


@pytest.mark.parametrize("action", ["closed", "generic"])
def test_act_with_a_generator_outside_the_family_exits_two(capsys, action):
    code, out, err = invoke(
        capsys, "verma", "act", "--d", "2", "--two-ell", "3", "--ext", "mass",
        "--gen", "P9+", "--monomial", '{"h":0,"a":[0,0],"b":[0,0]}', "--action", action)
    assert (code, out) == (2, "")
    assert err == ("error: P9+ is not a generator of "
                   "AlgebraSpec(d=2, twoEll=3, ext='mass')\n")


def test_non_object_json_is_usage_error(capsys):
    family = ["--d", "2", "--two-ell", "1", "--ext", "mass"]
    cases = [
        ["verma", "basis", *family, "--weight", "[1]"],
        ["verma", "basis", *family, "--weight", '{"D": 1}'],
        ["verma", "act", *family, "--gen", "H", "--monomial", "[1]"],
        ["verma", "weight", *family, "--monomial", "5"],
    ]
    # fields that int() would truncate or read: only JSON integers are taken
    for mono in ('{"h":1.5,"a":[0],"b":[0]}', '{"h":1,"a":[0.5],"b":[0]}',
                 '{"h":true,"a":[0],"b":[0]}', '{"h":"1","a":[0],"b":[0]}',
                 '{"h":1,"a":[0],"b":[false]}'):
        cases.append(["verma", "act", *family, "--gen", "H", "--monomial", mono])
    for argv in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_search_rejects_nonpositive_q(capsys):
    family = ["--d", "1", "--two-ell", "1", "--ext", "mass"]
    want = (2, "", "error: q must be a positive integer\n")
    for q in ("0", "-1"):
        assert invoke(capsys, "singular", "condition", *family, "--q", q) == want
        assert invoke(capsys, "singular", "search", *family, "--q", q) == want
    # a given --q is checked even where --level chooses the weight space
    for level, q in (("2", "0"), ("0", "-1")):
        assert invoke(capsys, "singular", "search", *family, "--level", level,
                      "--q", q) == want
    assert invoke(capsys, "singular", "search", *family, "--level", "0") == (
        0, "kernel dimension: 1\n  |0;0;>\n", "")


def test_search_takes_level_or_q_not_both(capsys):
    # a valid --q beside --level would otherwise be ignored
    for argv in (["--level", "2", "--q", "1"], ["--q", "1", "--level", "2"]):
        assert invoke(capsys, "singular", "search", *D1_FLAGS, *argv) == (
            2, "", "usage error: give --level or --q, not both\n")


def test_parser_reused_across_calls(capsys):
    calls = [
        ["pde", "emit", "--d", "1", "--two-ell", "1", "--ext", "mass", "--q", "2"],
        ["verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--level", "2", "--render", "json"],
        ["reps", "left", "--d", "1", "--two-ell", "3", "--ext", "mass",
         "--gen", "C"],
        ["nonsense"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    assert build_parser() is build_parser()
    for _ in range(2):
        assert [invoke(capsys, *argv) for argv in calls] == fresh


# one valid argv tail per command path, after the family flags
_VALID_TAILS = {
    ("algebra", "show"): [],
    ("algebra", "jacobi"): ["--render", "json"],
    ("verma", "act"): ["--gen", "H", "--monomial", '{"h": 0, "a": [1]}'],
    ("verma", "basis"): ["--level", "2", "--delta", "-1/2"],
    ("verma", "weight"): ["--monomial", '{"h": 1, "a": [0]}', "--mu", "3"],
    ("singular", "condition"): ["--q", "1"],
    ("singular", "closed"): ["--q", "2", "--delta", "auto"],
    ("singular", "verify"): ["--q", "1", "--delta", "auto", "--out", "v.txt"],
    ("singular", "search"): ["--level", "1"],
    ("reps", "left"): ["--gen", "C", "--render", "latex"],
    ("reps", "right"): ["--gen", "P0"],
    ("reps", "check"): ["--side", "right"],
    ("pde", "emit"): ["--q", "1"],
    ("pde", "check"): ["--q", "1", "--delta", "auto", "--mu", "1"],
}


def test_leaf_parse_equals_full_parse(monkeypatch):
    # every command path is parsed at its leaf, into the namespace the
    # whole tree gives; the whole tree is not consulted on a valid argv
    parser = build_parser()
    paths = [(group, row[0]) for group, (_, rows) in cli.COMMANDS.items() for row in rows]
    assert sorted(_VALID_TAILS) == sorted(paths)
    argvs = [[*path, *D1_FLAGS, *tail] for path, tail in _VALID_TAILS.items()]
    argvs += [["selftest"], ["selftest", "--render", "json"]]
    for argv in argvs:
        argv = cli._joined_params(argv)
        full = vars(parser.parse_args(argv))
        with monkeypatch.context() as m:
            m.setattr(parser, "parse_args", None)
            assert vars(cli._parse(argv)) == full, argv
    # verma act's own --action overrides the command name, as in the tree
    act = ["verma", "act", *D1_FLAGS, *_VALID_TAILS["verma", "act"]]
    assert cli._parse(act).action == "generic"


_USAGE = "usage: cgk [-h] {algebra,verma,singular,reps,pde,selftest} ...\n"


@pytest.mark.parametrize("argv, err", [
    # words the leaf does not take: the root reports them
    (["reps", "check", *D1_FLAGS, "--bogus"],
     _USAGE + "cgk: error: unrecognized arguments: --bogus\n"),
    (["pde", "check", *D1_FLAGS, "--q", "1", "--delta", "auto", "--render", "json"],
     _USAGE + "cgk: error: unrecognized arguments: --render json\n"),
    (["selftest", "extra"], _USAGE + "cgk: error: unrecognized arguments: extra\n"),
    # no command path at the front
    (["reps", "chek"],
     "usage: cgk reps [-h] {left,right,check} ...\ncgk reps: error: argument action: "
     "invalid choice: 'chek' (choose from 'left', 'right', 'check')\n"),
    (["reps"], "usage: cgk reps [-h] {left,right,check} ...\n"
     "cgk reps: error: the following arguments are required: action\n"),
    (["--d", "1", "reps", "check", *D1_FLAGS],
     _USAGE + "cgk: error: argument command: invalid choice: '1' (choose from "
     "'algebra', 'verma', 'singular', 'reps', 'pde', 'selftest')\n"),
])
def test_root_level_errors(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, *argv) == (2, "", err)


def test_verma_weight_output(capsys):
    code, out, _ = invoke(
        capsys, "verma", "weight", "--d", "2", "--two-ell", "1", "--ext", "mass",
        "--monomial", '{"h":1,"a":[0],"b":[1]}', "--render", "json",
    )
    assert code == 0
    assert json.loads(out)["weight"] == {
        "D": "-delta+3", "J": "-r-1", "M": "-mu",
    }


def test_singular_condition_and_verify(capsys):
    code, out, _ = invoke(
        capsys, "singular", "condition", "--d", "1", "--two-ell", "1", "--ext",
        "mass", "--q", "1", "--render", "json",
    )
    assert code == 0
    assert json.loads(out) == {"q": 1, "condition": "2*delta+1", "delta": "-1/2"}
    code, _, _ = invoke(
        capsys, "singular", "verify", "--d", "1", "--two-ell", "1", "--ext",
        "mass", "--q", "1", "--delta", "auto",
    )
    assert code == 0
    code, _, _ = invoke(
        capsys, "singular", "verify", "--d", "1", "--two-ell", "1", "--ext",
        "mass", "--q", "1", "--delta", "5",
    )
    assert code == 1


def test_pde_check_exit_codes(capsys):
    code, out, _ = invoke(
        capsys, "pde", "check", "--d", "2", "--two-ell", "2", "--ext", "exotic",
        "--q", "1", "--delta", "-2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(entry["ok"] for entry in payload["generators"])
    code, out, _ = invoke(
        capsys, "pde", "check", "--d", "2", "--two-ell", "2", "--ext", "exotic",
        "--q", "1", "--delta", "0",
    )
    assert code == 1
    assert json.loads(out)["ok"] is False


# a family with each parameter, and the vacuum monomial of its module
PARAM_FAMILIES = {
    "delta": ("1", "1", "mass", '{"h": 0, "a": [0]}'),
    "mu": ("1", "1", "mass", '{"h": 0, "a": [0]}'),
    "theta": ("2", "2", "exotic", '{"h": 0, "a": [0, 0], "b": [0]}'),
    "r": ("2", "1", "mass", '{"h": 0, "a": [0], "b": [0]}'),
    "kappa": ("1", "2", "none", '{"h": 0, "a": [0]}'),
}


@pytest.mark.parametrize("name", sorted(PARAM_FAMILIES))
def test_parameter_flag_takes_a_negative_fraction_as_next_word(capsys, name):
    # argparse reads -1/2 as an option; the flag must still take it
    d, two_ell, ext, vacuum = PARAM_FAMILIES[name]
    base = ["verma", "weight", "--d", d, "--two-ell", two_ell, "--ext", ext,
            "--monomial", vacuum, "--render", "json"]
    free = invoke(capsys, *base)
    joined = invoke(capsys, *base, "--%s=-1/2" % name)
    assert invoke(capsys, *base, "--" + name, "-1/2") == joined
    assert joined[0] == 0 and joined[1] != free[1]
    assert "1/2" in joined[1]


def test_parameter_flag_the_family_lacks_is_a_usage_error(capsys):
    assert invoke(capsys, "reps", "left", *D1_FLAGS, "--gen", "C", "--theta", "5") == (
        2, "", "usage error: AlgebraSpec(d=1, twoEll=1, ext='mass') has no parameter "
               "--theta; its parameters are delta, mu\n")
    assert invoke(capsys, "singular", "closed", "--d", "1", "--two-ell", "2", "--ext",
                  "none", "--q", "1", "--mu", "1", "--r", "2") == (
        2, "", "usage error: AlgebraSpec(d=1, twoEll=2, ext='none') has no parameter "
               "--mu, --r; its parameters are delta, kappa\n")
    # each family takes every one of its own parameters
    for spec in supported_specs(4):
        family = ["--d", str(spec.d), "--two-ell", str(spec.twoEll), "--ext", spec.ext]
        flags = [word for name in required_parameters(spec) for word in ("--" + name, "2")]
        vacuum = json.dumps(monomial_to_json(level_basis(spec, 0)[0]))
        code, out, err = invoke(capsys, "verma", "weight", *family, *flags,
                                "--monomial", vacuum)
        assert (code, err) == (0, "") and "2" in out, spec


def test_negative_delta_as_next_word_in_pde_check(capsys):
    argv = ["pde", "check", "--d", "1", "--two-ell", "1", "--ext", "mass", "--q", "1"]
    code, out, err = invoke(capsys, *argv, "--delta", "-1/2")
    assert (code, err) == (0, "")
    assert json.loads(out)["delta"] == "-1/2"
    assert invoke(capsys, *argv, "--delta", "-7/3")[0] == 1
    # an option after the flag is still a missing value
    code, _, err = invoke(capsys, *argv, "--delta", "--mu", "1")
    assert code == 2 and "expected one argument" in err


@pytest.mark.parametrize("spec", [D1, EX2], ids=repr)
def test_json_verdict_matches_exit_code(capsys, spec):
    # every check report with a verdict, passing and failing: the exit code
    # is 0 exactly when the JSON says ok
    family = ["--d", str(spec.d), "--two-ell", str(spec.twoEll), "--ext", spec.ext]
    checks = [["algebra", "jacobi"], ["reps", "check", "--side", "left"],
              ["reps", "check", "--side", "right"],
              ["singular", "verify", "--q", "1", "--delta", "auto"],
              ["singular", "verify", "--q", "1", "--delta", "1/7"]]
    verdicts = []
    for group, command, *flags in checks:
        code, out, err = invoke(capsys, group, command, *family, *flags, "--render", "json")
        ok = json.loads(out)["ok"]
        assert err == "" and code == (0 if ok is True else 1), (command, flags)
        verdicts.append(ok)
    assert verdicts == [True, True, True, True, False]


def test_usage_errors_exit_two(capsys):
    cases = [
        ["algebra", "show", "--d", "1", "--two-ell", "1", "--ext", "bogus"],
        ["algebra", "show", "--d", "3", "--two-ell", "1", "--ext", "mass"],
        ["verma", "act", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--gen", "Q9", "--monomial", '{"h":0,"a":[0]}'],
        ["verma", "act", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--gen", "H", "--monomial", "not json"],
        ["verma", "act", "--d", "2", "--two-ell", "1", "--ext", "mass",
         "--gen", "P2+", "--monomial", '{"h":0,"a":[1],"b":[1]}', "--action", "closed"],
        ["verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass"],
        ["pde", "check", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--q", "1"],
        ["reps", "right", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--gen", "C"],
        ["singular", "search", "--d", "1", "--two-ell", "1", "--ext", "mass"],
        ["singular", "search", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--level", "-1"],
        ["verma", "basis", "--d", "1", "--two-ell", "1", "--ext", "mass",
         "--level", "-2"],
        ["nonsense"],
    ]
    for argv in cases:
        code = run(argv)
        capsys.readouterr()
        assert code == 2, argv
    for argv in cases[-3:-1]:
        assert invoke(capsys, *argv) == (
            2, "", "usage error: level must be a non-negative integer\n")
    # a flag value that is not JSON is named, with the decoder's message
    assert invoke(capsys, *cases[3]) == (
        2, "", "usage error: --monomial is not JSON: "
               "Expecting value: line 1 column 1 (char 0)\n")
    assert invoke(capsys, "verma", "basis", *cases[3][2:8], "--weight", "{") == (
        2, "", "usage error: --weight is not JSON: Expecting property name "
               "enclosed in double quotes: line 1 column 2 (char 1)\n")
    # a monomial field cgk does not read, and a key given twice, which
    # json.loads alone would keep the last value of, are refused
    d1 = ["--d", "1", "--two-ell", "3", "--ext", "mass"]
    assert invoke(capsys, "verma", "act", *d1, "--gen", "C",
                  "--monomial", '{"h":1,"a":[0,1],"bb":[2]}') == (
        2, "", 'usage error: monomial JSON has no field "bb" (its fields are h, a, b)\n')
    assert invoke(capsys, "verma", "basis", *d1, "--weight", '{"D": "1", "D": "2"}') == (
        2, "", 'usage error: --weight repeats the key "D"\n')
    # two keys that name one generator pin it twice
    assert invoke(capsys, "verma", "basis", *d1,
                  "--weight", '{"D": "-delta+2", " D": "-delta"}') == (
        2, "", "error: D is pinned twice in the weight constraint\n")
    # a d = 1 monomial may leave out b
    assert invoke(capsys, "verma", "act", *d1, "--gen", "C",
                  "--monomial", '{"h":1,"a":[0,1]}')[0] == 0
    # a parameter that is not a rational number is refused by the parser
    code, out, err = invoke(capsys, "singular", "closed", "--d", "1", "--two-ell", "1",
                            "--ext", "mass", "--q", "1", "--mu", "abc")
    assert (code, out) == (2, "")
    assert err.endswith("argument --mu: not a rational number: 'abc'\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, err", [
    (["pde", "check", *D1_FLAGS, "--q", "1", "--delta", "foo"],
     "usage error: --delta expects a rational or 'auto'\n"),
    (["verma", "act", *D1_FLAGS, "--gen", "H", "--monomial", '{"h":0,"a":[0]}',
      "--delta", "auto"],
     "usage error: --delta auto needs --q\n"),
])
def test_bad_delta_is_a_usage_error(capsys, argv, err):
    assert invoke(capsys, *argv) == (2, "", err)


def test_key_error_messages_print_without_quotes(capsys):
    family = ["--d", "1", "--two-ell", "1", "--ext", "mass"]
    code, out, err = invoke(capsys, "verma", "act", *family, "--gen", "P5",
                            "--monomial", '{"h":0,"a":[0]}')
    assert (code, out) == (2, "")
    assert err == ("error: P5 is not a generator of "
                   "AlgebraSpec(d=1, twoEll=1, ext='mass')\n")
    code, out, err = invoke(capsys, "reps", "left", *family, "--gen", "P9")
    assert (code, out, err) == (2, "", "error: no left realization of P9\n")


def test_vector_json_round_trip():
    for spec, q in [(D1, 2), (D3, 1), (EX2, 1)]:
        v = singular_closed(spec, q)
        assert vector_from_json(vector_to_json(v), spec) == v
    mono = PbwMonomial(3, (1, 0), (0, 2))
    assert monomial_from_json(monomial_to_json(mono)) == mono


def test_diffop_json_round_trip():
    ops = [invariant_operator(D3, q) for q in (1, 2)]
    ops += [left_action(EX2, g) for g in (Gen("C"), Gen("D"), Gen("P", 2, "+"))]
    ops.append(parse_diffop("0", chart(D1)))
    ops.append(parse_diffop("(2*delta+1)/mu*d/dx0 - t^2*x0", chart(D1)))
    for op in ops:
        entries = diffop_to_json(op)
        assert diffop_from_json(entries, op.chart) == op
        for entry in entries:
            assert set(entry) == {"coef", "partials"}
            assert all(order >= 1 for order in entry["partials"].values())


def test_reps_json_shape(capsys):
    code, out, _ = invoke(
        capsys, "reps", "left", "--d", "1", "--two-ell", "1", "--ext", "mass",
        "--gen", "C", "--render", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chart"] == ["t", "x0"]
    op = diffop_from_json(payload["operator"], chart(D1))
    assert op == left_action(D1, Gen("C"))


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = invoke(
        capsys, "singular", "condition", "--d", "1", "--two-ell", "1", "--ext",
        "mass", "--q", "2", "--render", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["delta"] == "1/2"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_file_unwritable_is_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    code, out, err = invoke(
        capsys, "pde", "check", "--d", "1", "--two-ell", "1", "--ext", "mass",
        "--q", "1", "--delta", "auto", "--out", str(target),
    )
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error: cannot write %s: " % (target,))


def test_selftest_with_reduced_caps(capsys, monkeypatch):
    monkeypatch.setenv("CGK_CAPS_LEVEL", "2")
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line.startswith("[")]
    assert len(lines) == 8
    assert all(line.startswith("[PASS]") for line in lines)
    assert "selftest: PASS" in out


@pytest.mark.parametrize("value, err", [
    ("many", "usage error: CGK_CAPS_LEVEL must be an integer, got 'many'\n"),
    ("-1", "usage error: CGK_CAPS_LEVEL must be non-negative\n"),
])
def test_bad_caps_env_rejected(capsys, monkeypatch, value, err):
    monkeypatch.setenv("CGK_CAPS_LEVEL", value)
    # fails before the first criterion, not midway through the suite
    monkeypatch.setattr(acceptance, "acceptance_criteria", lambda: pytest.fail("ran"))
    assert invoke(capsys, "selftest") == (2, "", err)


def test_bad_caps_env_under_python_m_is_a_usage_error():
    # under -m the module runs as __main__, and the criteria module must
    # raise the UsageError that its run() catches
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), CGK_CAPS_LEVEL="many")
    proc = subprocess.run([sys.executable, "-B", "-m", "cgk.cli", "selftest"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "usage error: CGK_CAPS_LEVEL must be an integer, got 'many'\n")


def test_caps_env_read_by_selftest_only(capsys, monkeypatch):
    argv = ["singular", "search", "--d", "1", "--two-ell", "1", "--ext", "mass",
            "--q", "1"]
    want = invoke(capsys, *argv)
    assert want[0] == 0
    for value in ("0", "many"):
        monkeypatch.setenv("CGK_CAPS_LEVEL", value)
        assert invoke(capsys, *argv) == want


def test_selftest_json_shape(capsys, monkeypatch):
    monkeypatch.setenv("CGK_CAPS_LEVEL", "2")
    code, out, err = invoke(capsys, "selftest", "--render", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert set(payload) == {"criteria", "ok"} and payload["ok"] is True
    assert [c["name"] for c in payload["criteria"]] == [
        name for name, _ in acceptance.acceptance_criteria()]
    for entry in payload["criteria"]:
        assert set(entry) == {"name", "ok", "detail", "seconds"}
        assert entry["ok"] is True
        assert isinstance(entry["detail"], str) and entry["detail"]
        assert isinstance(entry["seconds"], float) and entry["seconds"] >= 0


def test_selftest_reports_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "acceptance_criteria", lambda: [
        ("holds", lambda: (True, "fine")), ("breaks", lambda: (False, "case x"))])
    code, out, _ = invoke(capsys, "selftest")
    assert (code, out) == (
        1, "[PASS] holds: fine\n[FAIL] breaks: case x\nselftest: FAIL\n")
    code, out, _ = invoke(capsys, "selftest", "--render", "json")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert [(c["name"], c["ok"], c["detail"]) for c in payload["criteria"]] == [
        ("holds", True, "fine"), ("breaks", False, "case x")]


def test_rep_audit_names_first_failing_pair(monkeypatch):
    import cgk.reps as reps

    patched = _corrupt_left_action(monkeypatch, reps, Gen("H"))
    spec = acceptance._extended_specs(5)[0]
    want = _reference_rep_check(spec, patched)
    x, y, residual = want[0]
    detail = "%r: %d failing pairs; first [%s, %s] residual: %s" % (
        spec, len(want), x, y, render_diffop(residual))
    assert acceptance.criterion_rep_audit() == (False, detail)


def test_intertwining_names_first_failing_generator(monkeypatch):
    import cgk.invariants as inv

    patched = _corrupt_left_action(monkeypatch, inv, Gen("H"))
    spec, q = acceptance._extended_specs(5)[0], 1
    pvals = resolve_params(spec, acceptance._root_params_numeric(spec, q))
    shifted = _shifted_params(pvals, q)
    power = invariant_operator(spec, q, pvals)
    want = [(gen, _reference_residual(power, patched(spec, gen, pvals),
                                      patched(spec, gen, shifted)))
            for gen in enumerate_generators(spec)]
    want = [(gen, r) for gen, r in want if not r.is_zero()]
    gen, residual = want[0]
    detail = "%r q=%d: %d generators fail; first %s residual: %s" % (
        spec, q, len(want), gen, render_diffop(residual))
    assert acceptance.criterion_intertwining() == (False, detail)


def test_closed_form_names_case_and_difference(monkeypatch):
    monkeypatch.setenv("CGK_CAPS_LEVEL", "1")
    spec = acceptance._extended_specs(5)[0]
    victim = enumerate_generators(spec)[0]
    mono = cli.level_basis(spec, 0)[0]
    extra = PbwMonomial(1, mono.a, mono.b)
    true_closed = cli.act_closed_form

    def patched(spec_, gen, v, params=None):
        out = true_closed(spec_, gen, v, params)
        return out + ModuleVector.of(extra, 3) if gen == victim else out

    monkeypatch.setattr(acceptance, "act_closed_form", patched)
    detail = "mismatch: %r, %s on %s; closed - generic: 3*%s" % (
        spec, victim, mono, extra)
    assert acceptance.criterion_closed_form() == (False, detail)


def test_singular_verify_names_first_failure(monkeypatch):
    spec, q = acceptance._singular_cases()[0]
    params = acceptance._root_params_symbolic(spec, q)
    good = singular_closed(spec, q, params=params)
    (m0, c0), *rest = good.items()
    bad = ModuleVector({m0: c0 * 2, **dict(rest)})
    monkeypatch.setattr(acceptance, "singular_closed", lambda *a, **k: bad)
    report = cli.verify_singular(
        spec, bad, params=params,
        expect_weight=cli.predicted_weight(spec, q, params=params))
    kind, gen, residual = report.failures[0]
    assert kind == "annihilator" and not residual.is_zero()
    detail = "%r q=%d: %d failures; first annihilator %s: %s" % (
        spec, q, len(report.failures), gen, str(residual))
    assert acceptance.criterion_singular_verify() == (False, detail)


def test_jacobi_names_first_failing_triple(monkeypatch):
    spec = acceptance.supported_specs(6)[0]
    _corrupt_structure(monkeypatch, spec)
    failures = jacobi_check(spec)
    x, y, z, residual = failures[0]
    assert not residual.is_zero()
    detail = "%r: %d failing triples; first (%s, %s, %s) residual: %s" % (
        spec, len(failures), x, y, z, str(residual))
    assert acceptance.criterion_jacobi() == (False, detail)


def test_search_matches_names_kernel_and_ray(monkeypatch):
    spec, q = acceptance._singular_cases()[0]
    closed = singular_closed(spec, q, params=acceptance._root_params_numeric(spec, q))
    ray = closed.scaled(closed.items()[0][1] ** -1)
    wrong = ray + ModuleVector.of(PbwMonomial(q, (0,), ()), 2)
    caveat = Scalar.symbol("mu") + 1
    monkeypatch.setattr(acceptance, "search_singular",
                        lambda *a, **k: SearchResult([ray, wrong], [caveat]))
    detail = "%r q=%d: found [%s; %s] (caveats: [mu+1]); closed-form ray %s" % (
        spec, q, str(ray), str(wrong),
        str(ray))
    assert acceptance.criterion_search_matches() == (False, detail)
    monkeypatch.setattr(acceptance, "search_singular", lambda *a, **k: SearchResult([wrong]))
    detail = "%r q=%d: found [%s] (caveats: []); closed-form ray %s" % (
        spec, q, str(wrong), str(ray))
    assert acceptance.criterion_search_matches() == (False, detail)


def test_heat_names_operator_difference(monkeypatch):
    true_operator = cgk.invariants.invariant_operator
    extra = parse_diffop("3*x0*d/dt", chart(D1))

    def patched(spec, q, params=None):
        out = true_operator(spec, q, params)
        return out + extra if (spec, q) == (D1, 2) else out

    monkeypatch.setattr(cgk.invariants, "invariant_operator", patched)
    detail = "twoEll=1, q=2: operator differs; computed - expected: %s" % (
        render_diffop(extra),)
    assert acceptance.criterion_heat() == (False, detail)


def test_centerless_names_kernel_and_failure(monkeypatch):
    spec = AlgebraSpec(1, 2, "none")
    free = {"delta": Scalar.symbol("delta"), "kappa": 0}
    want = ModuleVector.of(PbwMonomial(0, (1,), ()))
    extra = ModuleVector.of(PbwMonomial(1, (0,), ()), 2)
    true_search, true_verify = cli.search_singular, cli.verify_singular

    # a wrong kernel at kappa = 0: the vectors found are rendered
    monkeypatch.setattr(acceptance, "search_singular", lambda spec_, p, params=None: (
        SearchResult([want, want + extra]) if params["kappa"] == 0
        else true_search(spec_, p, params=params)))
    assert acceptance.criterion_centerless() == (
        False, "kappa=0, level 1: found [%s; %s]; want %s" % (
            str(want), str(want + extra),
            str(want)))

    # a kernel vector that fails verification: its first failure is named
    monkeypatch.setattr(acceptance, "search_singular", true_search)
    monkeypatch.setattr(acceptance, "verify_singular", lambda spec_, v, params=None: (
        true_verify(spec_, v + extra, params=params)))
    report = true_verify(spec, want + extra, params=free)
    assert not report.ok and report.failures
    assert acceptance.criterion_centerless() == (
        False, "kappa=0, level 1: %d failures; first %s" % (
            len(report.failures), cli._failure_text(report.failures[0])))

    # a kernel away from kappa = 0: its dimension is named
    monkeypatch.setattr(acceptance, "verify_singular", true_verify)
    monkeypatch.setattr(acceptance, "search_singular", lambda spec_, p, params=None: (
        true_search(spec_, p, params={**params, "kappa": 0})))
    assert acceptance.criterion_centerless() == (
        False, "kappa=1, level 1: kernel of dimension 1, want 0")


# --- failure writers, fed crafted failures through the names the handlers read

def test_jacobi_failure_text_and_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "jacobi_check", lambda spec: [
        (Gen("D"), Gen("H"), Gen("C"), GenCombo.of(Gen("H"), 3))])
    assert invoke(capsys, "algebra", "jacobi", *D1_FLAGS) == (
        1, "jacobi: FAIL (1 triples)\n  [[D,H],C]-cycle residue: 3*H\n", "")
    code, out, err = invoke(capsys, "algebra", "jacobi", *D1_FLAGS, "--render", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "failures": [
        {"x": "D", "y": "H", "z": "C", "residual": [{"gen": "H", "coef": "3"}]}]}


def test_rep_check_failure_text_and_json(capsys, monkeypatch):
    residual = parse_diffop("3*x0*d/dt", chart(D1))
    monkeypatch.setattr(cgk.reps, "rep_check", lambda spec, side="left", params=None: [
        (Gen("H"), Gen("D"), residual)])
    assert invoke(capsys, "reps", "check", *D1_FLAGS) == (
        1, "rep check (left): FAIL\n  [H, D] residual: 3*x0*d/dt\n", "")
    code, out, err = invoke(capsys, "reps", "check", *D1_FLAGS, "--render", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"side": "left", "ok": False, "failures": [
        {"x": "H", "y": "D", "residual": [{"coef": "3*x0", "partials": {"t": 1}}]}]}


def test_pde_check_names_the_failing_residual(capsys, monkeypatch):
    residual = parse_diffop("3*x0*d/dt", chart(D1))
    monkeypatch.setattr(cgk.invariants, "intertwining_check", lambda spec, q, params=None: [
        (Gen("H"), residual)])
    code, out, err = invoke(capsys, "pde", "check", *D1_FLAGS, "--q", "1",
                            "--delta", "auto")
    assert (code, err) == (1, "")
    passing = [{"gen": g, "ok": True} for g in ("C", "P1", "D", "M")]
    assert json.loads(out) == {"q": 1, "delta": "-1/2", "ok": False, "generators": [
        *passing, {"gen": "H", "ok": False,
                   "residual": [{"coef": "3*x0", "partials": {"t": 1}}]},
        {"gen": "P0", "ok": True}]}


def test_singular_verify_writes_each_failure_payload(capsys, monkeypatch):
    argv = ["singular", "verify", *D1_FLAGS, "--q", "1", "--delta", "auto"]
    true_verify = cli.verify_singular

    # a wrong expected weight: a Scalar payload, and a generator that is
    # not diagonal on the vector
    def misweighed(spec, v, params=None, expect_weight=None):
        eigen = {**expect_weight.eigen, Gen("D"): expect_weight[Gen("D")] + 1,
                 Gen("P", 1): 0}
        return true_verify(spec, v, params=params, expect_weight=Weight(eigen))

    monkeypatch.setattr(cli, "verify_singular", misweighed)
    assert invoke(capsys, *argv) == (
        1, "verify: FAIL\n  weight D: -1\n  weight P1: not diagonal\n", "")
    code, out, err = invoke(capsys, *argv, "--render", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"q": 1, "ok": False, "weight": {"D": "5/2", "M": "-mu"},
                               "failures": [
        {"kind": "weight", "generator": "D", "detail": "-1"},
        {"kind": "weight", "generator": "P1", "detail": "not diagonal"}]}

    monkeypatch.setattr(cli, "verify_singular", lambda spec, v, params=None, **_: (
        true_verify(spec, ModuleVector.zero(), params=params)))
    assert invoke(capsys, *argv) == (1, "verify: FAIL\n  candidate vector is zero\n", "")
    code, out, err = invoke(capsys, *argv, "--render", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"q": 1, "ok": False, "weight": None, "failures": [
        {"kind": "degenerate", "detail": "candidate vector is zero"}]}


def _scaling_off_by_one(monkeypatch):
    true_verify = cli.verify_singular

    def shifted(spec, v, params=None, expect_weight=None):
        report = true_verify(spec, v, params=params, expect_weight=expect_weight)
        eigen = {**report.weight.eigen, Gen("D"): report.weight[Gen("D")] + 1}
        return SingularReport(report.vector, Weight(eigen), report.failures)

    monkeypatch.setattr(acceptance, "verify_singular", shifted)
    return "singular-annihilation", "scaling eigenvalue is not 2q - delta"


def _vanishing_residual(monkeypatch):
    true_residual = cgk.invariants.intertwining_residual

    def vanishing(*args):
        residual = true_residual(*args)
        return residual - residual

    monkeypatch.setattr(cgk.invariants, "intertwining_residual", vanishing)
    return "intertwining-identity", "symbolic residual vanishes"


def _indivisible_residual(monkeypatch):
    monkeypatch.setattr(cgk.invariants, "divisible_by_condition", lambda residual, cond: False)
    return "intertwining-identity", "residual not divisible by condition"


@pytest.mark.parametrize("corrupt", [
    _scaling_off_by_one, _vanishing_residual, _indivisible_residual])
def test_selftest_names_the_failing_case(capsys, monkeypatch, corrupt):
    monkeypatch.setenv("CGK_CAPS_LEVEL", "0")
    code, passing, _ = invoke(capsys, "selftest")
    assert code == 0
    name, reason = corrupt(monkeypatch)
    detail = "AlgebraSpec(d=1, twoEll=1, ext='mass') q=1: " + reason
    lines = passing.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("[PASS] %s:" % name))
    lines[index] = "[FAIL] %s: %s\n" % (name, detail)
    lines[-1] = "selftest: FAIL\n"
    assert invoke(capsys, "selftest") == (1, "".join(lines), "")
    code, out, err = invoke(capsys, "selftest", "--render", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["ok"] is False
    failed = [(c["name"], c["detail"]) for c in payload["criteria"] if not c["ok"]]
    assert failed == [(name, detail)]
