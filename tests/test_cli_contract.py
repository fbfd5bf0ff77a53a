"""The exit-code contract of ``cgk`` on argv built from ``cli.COMMANDS``.

Each command gets its own flags, with values biased to valid ones so that
most calls reach a command's exit-0 path.  Every call must exit 0, 1 or 2
and print no traceback, a usage error must be one ``error:`` line, a JSON
report with an ``ok`` verdict must exit 0 when it is true and 1 otherwise,
and the leaf parse of ``cli._parse`` must agree with the whole parser tree.
"""

import contextlib
import io
import json
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from cgk import cli
from cgk.algebra import enumerate_generators, supported_specs
from cgk.singular import delta_at_condition
from cgk.verma import level_basis, required_parameters

SPECS = supported_specs(9)
ROWS = [(group, row) for group, (_, rows) in cli.COMMANDS.items() for row in rows]
PARAMS = frozenset(cli.PARAM_NAMES)
JUNK = ("x", "-1", "2.5", "")


def _one_in(draw, n):
    """True about once in n draws.  The test is against a middle value, as
    hypothesis draws the ends of a range more often."""
    return draw(st.integers(0, n - 1)) == n // 2


def _rare(draw, valid, junk=JUNK):
    """A valid value 19 times in 20, else a junk one."""
    return draw(st.sampled_from(junk)) if _one_in(draw, 20) else valid


def _family_value(draw, flag, spec):
    valid, junk = {
        "--d": (str(spec.d), ("0", "3", "x")),
        "--two-ell": (str(spec.twoEll), ("-1", "0", "2.5")),
        "--ext": (spec.ext, ("bogus",)),
    }[flag]
    return _rare(draw, valid, junk)


def _delta(draw, spec, auto):
    """'auto' where the command has --q, the root of some level, or a value
    off every root."""
    root = delta_at_condition(spec, draw(st.integers(1, 3)))
    choices = ["1/7", "-1/2"] + ["auto"] * 2 * auto + [str(root)] * (root is not None)
    return _rare(draw, draw(st.sampled_from(choices)), ("x", "1/0", "auto"))


def _value(draw, flag, options, spec, auto=False):
    """A value for one of a command's own flags."""
    if "choices" in options:
        return _rare(draw, draw(st.sampled_from(options["choices"])), ("bogus",))
    if flag == "--delta":
        return _delta(draw, spec, auto)
    if flag[2:] in PARAMS:
        return _rare(draw, draw(st.sampled_from(("1", "0", "2/3", "-3/4"))))
    if flag == "--gen":
        return _rare(draw, str(draw(st.sampled_from(enumerate_generators(spec)))),
                     ("Q9", "P99"))
    if flag == "--monomial":
        basis = level_basis(spec, draw(st.integers(0, 2)))
        mono = json.dumps(cli.monomial_to_json(draw(st.sampled_from(basis))))
        return _rare(draw, mono, ("not json", '{"h": -1}', "[1]", '{"h": 0, "bb": []}'))
    if flag == "--q":
        return _rare(draw, str(draw(st.integers(1, 3))), ("0", "-1", "x"))
    if flag == "--level":
        return _rare(draw, str(draw(st.integers(0, 3))), ("-1", "x"))
    if flag == "--weight":
        return _rare(draw, draw(st.sampled_from(('{"D": "-delta+2"}', '{"D": "-delta"}'))),
                     ('{"D": 2}', "[]", '{"D": "1", "D": "2"}'))
    raise AssertionError("no value strategy for %s" % flag)


@st.composite
def invocations(draw):
    group, (name, _, _, param_flags, arguments, renders) = draw(st.sampled_from(ROWS))
    spec = draw(st.sampled_from(SPECS))
    own = required_parameters(spec)
    auto = any(flag == "--q" for flag, _ in arguments)
    argv = [group, name]
    for flag, _ in cli._FAMILY:
        if not _one_in(draw, 40):
            argv += [flag, _family_value(draw, flag, spec)]
    for flag, options in param_flags + arguments:
        if options.get("required"):
            wanted = not _one_in(draw, 40)
        elif flag[2:] in PARAMS and flag[2:] not in own:
            wanted = _one_in(draw, 20)
        else:
            wanted = draw(st.booleans())
        if wanted:
            argv += [flag, _value(draw, flag, options, spec, auto)]
    if renders and draw(st.booleans()):
        argv += ["--render", _value(draw, "--render", {"choices": renders}, spec)]
    if _one_in(draw, 40):
        argv.append(draw(st.sampled_from(("--bogus", "extra", "--", "--help"))))
    return argv


def _outcome(parse, argv):
    """What a parse gives: its namespace, or its exit code; and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


CODES = Counter()


def _assert_contract(argv):
    """The contract on one argv.  It lives outside ``_check_contract``:
    ``derandomize`` seeds hypothesis from the source of the decorated
    function, so an edit here redraws no argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert [line for line in err.splitlines() if "error: " in line] == [
            err.splitlines()[-1]], argv
    # a report with a verdict exits 0 when it holds and 1 when it does not
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = None
    if isinstance(report, dict) and "ok" in report:
        assert code == (0 if report["ok"] is True else 1), (argv, code)
    joined = cli._joined_params(argv)
    assert _outcome(cli._parse, joined) == _outcome(cli.build_parser().parse_args, joined)
    CODES[code] += 1


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(invocations())
def _check_contract(argv):
    _assert_contract(argv)


def test_exit_code_contract(monkeypatch, record_property):
    monkeypatch.delenv("CGK_CAPS_LEVEL", raising=False)
    CODES.clear()
    _check_contract()
    share = CODES[0] / sum(CODES.values())
    record_property("exit_0_share", round(share, 3))
    print("exit codes %s; exit 0 share %.2f" % (dict(sorted(CODES.items())), share))
    # most calls reach a command's success path, not a usage error
    assert share > 0.5, CODES
