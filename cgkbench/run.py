"""Benchmark of cgk: one workload per run, fixed work, medians of samples.

Run from the repository root:

    python3 cgkbench/run.py --workload intertwine --seed 1 --seconds 30 --trace 0

Each run builds the workload's cases from ``--seed``, runs one untimed
warm-up pass, then repeats whole passes over every case for ``--seconds``
seconds.  Each case is timed on its own after ``gc.collect()`` and scaled
to reference seconds by the calibration kernel timed around it
(``calibrate.py``).  A case's figure is the median of its samples and
``wall_s`` is the sum of those medians, so a burst of contention from
other processes lands in a few samples and not in the figure.  Outputs
are then checked (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` half the time runs untraced
and half traced (``tracer.py``), and the JSON holds the per-layer
metrics.  ``--smoke`` runs small grids, one pass each, to exercise every
check quickly.  Results and spans go to ``.cgkbench/`` in the root.
"""

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".cgkbench")

MIN_SETUP_PROBES = 11     # set-up probes per run at least, median kept
MIN_PASSES = 3            # timed passes made however short --seconds is
PROBE_TIMEOUT_S = 60

# (metric, unit) of the untraced run, in BENCHMARK.json's order.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("top_case_s", "s"),
              ("peak_rss_mb", "MB"))

# Per-layer metrics of the traced run: (wrapped name, field, unit).
PER_LAYER = (
    ("scalars.Scalar", "calls", "count"),
    ("scalars.Scalar", "self_s", "s"),
    ("scalars.poly_gcd", "calls", "count"),
    ("scalars.poly_gcd", "self_s", "s"),
    ("scalars.poly_div_exact", "calls", "count"),
    ("algebra.bracket", "calls", "count"),
    ("algebra.bracket", "self_s", "s"),
    ("verma.act_generic", "calls", "count"),
    ("verma.act_generic", "self_s", "s"),
    ("verma.act_closed_form", "self_s", "s"),
    ("verma.level_basis", "self_s", "s"),
    ("singular.search_singular", "self_s", "s"),
    ("singular.singular_closed", "self_s", "s"),
    ("singular.verify_singular", "self_s", "s"),
    ("diffop.compose", "calls", "count"),
    ("diffop.compose", "self_s", "s"),
    ("diffop.compose", "out_terms", "count"),
    ("reps.left_action", "calls", "count"),
    ("reps.left_action", "self_s", "s"),
    ("reps.rep_check", "self_s", "s"),
    ("invariants.invariant_operator", "calls", "count"),
    ("invariants.invariant_operator", "self_s", "s"),
    ("invariants.intertwining_check", "self_s", "s"),
    ("cli.run", "self_s", "s"),
)


def _require_source():
    """Stop with an error and no result unless the cgk sources are present."""
    if not os.path.isfile(os.path.join(SRC, "cgk", "__init__.py")):
        sys.exit("cgkbench: no cgk sources at %s; run from a repository "
                 "checkout" % SRC)
    sys.path.insert(1, SRC)
    import cgk
    if not os.path.abspath(cgk.__file__).startswith(SRC + os.sep):
        sys.exit("cgkbench: imported cgk from %s, not from %s" % (cgk.__file__, SRC))


def _probe_setup(args):
    """Set-up time of one fresh interpreter, in reference seconds."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
           args.workload, str(args.seed)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes over the cases and keeps per-case samples.

    Each sample is the case's time divided by the calibration kernel's
    time measured just before and just after it, times the kernel's
    reference time: reference seconds (``calibrate.py``).  ``raw`` keeps
    the plain seconds for the detail file.
    """

    def __init__(self, cases):
        self.cases = cases
        self.samples = {c.name: [] for c in cases}
        self.raw = {c.name: [] for c in cases}
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []           # tracebacks of failed operations (first few)
        self.unstable = set()      # cases whose output changed between passes

    def run_pass(self, record=True):
        before = calibrate.kernel_seconds()
        kernel_times = [before]
        for case in self.cases:
            self.attempted += case.ops
            gc.collect()
            start = time.perf_counter()
            try:
                out = case.run()
            except Exception:  # a failed operation is counted, not fatal
                self.failed += case.ops
                if len(self.errors) < 3:
                    self.errors.append("%s: %s" % (case.name, traceback.format_exc()))
                continue
            elapsed = time.perf_counter() - start
            after = calibrate.kernel_seconds()
            kernel_times.append(after)
            speed = (before + after) / 2.0
            before = after
            if case.name not in self.reference:
                self.reference[case.name] = out
            elif out != self.reference[case.name]:
                self.unstable.add(case.name)
            if record:
                self.samples[case.name].append(elapsed / speed * calibrate.REFERENCE_S)
                self.raw[case.name].append(elapsed)
        self.pass_speed = statistics.median(kernel_times)

    def run_for(self, seconds, min_passes, between=None):
        """Whole passes until ``seconds`` have gone by, calling ``between``
        after each; returns the count."""
        start = time.perf_counter()
        passes = 0
        while passes < min_passes or time.perf_counter() - start < seconds:
            self.run_pass()
            passes += 1
            if between is not None:
                between()
        return passes

    def medians(self, raw=False):
        samples = self.raw if raw else self.samples
        return {name: statistics.median(s) for name, s in samples.items() if s}

    def clear_samples(self):
        for s in list(self.samples.values()) + list(self.raw.values()):
            s.clear()


def _wall(medians):
    return sum(medians.values())


def _timed(args, workloads, cases):
    """Timed passes, with one set-up probe after each pass, so that the
    probes are spread over the run like the samples (the first probe only
    warms the bytecode cache)."""
    _probe_setup(args)
    setup = []
    runner = Runner(cases)
    runner.run_pass(record=False)
    passes = runner.run_for(args.seconds, 1 if args.smoke else MIN_PASSES,
                            between=lambda: setup.append(_probe_setup(args)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(_probe_setup(args))
    medians = runner.medians()
    top = workloads.TOP_CASE[args.workload]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": _wall(medians),
        # the smoke grids lack the full grid's top case: take their slowest
        "top_case_s": medians[top] if top in medians else max(medians.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"passes": passes, "case_median_s": medians, "setup_probes_s": setup,
              "raw_wall_s": _wall(runner.medians(raw=True)),
              "case_samples_s": runner.samples, "case_raw_samples_s": runner.raw}
    return runner, {name: (metrics[name], unit) for name, unit in END_TO_END}, detail


def _traced(args, workloads, cases):
    """Half the time untraced, half traced; per-layer figures per pass.

    Self times are scaled to reference seconds by the pass's median
    kernel time, like the end-to-end figures; counts are exact.
    """
    from tracer import Tracer

    half = args.seconds / 2.0
    min_passes = 1 if args.smoke else MIN_PASSES
    runner = Runner(cases)
    runner.run_pass(record=False)
    runner.run_for(half, min_passes)
    untraced = _wall(runner.medians())
    runner.clear_samples()
    tracer = Tracer(callers=[workloads])
    runner.cases = [dataclasses.replace(c, run=tracer.wrap_case(c.name, c.run))
                    for c in cases]
    per_pass = []
    tracer.install()
    try:
        start = time.perf_counter()
        while len(per_pass) < min_passes or time.perf_counter() - start < half:
            tracer.reset()
            runner.run_pass()
            per_pass.append((tracer.stats, calibrate.REFERENCE_S / runner.pass_speed))
    finally:
        tracer.uninstall()
    traced = _wall(runner.medians())
    metrics = {}
    for name, fld, unit in PER_LAYER:
        values = [stats.get(name, {}).get(fld, 0) * (scale if unit == "s" else 1)
                  for stats, scale in per_pass]
        metrics["%s.%s" % (name, fld)] = (statistics.median_low(values), unit)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write_spans(path, {"workload": args.workload, "seed": args.seed,
                              "untraced_wall_s": untraced, "traced_wall_s": traced,
                              "note": "spans and raw stats of the last traced pass"})
    detail = {"traced_passes": len(per_pass), "untraced_wall_s": untraced,
              "traced_wall_s": traced, "spans_file": path}
    return runner, metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("intertwine", "module", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grids and one pass: a quick check run")
    return parser.parse_args(argv)


def run(argv=None):
    """Run one workload; returns the result object printed last."""
    args = parse_args(argv)
    _require_source()
    import workloads

    cases = workloads.build_cases(args.workload, args.seed, smoke=args.smoke)
    measure = _traced if args.trace else _timed
    runner, metrics, detail = measure(args, workloads, cases)

    # Operations that raised are counted in ``failed``; the checks judge
    # the outputs of the ones that did not.
    import checks
    failures = ["%s: output differs between passes" % name
                for name in sorted(runner.unstable)]
    done = [case for case in cases if case.name in runner.reference]
    try:
        failures += checks.check(args.workload, done, runner.reference, args.seed)
    except Exception:  # a check that crashes is a failed check
        failures.append("check crashed: %s" % traceback.format_exc())
    correct = not failures

    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    print("attempted %d operations, failed %d" % (runner.attempted, runner.failed))
    for error in runner.errors:
        print("FAILED OPERATION: %s" % error.rstrip())
    for failure in failures[:20]:
        print("FAILED CHECK: %s" % failure.rstrip())
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w", encoding="utf-8") as fh:
        json.dump(dict(detail, failures=failures, errors=runner.errors), fh,
                  indent=1, sort_keys=True)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    result = run(argv)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
