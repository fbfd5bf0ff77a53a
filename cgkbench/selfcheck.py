"""Tests of the benchmark itself: smoke runs and fault injection.

Run from the repository root:

    python3 cgkbench/selfcheck.py

The smoke tests run every workload on its small grid, untraced and
traced, and require a correct result with every metric present.  The
fault-injection tests corrupt one output of a smoke pass (a flipped
operator coefficient, an altered closed-form action, a dropped caveat)
and require the workload's check to report it.  The file is not named
``test_*`` so that the package's test suite does not collect it.
"""

import json
import os
import sys
import unittest

import run

run._require_source()

import checks  # noqa: E402
import workloads  # noqa: E402
from cgk.singular import SearchResult  # noqa: E402
from cgk.verma import ModuleVector, PbwMonomial  # noqa: E402

SEED = 7


def smoke_outputs(workload):
    cases = workloads.build_cases(workload, SEED, smoke=True)
    return cases, {case.name: case.run() for case in cases}


class SmokeTest(unittest.TestCase):
    def run_smoke(self, workload, trace):
        result = run.run(["--workload", workload, "--seed", str(SEED),
                          "--seconds", "0", "--trace", str(trace), "--smoke"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_smoke(workload, 0)
                self.assertEqual([m for m, _ in run.END_TO_END], list(metrics))
                for name, _ in run.END_TO_END:
                    self.assertGreater(metrics[name]["value"], 0)

    def test_every_workload_traced(self):
        names = ["%s.%s" % (n, f) for n, f, _ in run.PER_LAYER] + ["trace.overhead_s"]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_smoke(workload, 1)
                self.assertEqual(names, list(metrics))
                compose = metrics["diffop.compose.calls"]["value"]
                gcds = metrics["scalars.poly_gcd.calls"]["value"]
                if workload == "intertwine":
                    self.assertGreater(compose, 0)
                    self.assertEqual(gcds, 0)
                else:
                    self.assertEqual(compose, 0)
                if workload == "search":
                    self.assertGreater(gcds, 0)


class FaultInjectionTest(unittest.TestCase):
    def assert_caught(self, workload, cases, outputs):
        self.assertNotEqual(checks.check(workload, cases, outputs, SEED), [])

    def test_clean_outputs_pass(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                cases, outputs = smoke_outputs(workload)
                self.assertEqual(checks.check(workload, cases, outputs, SEED), [])

    def test_flipped_operator_coefficient(self):
        cases, outputs = smoke_outputs("intertwine")
        name = "pde-emit d=2 twoEll=1 mass q=1"
        code, text = outputs[name]
        payload = json.loads(text)
        first = payload["operator"][0]
        first["coef"] = "-(%s)" % first["coef"]
        outputs[name] = (code, json.dumps(payload))
        self.assert_caught("intertwine", cases, outputs)

    def test_altered_closed_form_action(self):
        cases, outputs = smoke_outputs("module")
        name = "closed-vs-generic d=2 twoEll=1 mass level=1"
        pairs = list(outputs[name])
        closed, generic = pairs[0]
        extra = ModuleVector.of(PbwMonomial(0, (0,), (0,)))
        pairs[0] = (closed + extra, generic)
        outputs[name] = pairs
        self.assert_caught("module", cases, outputs)

    def test_dropped_caveat(self):
        cases, outputs = smoke_outputs("search")
        name = "search-symbolic d=2 twoEll=2 exotic q=1"
        found = outputs[name]
        kept = [c for c in found.caveats if "delta" not in str(c)]
        self.assertLess(len(kept), len(found.caveats))
        outputs[name] = SearchResult(found.vectors, kept)
        self.assert_caught("search", cases, outputs)


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
