"""Self-tests of the benchmark's own code: python3 perfbench/selftest.py

They need no godelforest import: generation, the answer checks and the
percentile arithmetic are the benchmark's own.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_REPORT = {
    "n": 2, "exact_ruspini": True, "weak_ruspini": True, "two_overlapping": True,
    "axiom": "X1 | X2",
    "realized_leaves": [{"label": "0=X1<X2=1"}, {"label": "0=X2<X1=1"}],
    "checks": {name: {"direct": True, "forest": True, "proof": True}
               for name in ("weak_ruspini", "two_overlapping", "combined")},
}
_TRACEBACK = ('Traceback (most recent call last):\n  File "x.py", line 1\n'
              "RecursionError: maximum recursion depth exceeded\n")


class Generation(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in ("analyze", "decide", "cli"):
            first = gen.digest(gen.generate(workload, 7, ROOT))
            self.assertEqual(first, gen.digest(gen.generate(workload, 7, ROOT)), workload)
            self.assertNotEqual(first, gen.digest(gen.generate(workload, 8, ROOT)), workload)

    def test_strata_fixed_across_seeds(self):
        for workload in ("analyze", "decide", "cli"):
            cats = [sorted(r.get("cat", f"{r.get('n')}") for r in gen.generate(workload, s, ROOT))
                    for s in (1, 2)]
            self.assertEqual(cats[0], cats[1], workload)


class Checker(unittest.TestCase):
    def test_analyze_accepts_right_and_rejects_wrong_verdict(self):
        expect = dict(gen.DATA_VERDICTS["step_pair.json"])
        got = checks.verdicts_from_json(_REPORT)
        self.assertEqual(checks.check_verdicts(expect, got), [])
        wrong = copy.deepcopy(_REPORT)
        wrong["exact_ruspini"] = False
        self.assertTrue(checks.check_verdicts(expect, checks.verdicts_from_json(wrong)))
        split = copy.deepcopy(_REPORT)
        split["checks"]["combined"]["proof"] = False
        self.assertTrue(checks.check_verdicts(expect, checks.verdicts_from_json(split)))

    def test_decide_rejects_wrong_verdict_and_oracle_mismatch(self):
        req = {"expect": True}
        self.assertEqual(checks.check_decide(req, True, True), [])
        self.assertTrue(checks.check_decide(req, False, None))
        self.assertTrue(checks.check_decide({"expect": None}, True, False))

    def test_cli_rejects_wrong_line_and_traceback(self):
        req = {"expect": {"check": "line", "line": "tautology"}}
        self.assertEqual(checks.check_cli(req, 0, "tautology\n", "", ROOT), [])
        self.assertTrue(checks.check_cli(req, 0, "not a tautology\n", "", ROOT))
        self.assertTrue(checks.check_cli(req, 1, "", _TRACEBACK, ROOT))
        self.assertTrue(checks.check_cli(req, 0, "tautology\n", _TRACEBACK, ROOT))

    def test_probe_outcomes(self):
        def answer(out):
            return out.strip() == "tautology"

        self.assertEqual(probes.outcome(1, "", _TRACEBACK, answer, True), "crash")
        self.assertEqual(probes.outcome(1, "", "error: too deep\n", answer, True), "refused-ok")
        self.assertEqual(probes.outcome(1, "", "error: too deep\n", answer, False), "refused")
        self.assertEqual(probes.outcome(0, "tautology\n", "", answer, True), "answer")
        self.assertEqual(probes.outcome(0, "not a tautology\n", "", answer, True), "wrong")


class Percentiles(unittest.TestCase):
    def test_hand_computed(self):
        ten = [float(x) for x in range(10, 0, -1)]
        self.assertAlmostEqual(run.percentile(ten, 0.5), 5.5)
        self.assertAlmostEqual(run.percentile(ten, 0.9), 9.1)
        five = [40.0, 15.0, 50.0, 35.0, 20.0]
        self.assertAlmostEqual(run.percentile(five, 0.5), 35.0)
        self.assertAlmostEqual(run.percentile(five, 0.9), 46.0)  # 40 + 0.6 * (50 - 40)


class SpeedScale(unittest.TestCase):
    def test_scale_uses_neighbouring_slices(self):
        gauge = speed.Gauge(dataclasses.replace(speed.IN_PROCESS, warm_up=0))
        gauge.at = [float(t) for t in range(20)]
        gauge.took = [0.02] * 10 + [0.005] * 10  # slow first, twice the reference speed after
        ref = gauge.mode.reference_s
        self.assertAlmostEqual(gauge.scale(2.5, 3.5, 4), ref / 0.02)
        self.assertAlmostEqual(gauge.scale(15.5, 16.5, 4), ref / 0.005)
        # Between slices 9 and 10: the four slow ones before, four fast ones after.
        self.assertAlmostEqual(gauge.scale(9.2, 9.8, 4), ref / 0.0125)
        # A long request reads every slice it spans as well.
        self.assertAlmostEqual(gauge.scale(8.5, 18.5, 4), ref / 0.005)


if __name__ == "__main__":
    unittest.main()
