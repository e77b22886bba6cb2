"""Self-tests of the benchmark's own code.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLI = worker.import_fptkit()


def describe(ops: list[workloads.Op]) -> list:
    return [[op.name, op.argv, list(op.files)] for op in ops]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = describe(workloads.generate(name, 7))
                self.assertEqual(first, describe(workloads.generate(name, 7)))
                self.assertNotEqual(first, describe(workloads.generate(name, 8)))

    def test_scan_cusp_jobs_scans_the_scan_cusp_inputs(self):
        [one] = workloads.generate("scan_cusp", 3)
        jobs1, jobs2 = workloads.generate("scan_cusp_jobs", 3)
        self.assertEqual(jobs1.argv, one.argv)
        self.assertEqual(jobs2.argv, one.argv + ["--jobs", "2"])


class CheckerTest(unittest.TestCase):
    PRIMES = [2, 3, 5, 7, 11, 13]

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        op = workloads.Op("scan", ["scan", "x^2 + y^3", "--primes", "2,3,5,7,11,13", "--e-max", "2",
                                   "--csv", "{out}/scan.csv", "--json", "{out}/scan.json"],
                          check=None, files=("scan.csv", "scan.json"))
        self.out, _ = worker.run_op(CLI, op, self.dir.name)
        self.ctx = {"primes": self.PRIMES, "bad": set(), "fpt": workloads.cusp_fpt}

    def test_accepts_correct_scan(self):
        self.assertEqual(checks.check_scan(self.out, self.ctx), [])

    def test_rejects_corrupted_csv_digit(self):
        lines = self.out.files["scan.csv"].decode().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("7,"))
        fields = lines[row].split(",")
        fields[5] = fields[5][:-1] + str((int(fields[5][-1]) + 1) % 10)  # bracket_high
        lines[row] = ",".join(fields)
        self.out.files["scan.csv"] = ("\n".join(lines) + "\n").encode()
        self.assertTrue(checks.check_scan(self.out, self.ctx))

    def test_rejects_wrong_reduction_error_primes(self):
        self.ctx["bad"] = {3}
        self.assertTrue(checks.check_scan(self.out, self.ctx))

    def test_rejects_bracket_excluding_its_value(self):
        doc = json.loads(self.out.files["scan.json"])
        row = next(r for r in doc["rows"] if r["prime"] == 7)
        certs = [c for c in doc["certificates"] if c["prime"] == 7]
        self.assertEqual(checks.check_row(7, row, Fraction(5, 6), 2, certs), [])
        # nu(1) = 4 instead of 5 moves the bracket to (34/49, 5/7], below 5/6
        row["nu"] = [4, 34]
        row["bracket_low"], row["bracket_high"] = "34/49", "5/7"
        problems = checks.check_row(7, row, Fraction(5, 6), 2, certs)
        self.assertTrue(any("outside bracket" in p for p in problems), problems)

    def test_nu_invariant(self):
        self.assertEqual(checks.nu_problems(5, [3, 19]), [])
        self.assertTrue(checks.nu_problems(5, [3, 20]))
        self.assertTrue(checks.nu_problems(5, [3, 14]))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        tr = tracer.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 6.0]))
        inner = tr.wrap("toy.inner", lambda: None)
        outer = tr.wrap("toy.outer", lambda: (inner(), inner()))
        outer()
        self_t = tracer.self_times(tr.spans)
        by_name = {}
        for s in tr.spans:
            by_name.setdefault(s.name, []).append(self_t[id(s)])
        self.assertEqual(by_name["toy.outer"], [6.0 - 2.0 - 0.5])
        self.assertEqual(by_name["toy.inner"], [2.0, 0.5])

    def test_overlapping_children_count_once(self):
        parent = tracer.Span("p", None, 0.0)
        parent.end = 10.0
        spans = [parent]
        for start, end in ((1.0, 4.0), (3.0, 6.0)):
            child = tracer.Span("c", parent, start)
            child.end = end
            spans.append(child)
        self.assertEqual(tracer.self_times(spans)[id(parent)], 5.0)

    def test_patches_by_value_bindings_and_restores_them(self):
        import fptkit.cli
        import fptkit.thresholds

        original = fptkit.thresholds.truncate
        charge = fptkit.cli.TermBudget.charge
        tr = tracer.Tracer()
        with tr.installed():
            self.assertIsNot(fptkit.thresholds.truncate, original)
            self.assertIsNot(fptkit.cli.TermBudget.charge, charge)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(CLI.main(["bracket", "x^2+y^3", "-p", "5", "-e", "2"]), 0)
        self.assertIs(fptkit.thresholds.truncate, original)
        self.assertIs(fptkit.cli.TermBudget.charge, charge)
        m = tracer.layer_metrics(tr.spans)
        self.assertGreater(m["charp.multiplies"], 0)
        self.assertGreater(m["charp.terms_out"], 0)
        self.assertLessEqual(m["charp.terms_out"], m["charp.terms_charged"])
        self.assertGreater(m["charp.bracket_s"], 0)


if __name__ == "__main__":
    unittest.main()
