"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that relabelling keeps the closed-form answers, that stdout is
byte-identical with tracing on and off, that a wrong expectation is counted
as a failed job, that host-speed scaling leaves times alone on a nominal host
and scales them by the kernel's nearby samples, and that the benchmark
refuses to run without the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import JobSpec, act, check, cyc, make_job, pr, unit  # noqa: E402

SMALL = [
    JobSpec("homology", (cyc(3),), 3),
    JobSpec("homology", (pr(3),), 3),
    JobSpec("homology", (act(4, 1, 0),), 3),
    JobSpec("homology", (act(6, 1, 0, 3, 2, 5, 4),), 2),
    JobSpec("homology", (cyc(4),), 3, "z^1+z/2"),
    JobSpec("uct", (cyc(4),), 3, "z/4"),
]
UNION = JobSpec("mv", (cyc(2), unit(), cyc(3)), 3)


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_package()
        cls.work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def job(self, spec: JobSpec, seed: int, name: str = "g.json"):
        return make_job(spec, random.Random(seed), self.work / name)

    def test_relabelling_keeps_the_closed_form(self):
        for spec in SMALL + [UNION]:
            files = set()
            for seed in range(4):
                job = self.job(spec, seed)
                files.add((self.work / "g.json").read_text())
                _, code, stdout = run.run_job(self.cli, job.argv)
                self.assertIsNone(check(job, code, stdout), f"{spec.label} seed {seed}")
            self.assertGreater(len(files), 1, f"{spec.label}: seeds gave one labelling")

    def test_stdout_identical_with_tracing_on_and_off(self):
        tracer = Tracer(run.PACKAGE)
        original = self.cli.main
        for spec in SMALL + [UNION]:
            job = self.job(spec, 7)
            plain = run.run_job(self.cli, job.argv)[1:]
            tracer.install()
            try:
                traced = run.run_job(self.cli, job.argv)[1:]
            finally:
                tracer.uninstall()
            self.assertEqual(plain, traced, spec.label)
        self.assertIs(self.cli.main, original)
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"cli.main", "matrix.matmul", "mv.connecting"} <= names)

    def test_wrong_expectation_is_a_failure(self):
        good = self.job(SMALL[0], 1, "a.json")
        bad = self.job(SMALL[0], 2, "b.json")
        bad.expected = [bad.expected[1], bad.expected[0], bad.expected[2]]
        out = io.StringIO()
        args = argparse.Namespace(workload="selftest", seed=0, seconds=1, trace=0)
        with contextlib.redirect_stdout(out):
            run.measure(args, self.cli, [good, bad], [(0.0, 0.0)])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] * 2, result["attempted"])

    def test_host_speed_scaling(self):
        nominal = hostspeed.NOMINAL_S
        self.assertEqual(hostspeed.scaled([0.5, 2.0], [nominal] * 3), [0.5, 2.0])
        self.assertEqual(hostspeed.scaled([0.5, 2.0], [2 * nominal] * 3), [0.25, 1.0])
        # a slow sample after the last job moves only the jobs within WINDOW of it
        times = hostspeed.scaled([1.0] * 6, [nominal] * 6 + [2 * nominal])
        self.assertEqual(times[:6 - hostspeed.WINDOW], [1.0] * (6 - hostspeed.WINDOW))
        self.assertLess(times[-1], 1.0)
        self.assertGreater(hostspeed.sample(), 0)

    def test_refuses_to_run_without_the_program(self):
        bare = self.work / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mv-cover",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
