#!/usr/bin/env python3
"""Self-tests of the benchmark's answer checks and input generation.

    python3 perfbench/selftest.py        (from the root of a checkout)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import iqcl.cli  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from iqcl.syntax import parse  # noqa: E402


def _machine(**fields) -> str:
    return "".join(f"{k.replace('__', '.')}={v}\n" for k, v in fields.items())


class WrongAnswersFail(unittest.TestCase):
    def test_relevance_off_by_an_eighth(self):
        check = W._expect_relevance(0.5)
        self.assertIsNone(check(0, _machine(value="1/2", status="feasible", evaluations=9)))
        self.assertIsNotNone(check(0, _machine(value="5/8", status="feasible", evaluations=9)))
        self.assertIsNotNone(check(0, _machine(value="1/2", status="infeasible", evaluations=9)))
        self.assertIsNotNone(W._expect_relevance(None)(0, _machine(value="1", status="feasible")))

    def test_corrupted_proof_reported_ok(self):
        self.assertIsNotNone(W._expect_proof(False, lambda: 3)(0, _machine(verdict="ok", steps=3)))
        self.assertIsNone(W._expect_proof(False, lambda: 3)(1, _machine(verdict="rejected", reason="x")))
        self.assertIsNotNone(W._expect_proof(True, lambda: 3)(1, _machine(verdict="rejected", reason="x")))

    def test_counterexample_that_is_a_model_of_the_formula(self):
        check = W._expect_counterexample(parse("p -> q"))
        real = _machine(verdict="counterexample", model__p__u=1, model__p__w="1/2",
                        model__q__u=0, model__q__w="1/2")
        fake = _machine(verdict="counterexample", model__p__u=0, model__p__w="1/2",
                        model__q__u=0, model__q__w="1/2")
        self.assertIsNone(check(1, real))
        self.assertIsNotNone(check(1, fake))
        self.assertIsNotNone(check(0, real))

    def test_oracle_deviation_and_wrong_gate(self):
        self.assertIsNotNone(W._expect_prop34(10)(0, _machine(trials=10, max_deviation="1e-09")))
        self.assertIsNone(W._expect_prop34(10)(0, _machine(trials=10, max_deviation="0.0")))
        check = W._expect_gate("iand", [(0.0, 0.0, 0.0), (0.0, 0.0, -1.0)])
        self.assertIsNone(check(0, _machine(probability=0.5, bloch="(0.0, 0.0, 0.0)")))
        self.assertIsNotNone(check(0, _machine(probability=0.625, bloch="(0.0, 0.0, -0.25)")))

    def test_wrong_expectation_counts_as_failed_operation(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            thy = Path(tmp) / "t.thy"
            thy.write_text("1/2 -> p\n")
            argv = ["relevance", str(thy), "p", "--format", "machine"]
            right = run.execute(iqcl.cli, W.Op("relevance", W._expect_relevance(0.5), argv=argv))
            wrong = run.execute(iqcl.cli, W.Op("relevance", W._expect_relevance(0.625), argv=argv))
        self.assertIsNone(right.failure)
        self.assertIsNotNone(wrong.failure)


class SpeedScaling(unittest.TestCase):
    def test_scale_uses_the_kernel_times_near_the_interval(self):
        clock = run.SpeedClock()
        clock.times = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
        clock.kernel_s = [run.KERNEL_REF_S] * 3 + [2 * run.KERNEL_REF_S] * 3
        self.assertEqual(clock.scale(0.05, 0.15), 1.0)  # a fast spell: wall time stands
        self.assertEqual(clock.scale(5.05, 5.15), 0.5)  # a slow spell: wall time is halved

    def test_incorrect_run_exits_non_zero(self):
        def wrong_ops(rng, files, wl):
            thy = files.write("thy", "1/2 -> p\n")
            argv = ["relevance", thy, "p", "--format", "machine"]
            return [W.Op("relevance", W._expect_relevance(0.625), argv=argv)]

        out = io.StringIO()
        with mock.patch.dict(W.WORKLOADS, {"wrong": W.Spec(wrong_ops, 50.0, 2)}), \
                mock.patch.object(run, "_setup_samples", lambda *args: ([0.1], [0.1])), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "wrong", "--seed", "1", "--seconds", "0", "--trace", "0"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 2, 2))


class Inputs(unittest.TestCase):
    def test_seeds_change_inputs_but_not_class_counts(self):
        for name in W.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=ROOT) as a, tempfile.TemporaryDirectory(dir=ROOT) as b:
                one, two = W.build(name, 1, Path(a)), W.build(name, 2, Path(b))
                self.assertEqual(one.class_counts(), two.class_counts(), name)
                self.assertEqual(len(one.ops), len(two.ops), name)
                first = [op.argv[1:] for op in one.ops if op.argv]
                second = [op.argv[1:] for op in two.ops if op.argv]
                if name == "proof-roundtrip":  # inputs live in the generated files
                    first = [Path(a, f).read_text() for f in sorted(p.name for p in Path(a).iterdir())]
                    second = [Path(b, f).read_text() for f in sorted(p.name for p in Path(b).iterdir())]
                self.assertNotEqual(first, second, name)

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as a, tempfile.TemporaryDirectory(dir=ROOT) as b:
            one, two = W.build("taut-session", 7, Path(a)), W.build("taut-session", 7, Path(b))
            strip = lambda argv: [x.replace(a, "").replace(b, "") for x in argv]
            self.assertEqual([strip(op.argv) for op in one.ops], [strip(op.argv) for op in two.ops])

    def test_known_defect_rows_stay_in_the_corpus(self):
        rows = W.relevance_rows(__import__("random").Random(0))
        keys = {(theory[0] if theory else "", formula) for theory, formula, _ in rows}
        self.assertTrue(set(W.KNOWN_WRONG_RELEVANCE) <= keys)
        irrational = [v for theory, f, v in rows if f == "?q + r"]
        self.assertTrue(math.isclose(irrational[0], (2 - math.sqrt(3)) / 4))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "oracle-sim", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
