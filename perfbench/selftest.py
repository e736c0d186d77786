"""Self-test of the benchmark: altered outputs count as failed ops, and every
workload runs end to end in both modes with the metrics BENCHMARK.json names.

    python3 perfbench/selftest.py

Takes about a minute: the smoke runs one cycle of each workload per mode.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS

run.import_program()

import ops  # noqa: E402  (needs the program on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tamper_after(kind: str, alter):
    """A stand-in for ops.run_cli that alters the output of one op kind."""
    real = ops.run_cli

    def run_cli(args):
        out = real(args)
        if args[0] == kind or (args[0] == "predict" and f"predict_{args[4]}" == kind):
            out = alter(args, out)
        return out
    return run_cli


def alter_detail_row(args, out):
    detail = Path(args[args.index("--out") + 1]) / "detail.csv"
    lines = detail.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-9)  # pred_real of the first cf row
    lines[1] = ",".join(fields)
    detail.write_text("".join(lines), encoding="utf-8")
    return out


def alter_dataset_byte(args, out):
    ratings = Path(args[args.index("--out") + 1]) / "ratings.csv"
    data = bytearray(ratings.read_bytes())
    last = len(data) - 2  # the last row's rating digit, before the newline
    data[last] = ord("0") + (data[last] - ord("0") + 1) % 6
    ratings.write_bytes(bytes(data))
    return out


def alter_printed_value(args, out):
    return out.replace("(rounded ", "(rounded 1", 1)


class TamperTest(unittest.TestCase):
    """One altered output makes exactly the op that produced it fail."""

    def cycle(self, run_seed: int, kind: str | None = None, alter=None) -> run.Session:
        workdir = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        self.addCleanup(shutil.rmtree, workdir, True)
        session = run.Session(WORKLOADS["paper"], run_seed, traced=False, workdir=workdir)
        if kind is not None:
            original = ops.run_cli
            ops.run_cli = tamper_after(kind, alter)
            self.addCleanup(setattr, ops, "run_cli", original)
        seed = WORKLOADS["paper"].dataset_seeds(run_seed)[0]
        with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
            session.cycle(seed, 0)
        return session

    def assert_failed(self, session: run.Session, kinds: list[str]) -> None:
        self.assertEqual(session.attempted, 4)
        self.assertEqual([label.rsplit(" ", 1)[1] for label in session.failures], kinds)

    def test_untampered_cycles_pass(self):
        for run_seed in (0, 1):  # with and without a recorded reference
            self.assert_failed(self.cycle(run_seed), [])

    def test_detail_row_against_reference(self):
        self.assert_failed(self.cycle(0, "compare", alter_detail_row), ["compare"])

    def test_detail_row_without_reference(self):
        # Caught because the summary no longer recomputes from the detail rows.
        self.assert_failed(self.cycle(1, "compare", alter_detail_row), ["compare"])

    def test_dataset_byte_against_reference(self):
        session = self.cycle(0, "gen", alter_dataset_byte)
        self.assertEqual(session.failures[0].rsplit(" ", 1)[1], "gen")

    def test_printed_prediction(self):
        for run_seed in (0, 1):
            self.assert_failed(self.cycle(run_seed, "predict_snrs", alter_printed_value),
                               ["predict_snrs"])


class SmokeTest(unittest.TestCase):
    """One cycle of every workload in both modes, its result read back from stdout."""

    def bench(self, *args, cwd=run.ROOT):
        return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=300)

    def test_workloads(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for name in names:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = self.bench("--workload", name, "--seed", "0",
                                      "--seconds", "0", "--trace", str(trace))
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                                      "metrics"])
                    self.assertEqual((result["correct"], result["failed"]), (True, 0))
                    self.assertEqual(result["attempted"], 8 if trace else 4)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)

    def test_refuses_without_sources(self):
        bare = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        done = self.bench("--workload", "paper", "--seed", "0", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    run.WORK_DIR.mkdir(exist_ok=True)
    unittest.main()
