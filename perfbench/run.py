"""Benchmark of the socialrec CLI workbench.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 40 --trace 0

One closed-loop client, no extra threads: for each dataset seed of the
run's window it runs ``gen``, ``compare``, ``predict --method cf`` and
``predict --method snrs`` in order and checks every output, starting a new
cycle only if it can end within --seconds.

--trace 0 times each operation through the CLI entry point, calibrated for
machine speed by probe readings around it, and prints the end-to-end
metrics.  --trace 1 runs each operation twice, untraced and then
as a traced replica of the CLI path, and prints the per-layer metrics.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and
the environment record.  Spans and raw samples go to perfbench/out/.
"""

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Cap BLAS/OpenMP pools before numpy is imported; they read these at load.
for _var in THREAD_VARS:
    if not os.environ.get(_var, "").isdigit() or not 1 <= int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
SETUP_LAUNCHES = 9
TIMED_KINDS = ("setup", "gen", "compare", "predict_cf", "predict_snrs")
# Probe readings taken before and after each timed op; times are reported
# scaled to a machine on which one probe takes PROBE_REFERENCE_S.
PROBES = 3
PROBE_REFERENCE_S = 0.004
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

from workloads import WORKLOADS, Workload  # noqa: E402  (after the thread caps)

# Per-layer metric -> unit.  Span metrics (_s) are the summed self time of
# the spans with that name in one op, read from compare or gen ops unless the
# name says predict_op; the rest are counts or ratios from the op's public
# results.  cli.self_s is the untraced op wall minus the traced op's library
# spans; trace.overhead_s is the op's span count times the measured cost of
# one span, and trace.wall_ratio the traced op wall over the untraced one.
# Each metric is reported as the median over the ops it is read from.
LAYER_METRICS = {
    "datagen.graph_s": "s",
    "datagen.categories_s": "s",
    "datagen.seed_s": "s",
    "datagen.fill_s": "s",
    "datagen.edges": "count",
    "datagen.cells_propagated": "count",
    "datagen.cells_random": "count",
    "datagen.fill_reads": "count",
    "storage.save_s": "s",
    "storage.bytes": "bytes",
    "storage.load_s": "s",
    "evaluate.split_s": "s",
    "evaluate.report_s": "s",
    "evaluate.test_cells": "count",
    "cf.build_s": "s",
    "cf.pairs": "count",
    "cf.defined_ratio": "ratio",
    "cf.predict_s": "s",
    "cf.us_per_cell": "us",
    "cf.neighbors_per_cell": "count",
    "cf.fallback_ratio": "ratio",
    "cf.predict_op_build_s": "s",
    "snrs.learn_s": "s",
    "snrs.friend_tables": "count",
    "snrs.predict_s": "s",
    "snrs.us_per_cell": "us",
    "snrs.evidence_ratio": "ratio",
    "snrs.friends_per_cell": "count",
    "snrs.predict_op_learn_s": "s",
    "cli.self_s": "s",
    "cli.gen_self_s": "s",
    "cli.compare_self_s": "s",
    "cli.predict_cf_self_s": "s",
    "cli.predict_snrs_self_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_ratio": "ratio",
}
# Metric names of the predict ops' spans; the rest come from gen and compare.
PREDICT_OP_SPANS = {"storage.load": "storage.load_s",
                    "cf.build": "cf.predict_op_build_s",
                    "snrs.learn": "snrs.predict_op_learn_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on sys.path and import the program from it."""
    if not (SRC / "socialrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no socialrec sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import socialrec
    if SRC.resolve() not in Path(socialrec.__file__).resolve().parents:
        sys.exit(f"perfbench: imported socialrec from {socialrec.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "socialrec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: a reading of the machine's speed."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for k in range(20000):
        table[k % 997] = table.get(k % 997, 0) + k
    return time.perf_counter() - start


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


class Session:
    """One run: the op loop, failure accounting and the samples it collects."""

    def __init__(self, wl: Workload, run_seed: int, traced: bool, workdir: Path):
        import checks
        from tracing import Tracer, span_cost
        self.wl = wl
        self.workdir = workdir
        self.references = checks.load_references(wl) if run_seed == 0 else {}
        self.tracer = Tracer() if traced else None
        self.span_cost = span_cost() if traced else 0.0
        self.cycles = 0
        self.attempted = 0
        self.failures: list[str] = []  # labels of the ops that failed
        self.walls: dict[str, list[float]] = {}
        self.probes: dict[str, list[float]] = {}  # probe reading around each timed op
        self.layers: dict[str, list[float]] = {name: [] for name in LAYER_METRICS}
        # kind -> per-op (untraced wall, library self time, traced wall)
        self.accounting: dict[str, list[tuple[float, float, float]]] = {}

    def attempt(self, label: str, run, check):
        """Run one op and check its output; a raise or a mismatch is a failure.

        Returns run()'s result, or None if the op failed.
        """
        self.attempted += 1
        try:
            result = run()
            problems = check(result)
        except (Exception, SystemExit):
            problems = [traceback.format_exc(limit=-3).strip()]
        if problems:
            self.failures.append(label)
            print(f"FAILED {label}: {'; '.join(problems[:3])}", file=sys.stderr)
            return None
        return result

    @property
    def failed(self) -> int:
        return len(self.failures)

    def timed(self, kind: str, run):
        """Time run(), bracketed by probe readings; returns its result."""
        before = [probe() for _ in range(PROBES)]
        start = time.perf_counter()
        result = run()
        self.walls.setdefault(kind, []).append(time.perf_counter() - start)
        self.probes.setdefault(kind, []).append(
            median(before + [probe() for _ in range(PROBES)]))
        return result

    def launch(self) -> None:
        """One fresh interpreter that imports socialrec.cli: the set-up every
        CLI command pays before it does any work."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.timed("setup", lambda: subprocess.run(
            [sys.executable, "-c", "import socialrec.cli"], cwd=ROOT, env=env,
            check=True, stdout=subprocess.DEVNULL))

    def cycle(self, seed: int, index: int) -> None:
        import checks
        import ops
        wl, ref = self.wl, self.references.get(seed)
        base = self.workdir / f"cycle{index}"
        data, reports = base / "data", base / "reports"
        traced_data, traced_reports = base / "traced-data", base / "traced-reports"
        try:
            for kind in ops.OP_KINDS:
                label = f"{wl.name} seed {seed} {kind}"
                args = ops.cli_args(kind, wl, seed, data, reports)
                printed = self.attempt(
                    label, lambda: self.timed(kind, lambda: ops.run_cli(args)),
                    lambda out: checks.check_op(kind, wl, seed, ref, data, reports,
                                                out.strip()))
                if printed is None or self.tracer is None:
                    continue
                traced = self.attempt(
                    f"{label} (traced)",
                    lambda: ops.traced_op(self.tracer, kind, wl, seed, traced_data,
                                          traced_reports),
                    lambda r: checks.check_op(kind, wl, seed, ref, traced_data,
                                              traced_reports, r.get("line")))
                if traced is not None:
                    self.record_layers(kind, traced, self.walls[kind][-1])
        finally:
            shutil.rmtree(base, ignore_errors=True)
        self.cycles += 1

    def record_layers(self, kind: str, traced: dict, untraced_wall: float) -> None:
        op = self.tracer.n_ops - 1
        self_times = self.tracer.self_times(op)
        library = sum(t for name, t in self_times.items() if not name.startswith("cli."))
        values = {name: v for name, v in traced.items() if name in LAYER_METRICS}
        for span, t in self_times.items():
            if kind.startswith("predict_"):
                name = PREDICT_OP_SPANS.get(span)  # the one-cell predict span is not reported
            else:
                name = f"{span}_s" if not span.startswith("cli.") else None
            if name is not None:
                values[name] = t
        if kind == "compare":
            values["cf.us_per_cell"] = values["cf.predict_s"] / traced["cells"] * 1e6
            values["snrs.us_per_cell"] = values["snrs.predict_s"] / traced["cells"] * 1e6
        values["cli.self_s"] = values[f"cli.{kind}_self_s"] = untraced_wall - library
        values["trace.overhead_s"] = self.tracer.op_span_count(op) * self.span_cost
        values["trace.wall_ratio"] = traced["wall"] / untraced_wall
        for name, value in values.items():
            self.layers[name].append(value)
        self.accounting.setdefault(kind, []).append((untraced_wall, library, traced["wall"]))

    def accounting_lines(self) -> list[str]:
        """Per op kind: the untraced wall against library self time plus cli.self_s."""
        lines = []
        for kind, rows in self.accounting.items():
            wall, library, traced = (median(column) for column in zip(*rows))
            cli_self = median(self.layers[f"cli.{kind}_self_s"])
            lines.append(f"accounting {kind:<12} untraced {wall:.6g} s = library spans "
                         f"{library:.6g} + cli.self {cli_self:.6g} (residual of medians "
                         f"{wall - library - cli_self:+.2g}); traced wall {traced:.6g} s")
        return lines


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    import_program()
    env = environment()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR))
    session = Session(wl, args.seed, bool(args.trace), workdir)
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        # Set-up launches are spread evenly over the run, between cycles, so
        # their median sees the machine as the operations do.
        launches = [] if args.trace else [start + args.seconds * k / SETUP_LAUNCHES
                                          for k in range(SETUP_LAUNCHES)]
        seeds = wl.dataset_seeds(args.seed)
        longest = 0.0
        # Start a step only if one as long as the longest so far still ends
        # before the deadline, so a run lasts --seconds and not a cycle more.
        while session.cycles == 0 or time.perf_counter() + longest <= deadline:
            step = time.perf_counter()
            while launches and launches[0] <= step:
                launches.pop(0)
                session.launch()
            session.cycle(seeds[session.cycles % len(seeds)], session.cycles)
            longest = max(longest, time.perf_counter() - step)
        for _ in launches:
            session.launch()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = {}
    if args.trace:
        samples = session.layers
        units = LAYER_METRICS
    else:
        samples = {}
        for kind in TIMED_KINDS:
            walls = session.walls.get(kind, [])
            raw[f"{kind}_s"] = walls
            samples[f"{kind}_s"] = [wall * PROBE_REFERENCE_S / reading for wall, reading
                                    in zip(walls, session.probes.get(kind, []))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples["peak_rss_mb"] = [rss_mb]
        units = {name: "s" for name in samples} | {"peak_rss_mb": "MB"}

    metrics, table = {}, []
    for name, values in samples.items():
        value = median(values) if values else None
        tail = tail_percentile(values)
        metrics[name] = {"value": value, "unit": units[name]}
        tail_text = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "p-: <10 beyond any"
        shown = f"{value:.6g}" if value is not None else "n/a"
        wall_text = f"  raw wall median {median(raw[name]):.6g}" if raw.get(name) else ""
        table.append(f"{name:<28} {shown:>12} {units[name]:<6} n={len(values):<5} "
                     f"{tail_text}{wall_text}")
    fail_ratio = session.failed / session.attempted
    table.append(f"{'fail_ratio':<28} {fail_ratio:>12.6g} {'ratio':<6} "
                 f"n={session.attempted}")

    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "fail_ratio": fail_ratio, "samples": samples, "raw_walls": raw,
              "probes": session.probes,
              "spans": session.tracer.to_json() if session.tracer else []}
    out_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"cycles {session.cycles}  record {out_file.relative_to(ROOT)}")
    print("\n".join(table))
    if session.tracer:
        print("\n".join(session.accounting_lines()))
    print("environment " + json.dumps(env, sort_keys=True))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
