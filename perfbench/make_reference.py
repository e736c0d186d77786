"""Record the reference outputs that run.py checks the default seed window against.

    python3 perfbench/make_reference.py [workload ...]

Runs gen, compare and both predicts through the CLI for every dataset seed
of the --seed 0 window, applies the reference-free checks, and writes
perfbench/reference/<workload>.json.gz.  Re-record only when a change to the
program's results is intended, and say so in the change.
"""

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import WORK_DIR, import_program
from workloads import WORKLOADS


def record(name: str) -> None:
    import checks
    import ops
    wl = WORKLOADS[name]
    seeds = {}
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=WORK_DIR))
    try:
        for seed in wl.dataset_seeds(0):
            base = workdir / str(seed)
            data, reports = base / "data", base / "reports"
            lines = {}
            for kind in ops.OP_KINDS:
                lines[kind] = ops.run_cli(ops.cli_args(kind, wl, seed, data, reports)).strip()
            problems = [problem for kind in ops.OP_KINDS for problem in
                        checks.check_op(kind, wl, seed, None, data, reports, lines[kind])]
            if problems:
                sys.exit(f"{name} seed {seed}: {problems[:3]}")
            seeds[str(seed)] = checks.reference_entry(
                data, reports, wl, {"cf": lines["predict_cf"], "snrs": lines["predict_snrs"]})
            print(f"{name} seed {seed}: {lines['predict_cf']} | {lines['predict_snrs']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = checks.reference_path(wl)
    path.parent.mkdir(exist_ok=True)
    payload = json.dumps({"workload": name, "run_seed": 0, "seeds": seeds})
    # mtime=0 keeps the file byte-identical when the outputs are.
    path.write_bytes(gzip.compress(payload.encode("utf-8"), mtime=0))
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    import_program()
    for workload in sys.argv[1:] or list(WORKLOADS):
        record(workload)
