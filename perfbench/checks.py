"""Output checks for every operation, against recorded references where they exist.

A reference file per workload holds, for each dataset seed of the default
run (--seed 0), the SHA-256 of the three dataset CSVs, the summary values,
every detail cell's actual, pred_rounded and pred_real, and the line each
predict prints.  CSVs are parsed by column name, so added columns do not
break the check.  Seeds without a reference get the checks that need none:
the dataset validates and survives a save/load round trip byte for byte,
the summary recomputes from the detail rows, and every prediction is
finite, its rounded value within the rating scale and its real value
within what the method can produce.

Each check returns a list of problems; an empty list means the output is
correct.
"""

import csv
import gzip
import hashlib
import json
import math
import re
import shutil
from pathlib import Path

from socialrec.model import item_label, user_label
from socialrec.storage import load_dataset, save_dataset

from workloads import Workload

DATASET_FILES = ("relationships.csv", "ratings.csv", "categories.csv")
METHODS = ("cf", "snrs")
REAL_TOLERANCE = 1e-12
# Range of a real-valued prediction.  snrs predicts an expectation over the
# levels 0..5.  cf is unclamped by design (cf.predict_cf): the user's mean
# (0..5) plus a weighted mean of neighbours' deviations from their own means
# (-5..5), so it can leave 0..5, as it does on some paper-sized datasets.
PRED_RANGE = {"cf": (-5.0, 10.0), "snrs": (0.0, 5.0)}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_PREDICT_LINE = re.compile(r"^(cf|snrs) (U\d+) x (I\d+): (\S+) \(rounded (-?\d+)\)")


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json.gz"


def load_references(wl: Workload) -> dict[int, dict]:
    """Reference entries keyed by dataset seed; empty if none were recorded."""
    path = reference_path(wl)
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return {int(seed): entry for seed, entry in json.load(handle)["seeds"].items()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- dataset (gen) ----------------------------------------------------------

def check_dataset(data: Path, wl: Workload, ref: dict | None) -> list[str]:
    if ref is not None:
        return [f"{name} SHA-256 differs from the reference"
                for name in DATASET_FILES
                if sha256(data / name) != ref["dataset_sha256"][name]]
    dataset = load_dataset(data)  # raises if any file is malformed or invalid
    problems = []
    shape = (dataset.n_users, dataset.n_items, dataset.n_categories)
    if shape != (wl.users, wl.items, wl.categories):
        problems.append(f"dataset shape {shape} != {(wl.users, wl.items, wl.categories)}")
    if dataset.ratings.n_rated != wl.users * wl.items:
        problems.append(f"{dataset.ratings.n_rated} rated cells, generator promises "
                        f"a dense {wl.users}x{wl.items} table")
    resaved = data.with_name(data.name + "-resaved")
    try:
        save_dataset(dataset, resaved)
        problems += [f"{name} changes on a load/save round trip" for name in DATASET_FILES
                     if (data / name).read_bytes() != (resaved / name).read_bytes()]
    finally:
        shutil.rmtree(resaved, ignore_errors=True)
    return problems


# --- reports (compare) ------------------------------------------------------

def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def read_detail(path: Path) -> dict[str, dict[tuple[str, str], tuple[int, int, float]]]:
    """method -> (user, item) -> (actual, pred_rounded, pred_real)."""
    detail: dict[str, dict] = {}
    for row in read_csv(path):
        cells = detail.setdefault(row["method"], {})
        cells[(row["user"], row["item"])] = (
            int(row["actual"]), int(row["pred_rounded"]), float(row["pred_real"]))
    return detail


def check_reports(reports: Path, wl: Workload, ref: dict | None) -> list[str]:
    detail = read_detail(reports / "detail.csv")
    summary = {row["method"]: row for row in read_csv(reports / "summary.csv")}
    keys = [(user_label(u), item_label(i)) for u, i in wl.test_cells()]
    problems = []
    if sorted(detail) != sorted(METHODS) or sorted(summary) != sorted(METHODS):
        return [f"methods in detail {sorted(detail)} / summary {sorted(summary)} "
                f"!= {sorted(METHODS)}"]
    for method in METHODS:
        cells = detail[method]
        if sorted(cells) != sorted(keys):
            problems.append(f"{method}: detail rows do not cover the test rectangle")
            continue
        rows = [cells[k] for k in keys]
        low, high = PRED_RANGE[method]
        for key, (actual, rounded, real) in zip(keys, rows):
            if not (math.isfinite(real) and low <= real <= high and 0 <= rounded <= 5
                    and 0 <= actual <= 5):
                problems.append(f"{method} {key}: value out of range "
                                f"(actual {actual}, pred {real!r}, rounded {rounded})")
        n = len(rows)
        recomputed = {
            "n": n,
            "mae_rounded": sum(abs(r - a) for a, r, _ in rows) / n,
            "mae_real": sum(abs(p - a) for a, _, p in rows) / n,
            "accuracy_percent": 100.0 * sum(r == a for a, r, _ in rows) / n,
        }
        problems += _compare_summary(method, summary[method], recomputed, "detail rows")
        if ref is None:
            continue
        expected = ref["detail"][method]
        for k, key in enumerate(keys):
            actual, rounded, real = cells[key]
            if (actual != int(expected["actual"][k])
                    or rounded != int(expected["pred_rounded"][k])
                    or abs(real - expected["pred_real"][k]) > REAL_TOLERANCE):
                problems.append(f"{method} {key}: ({actual}, {rounded}, {real!r}) differs "
                                f"from the reference")
        problems += _compare_summary(method, summary[method], ref["summary"][method],
                                     "the reference")
    return problems


def _compare_summary(method: str, row: dict[str, str], expected: dict,
                     source: str) -> list[str]:
    problems = []
    if int(row["n"]) != expected["n"]:
        problems.append(f"{method} summary n={row['n']} != {expected['n']} from {source}")
    for column in ("mae_rounded", "mae_real", "accuracy_percent"):
        if abs(float(row[column]) - expected[column]) > REAL_TOLERANCE:
            problems.append(f"{method} summary {column}={row[column]} != "
                            f"{expected[column]!r} from {source}")
    return problems


# --- predict ----------------------------------------------------------------

def check_prediction(line: str, method: str, cell: tuple[int, int],
                     ref: dict | None) -> list[str]:
    if ref is not None:
        expected = ref["predict"][method]
        return [] if line == expected else [f"printed {line!r}, reference {expected!r}"]
    match = _PREDICT_LINE.match(line)
    if match is None:
        return [f"unparsable predict output {line!r}"]
    printed_method, user, item, value, rounded = match.groups()
    problems = []
    if (printed_method, user, item) != (method, user_label(cell[0]), item_label(cell[1])):
        problems.append(f"predict printed {printed_method} {user} x {item}")
    value, rounded = float(value), int(rounded)
    low, high = PRED_RANGE[method]
    # The value is printed to 4 decimals; rounding clamps to the rating scale.
    if not (math.isfinite(value) and low <= value <= high and 0 <= rounded <= 5
            and abs(min(max(value, 0.0), 5.0) - rounded) <= 0.5 + 5e-5):
        problems.append(f"predict value {value!r} (rounded {rounded}) out of range")
    return problems


def check_op(kind: str, wl: Workload, seed: int, ref: dict | None, data: Path,
             reports: Path, printed: str | None) -> list[str]:
    """Check the output of one op of a cycle: the dataset gen wrote, the reports
    compare wrote, or the line predict printed."""
    if kind == "gen":
        return check_dataset(data, wl, ref)
    if kind == "compare":
        return check_reports(reports, wl, ref)
    return check_prediction(printed, kind.removeprefix("predict_"), wl.predict_cell(seed), ref)


# --- recording --------------------------------------------------------------

def reference_entry(data: Path, reports: Path, wl: Workload,
                    predict_lines: dict[str, str]) -> dict:
    """The reference for one dataset seed, from outputs already checked by hand
    or by the reference-free checks."""
    detail = read_detail(reports / "detail.csv")
    summary = {row["method"]: row for row in read_csv(reports / "summary.csv")}
    keys = [(user_label(u), item_label(i)) for u, i in wl.test_cells()]
    return {
        "dataset_sha256": {name: sha256(data / name) for name in DATASET_FILES},
        "summary": {m: {"n": int(summary[m]["n"]),
                        **{c: float(summary[m][c]) for c in
                           ("mae_rounded", "mae_real", "accuracy_percent")}}
                    for m in METHODS},
        "detail": {m: {"actual": "".join(str(detail[m][k][0]) for k in keys),
                       "pred_rounded": "".join(str(detail[m][k][1]) for k in keys),
                       "pred_real": [detail[m][k][2] for k in keys]}
                   for m in METHODS},
        "predict": predict_lines,
    }
