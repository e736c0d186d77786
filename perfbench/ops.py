"""The four operations of a cycle, run untraced through the CLI or traced.

Untraced operations call the CLI entry point in-process, exactly as a user's
``socialrec ...`` command would after start-up, and are timed as a whole.

Traced operations call the same public functions the CLI path calls, in the
same order, with a span around each call.  Counts are read from the public
results after the operation's root span has closed, so they cost no traced
time.  The replica has to follow the CLI path by hand: if ``cli.py`` or
``evaluate.run_comparison`` change the calls they make, update it here.
"""

import contextlib
import io
from pathlib import Path
from statistics import fmean

from socialrec.cf import CfConfig, CfPredictor, ColdStartError
from socialrec.cli import main as cli_main
from socialrec.datagen import (
    GenConfig,
    friend_weighted_fill_trace,
    generate_categories,
    generate_relationships,
    seed_ratings,
)
from socialrec.evaluate import (
    CellRecord,
    EvaluationReport,
    SplitSpec,
    split,
    write_detail_csv,
    write_summary_csv,
)
from socialrec.model import Dataset, RatingMatrix, item_label, round_rating, user_label
from socialrec.snrs import SnrsConfig, SnrsPredictor
from socialrec.storage import load_dataset, save_dataset

from tracing import Tracer
from workloads import Workload

OP_KINDS = ("gen", "compare", "predict_cf", "predict_snrs")


# --- untraced: the CLI entry point -----------------------------------------

def run_cli(args: list[str]) -> str:
    """Run one CLI command in-process and return its stdout.

    Click errors propagate as exceptions instead of exiting the process.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main.main(args, prog_name="socialrec", standalone_mode=False)
    return out.getvalue()


def cli_args(kind: str, wl: Workload, seed: int, data: Path, reports: Path) -> list[str]:
    if kind == "gen":
        return ["gen", *wl.gen_args(), "--seed", str(seed), "--out", str(data)]
    if kind == "compare":
        return ["compare", "--data", str(data), *wl.split_args(), "--out", str(reports)]
    u, i = wl.predict_cell(seed)
    method = kind.removeprefix("predict_")
    return ["predict", "--data", str(data), "--method", method,
            "--user", user_label(u), "--item", item_label(i)]


def prediction_line(method: str, u: int, i: int, value: float,
                    fallback: str | None = None) -> str:
    """The line ``socialrec predict`` prints for one prediction."""
    marker = f"  [fallback: {fallback}]" if fallback else ""
    return (f"{method} {user_label(u)} x {item_label(i)}: "
            f"{value:.4f} (rounded {round_rating(value)}){marker}")


# --- traced: the CLI path's public calls, one span each ---------------------

def gen_config(wl: Workload, seed: int) -> GenConfig:
    return GenConfig(n_users=wl.users, n_items=wl.items, n_categories=wl.categories,
                     edge_density=wl.edge_density, rng_seed=seed)


def split_spec(wl: Workload) -> SplitSpec:
    return SplitSpec(test_users=tuple(range(wl.test_users[0] - 1, wl.test_users[1])),
                     test_items=tuple(range(wl.test_items[0] - 1, wl.test_items[1])))


def traced_gen(tracer: Tracer, wl: Workload, seed: int, data: Path) -> dict:
    with tracer.op("cli.gen") as root:
        cfg = gen_config(wl, seed)
        with tracer.span("datagen.graph"):
            graph = generate_relationships(cfg)
        with tracer.span("datagen.categories"):
            categories = generate_categories(cfg)
        with tracer.span("datagen.seed"):
            seeded = seed_ratings(cfg)
        with tracer.span("datagen.fill"):
            ratings, events = friend_weighted_fill_trace(graph, seeded, cfg)
        dataset = Dataset(graph=graph, ratings=ratings, categories=categories)
        with tracer.span("storage.save"):
            save_dataset(dataset, data)
    return {
        "wall": root.duration,
        "datagen.edges": graph.n_edges,
        "datagen.cells_propagated": sum(e.source == "propagated" for e in events),
        "datagen.cells_random": sum(e.source == "random" for e in events),
        "datagen.fill_reads": sum(len(e.contributors) for e in events),
        "storage.bytes": sum(f.stat().st_size for f in data.iterdir()),
    }


def traced_compare(tracer: Tracer, wl: Workload, data: Path, reports: Path) -> dict:
    """Mirrors ``socialrec compare``: load, then run_comparison's two
    evaluate_method passes (each splits again), then both CSV writers."""
    with tracer.op("cli.compare") as root:
        with tracer.span("storage.load"):
            dataset = load_dataset(data)
        spec = split_spec(wl)

        with tracer.span("evaluate.split"):
            train, test = split(dataset, spec)
        with tracer.span("cf.build"):
            cf = CfPredictor(train, CfConfig())
        with tracer.span("cf.predict"):
            global_mean = train.ratings.global_mean()
            cf_details = []
            for u, i, actual in test:
                try:
                    cf_details.append(cf.predict_detailed(u, i))
                except ColdStartError:
                    if global_mean is None:
                        raise
                    cf_details.append(None)
            cf_records = [
                CellRecord(u, i, actual, d.value, round_rating(d.value), d.fallback)
                if d is not None else
                CellRecord(u, i, actual, global_mean, round_rating(global_mean), "global-mean")
                for (u, i, actual), d in zip(test, cf_details)]
        with tracer.span("evaluate.report"):
            cf_report = EvaluationReport.from_records("cf", cf_records)

        with tracer.span("evaluate.split"):
            train, test = split(dataset, spec)
        with tracer.span("snrs.learn"):
            snrs = SnrsPredictor(train, SnrsConfig())
        with tracer.span("snrs.predict"):
            snrs_records = []
            for u, i, actual in test:
                value = snrs.predict(u, i)
                snrs_records.append(CellRecord(u, i, actual, value, round_rating(value)))
        with tracer.span("evaluate.report"):
            snrs_report = EvaluationReport.from_records("snrs", snrs_records)

        with tracer.span("evaluate.report"):
            reports.mkdir(parents=True, exist_ok=True)
            write_detail_csv([cf_report, snrs_report], reports / "detail.csv")
            write_summary_csv([cf_report, snrs_report], reports / "summary.csv")

    pairs = [sim for _, sim in cf.cache.pairs()]
    min_strength = SnrsConfig().friend_min_strength
    friends = {u: [v for v, _ in train.graph.friends_of(u, min_strength)]
               for u in spec.test_users}
    evidence = [sum(train.ratings.get(v, i) is not None for v in friends[u])
                for u, i, _ in test]
    return {
        "wall": root.duration,
        "cells": len(test),
        "evaluate.test_cells": len(test),
        "cf.pairs": len(pairs),
        "cf.defined_ratio": sum(s is not None for s in pairs) / len(pairs),
        "cf.neighbors_per_cell": fmean(len(d.neighbors) if d else 0 for d in cf_details),
        "cf.fallback_ratio": cf_report.n_fallback / len(test),
        "snrs.friend_tables": snrs.friend_tables.n_pairs,
        "snrs.evidence_ratio": sum(n > 0 for n in evidence) / len(test),
        "snrs.friends_per_cell": fmean(evidence),
    }


def traced_predict(tracer: Tracer, method: str, wl: Workload, seed: int,
                   data: Path) -> dict:
    """Mirrors ``socialrec predict``: load, hold the cell out, train, score."""
    u, i = wl.predict_cell(seed)
    with tracer.op(f"cli.predict_{method}") as root:
        with tracer.span("storage.load"):
            dataset = load_dataset(data)
        held_out = {(user, item): r for user, item, r in dataset.ratings.cells()
                    if (user, item) != (u, i)}
        train = Dataset(graph=dataset.graph,
                        ratings=RatingMatrix(dataset.n_users, dataset.n_items, held_out),
                        categories=dataset.categories)
        fallback = None
        if method == "cf":
            with tracer.span("cf.build"):
                predictor = CfPredictor(train, CfConfig())
            with tracer.span("cf.predict"):
                try:
                    detail = predictor.predict_detailed(u, i)
                    value, fallback = detail.value, detail.fallback
                except ColdStartError:
                    value, fallback = train.ratings.global_mean(), "global-mean"
        else:
            with tracer.span("snrs.learn"):
                predictor = SnrsPredictor(train, SnrsConfig())
            with tracer.span("snrs.predict"):
                value = predictor.predict(u, i)
    return {"wall": root.duration, "line": prediction_line(method, u, i, value, fallback)}


def traced_op(tracer: Tracer, kind: str, wl: Workload, seed: int, data: Path,
              reports: Path) -> dict:
    if kind == "gen":
        return traced_gen(tracer, wl, seed, data)
    if kind == "compare":
        return traced_compare(tracer, wl, data, reports)
    return traced_predict(tracer, kind.removeprefix("predict_"), wl, seed, data)
