"""Acceptance suite: one test per release criterion.

Each test prints a single [acceptance] PASS/FAIL line (run with -s to see
them) and asserts at the criterion's stated tolerance.  Oracles here are
deliberately independent re-implementations: direct summation for metrics,
a from-scratch neighborhood formula for the CF engine, and raw per-level
products for the evidence combiner.
"""

import itertools
import math
import random
import time

from socialrec import (
    GenConfig,
    RatingDistribution,
    SimilarityCache,
    SnrsPredictor,
    SplitSpec,
    accuracy,
    combine,
    friend_weighted_fill_trace,
    generate_dataset,
    mae,
    run_comparison,
    save_dataset,
    validate_dataset,
)
from socialrec.cf import pearson_correlation
from socialrec.datagen import generate_relationships, seed_ratings
from socialrec.model import RatingMatrix, round_rating
from conftest import cf_predictor, constant_dataset, rating_row
import reference_grids as grids


def check(criterion: str, failures: list, detail: str = ""):
    ok = not failures
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_1_metric_oracle_on_reference_grids():
    failures = []
    start = time.perf_counter()
    for name, actual_grid, pred_grid, want_mae, want_acc in [
        ("cf", grids.CF_ACTUAL, grids.CF_RECOMMENDED,
         grids.CF_EXPECTED_MAE, grids.CF_EXPECTED_ACCURACY),
        ("snrs", grids.SNRS_ACTUAL, grids.SNRS_RECOMMENDED,
         grids.SNRS_EXPECTED_MAE, grids.SNRS_EXPECTED_ACCURACY),
    ]:
        oracle_mae, oracle_acc = grids.brute_force_metrics(actual_grid, pred_grid)
        got_mae = mae(grids.flatten(pred_grid), grids.flatten(actual_grid))
        got_acc = accuracy(grids.flatten(pred_grid), grids.flatten(actual_grid))
        for label, got, want in [
            (f"{name} oracle mae", oracle_mae, want_mae),
            (f"{name} oracle accuracy", oracle_acc, want_acc),
            (f"{name} mae", got_mae, want_mae),
            (f"{name} accuracy", got_acc, want_acc),
        ]:
            if abs(got - want) > 1e-9:
                failures.append(f"{label}: got {got}, want {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    check("1 metric oracle on reference grids", failures,
          f"mae {grids.CF_EXPECTED_MAE}/{grids.SNRS_EXPECTED_MAE}, "
          f"accuracy {grids.CF_EXPECTED_ACCURACY}/{grids.SNRS_EXPECTED_ACCURACY}, "
          f"{elapsed * 1000:.0f}ms")


def test_criterion_2_results_band_over_ten_seeds():
    failures = []
    start = time.perf_counter()
    extremes = {"mae": [5.0, 0.0], "acc": [100.0, 0.0]}
    for seed in range(10):
        dataset = generate_dataset(GenConfig(rng_seed=seed))
        for report in run_comparison(dataset):
            if report.n_observations != 250:
                failures.append(f"seed {seed} {report.method}: "
                                f"{report.n_observations} observations")
            if not 0.5 <= report.mae_rounded <= 1.5:
                failures.append(f"seed {seed} {report.method}: "
                                f"mae {report.mae_rounded} outside [0.5, 1.5]")
            if not 15.0 <= report.accuracy_percent <= 60.0:
                failures.append(f"seed {seed} {report.method}: accuracy "
                                f"{report.accuracy_percent} outside [15, 60]")
            extremes["mae"] = [min(extremes["mae"][0], report.mae_rounded),
                               max(extremes["mae"][1], report.mae_rounded)]
            extremes["acc"] = [min(extremes["acc"][0], report.accuracy_percent),
                               max(extremes["acc"][1], report.accuracy_percent)]
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    check("2 results band over 10 seeds", failures,
          f"mae in [{extremes['mae'][0]:.2f}, {extremes['mae'][1]:.2f}], "
          f"accuracy in [{extremes['acc'][0]:.1f}, {extremes['acc'][1]:.1f}], "
          f"{elapsed:.1f}s")


def brute_force_cf(u, i, rows, neighbor_k=20, co_rate_min=2):
    """Independent re-evaluation of the neighborhood prediction formula:
    classic centered Pearson, positive similarities, sorted, truncated."""
    means = {n: sum(r.values()) / len(r) for n, r in rows.items() if r}
    candidates = []
    for n, row in rows.items():
        if n == u or i not in row:
            continue
        shared = sorted(set(rows[u]) & set(row))
        if len(shared) < co_rate_min:
            continue
        xs = [rows[u][j] for j in shared]
        ys = [row[j] for j in shared]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        norm_x = math.sqrt(sum((x - mean_x) ** 2 for x in xs))
        norm_y = math.sqrt(sum((y - mean_y) ** 2 for y in ys))
        if norm_x == 0 or norm_y == 0:
            continue
        sim = numerator / (norm_x * norm_y)
        if sim > 0:
            candidates.append((n, sim))
    candidates.sort(key=lambda pair: (-pair[1], pair[0]))
    candidates = candidates[:neighbor_k]
    if not candidates:
        return means[u]
    total = sum(sim for _, sim in candidates)
    adjustment = sum(sim * (rows[n][i] - means[n]) for n, sim in candidates)
    return means[u] + adjustment / total


def test_criterion_3_cf_matches_brute_force():
    failures = []
    rng = random.Random(2024)
    checked = 0
    for instance in range(20):
        n_users = rng.randint(2, 5)
        n_items = rng.randint(1, 4)
        cells = {(u, i): rng.randint(0, 5)
                 for u in range(n_users) for i in range(n_items)
                 if rng.random() < 0.7}
        for u in range(n_users):  # every user gets at least one rating
            cells[(u, rng.randrange(n_items))] = rng.randint(0, 5)
        matrix = RatingMatrix(n_users, n_items, cells)
        rows = {u: rating_row(matrix, u) for u in range(n_users)}
        predictor = cf_predictor(matrix, SimilarityCache.build(matrix, 2))
        for u in range(n_users):
            for i in range(n_items):
                got = predictor.predict(u, i)
                want = brute_force_cf(u, i, rows)
                checked += 1
                if abs(got - want) > 1e-9:
                    failures.append(f"instance {instance} cell ({u},{i}): "
                                    f"{got} vs {want}")
    check("3 cf equals brute-force formula", failures, f"{checked} cells")


def test_criterion_4_pearson_properties():
    failures = []
    rng = random.Random(7)
    for trial in range(1000):
        n = rng.randint(2, 10)
        xs = [rng.randint(0, 5) for _ in range(n)]
        ys = [rng.randint(0, 5) for _ in range(n)]
        forward = pearson_correlation(xs, ys)
        backward = pearson_correlation(ys, xs)
        if forward != backward:
            failures.append(f"trial {trial}: asymmetric {forward} vs {backward}")
        if forward is not None and not -1.0 - 1e-12 <= forward <= 1.0 + 1e-12:
            failures.append(f"trial {trial}: out of range {forward}")
        if len(set(xs)) > 1:
            a = rng.randint(1, 3)
            b = rng.randint(-5, 5)
            if pearson_correlation(xs, [a * x + b for x in xs]) != 1.0:
                failures.append(f"trial {trial}: affine image not exactly 1.0")
            if pearson_correlation(xs, [-a * x + b for x in xs]) != -1.0:
                failures.append(f"trial {trial}: negated image not exactly -1.0")
        constant = [rng.randint(0, 5)] * n
        if pearson_correlation(constant, ys) is not None:
            failures.append(f"trial {trial}: zero variance not undefined")
    check("4 pearson properties", failures, "1000 vector pairs")


def test_criterion_5_snrs_distributions_normalized():
    failures = []
    dataset = generate_dataset(GenConfig(rng_seed=0))
    predictor = SnrsPredictor(dataset)
    rng = random.Random(11)
    for trial in range(1000):
        u, i = rng.randrange(100), rng.randrange(10)
        pu, pi, pff = predictor.components(u, i)
        combined = predictor.rating_distribution(u, i)
        for label, dist in [("preference", pu), ("acceptance", pi),
                            ("friends", pff), ("combined", combined)]:
            if abs(sum(dist) - 1.0) > 1e-9:
                failures.append(f"trial {trial} {label}: sum {sum(dist)}")
            if min(dist) <= 0.0:
                failures.append(f"trial {trial} {label}: zero probability")
        value = predictor.predict(u, i)
        if not 0.0 <= value <= 5.0:
            failures.append(f"trial {trial}: prediction {value} outside [0, 5]")
    check("5 snrs distributions normalized", failures, "1000 queries")


def test_criterion_6_combine_oracle():
    failures = []
    rng = random.Random(13)
    for trial in range(1000):
        dists = []
        for _ in range(3):
            weights = [rng.uniform(1e-3, 1.0) for _ in range(6)]
            dists.append(RatingDistribution([w / sum(weights) for w in weights]))
        a, b, c = dists
        got = combine(a, b, c)
        raw = [a[k] * b[k] * c[k] for k in range(6)]
        total = sum(raw)
        want = [w / total for w in raw]
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            failures.append(f"trial {trial}: differs from brute force")
        for perm in itertools.permutations(dists):
            other = combine(*perm)
            if any(abs(g - o) > 1e-12 for g, o in zip(got, other)):
                failures.append(f"trial {trial}: not permutation symmetric")
                break
    check("6 combine oracle", failures, "1000 triples x 6 permutations")


def test_criterion_7_generator_invariants(tmp_path):
    failures = []
    for seed in range(10):
        cfg = GenConfig(rng_seed=seed)
        dataset = generate_dataset(cfg)
        problems = validate_dataset(dataset)
        if problems:
            failures.append(f"seed {seed}: {problems[0]}")
        for (a, b), s in dataset.graph.edges.items():
            if dataset.graph.strength(a, b) != dataset.graph.strength(b, a):
                failures.append(f"seed {seed}: asymmetric strength at ({a},{b})")
            if s not in range(6):
                failures.append(f"seed {seed}: strength {s} out of range")
        if any(r not in range(6) for _, _, r in dataset.ratings.cells()):
            failures.append(f"seed {seed}: rating out of range")

        filled, events = friend_weighted_fill_trace(
            generate_relationships(cfg), seed_ratings(cfg), cfg)
        if filled != dataset.ratings:
            failures.append(f"seed {seed}: traced fill differs from dataset")
        for event in events:
            if event.source != "propagated":
                continue
            total = sum(s for _, s, _ in event.contributors)
            weighted = sum(s * r for _, s, r in event.contributors)
            if round_rating(weighted / total) != event.value:
                failures.append(f"seed {seed}: cell ({event.user},{event.item}) "
                                f"fails recomputation")
                break

        first = tmp_path / f"s{seed}a"
        second = tmp_path / f"s{seed}b"
        save_dataset(generate_dataset(cfg), first)
        save_dataset(generate_dataset(cfg), second)
        for name in ["relationships.csv", "ratings.csv", "categories.csv"]:
            if (first / name).read_bytes() != (second / name).read_bytes():
                failures.append(f"seed {seed}: {name} not byte-identical")
    check("7 generator invariants", failures, "10 seeds")


def test_criterion_8_constant_signal():
    failures = []
    dataset = constant_dataset()
    for items in [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]:
        for report in run_comparison(dataset, SplitSpec(test_items=items)):
            if report.mae_rounded != 0.0:
                failures.append(f"{report.method} items {items}: "
                                f"mae {report.mae_rounded}")
            if report.accuracy_percent != 100.0:
                failures.append(f"{report.method} items {items}: "
                                f"accuracy {report.accuracy_percent}")
    check("8 constant-signal sanity", failures, "both methods, both splits")


def test_criterion_9_metric_properties():
    failures = []
    rng = random.Random(17)
    for trial in range(1000):
        n = rng.randint(1, 30)
        a = [rng.randint(0, 5) for _ in range(n)]
        b = [rng.randint(0, 5) for _ in range(n)]
        m, m_rev = mae(a, b), mae(b, a)
        acc, acc_rev = accuracy(a, b), accuracy(b, a)
        if m != m_rev or acc != acc_rev:
            failures.append(f"trial {trial}: not symmetric")
        if not (0.0 <= m <= 5.0 and 0.0 <= acc <= 100.0):
            failures.append(f"trial {trial}: bounds violated")
        if (m == 0.0) != (a == b) or (acc == 100.0) != (a == b):
            failures.append(f"trial {trial}: zero/identity mismatch")
        if mae(a, a) != 0.0 or accuracy(a, a) != 100.0:
            failures.append(f"trial {trial}: self-comparison not perfect")
    check("9 metric properties", failures, "1000 list pairs")
