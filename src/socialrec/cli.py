"""Command-line front end.

Subcommands: ``gen`` writes a synthetic dataset, ``predict`` scores one
cell, ``eval`` evaluates one method on a split, ``compare`` runs both
methods side by side.  Every run is deterministic: all randomness flows
from --seed, and rerunning any command with the same flags and input files
produces byte-identical outputs.

Exit codes: 0 success, 1 runtime failure (bad data, missing test cell),
2 usage error (bad flags, unknown labels).
"""

import gc
import math
from pathlib import Path

import click

from .cf import CfConfig, SCOPE_ALL, SCOPE_FRIENDS
from .datagen import GenConfig, generate_dataset
from .evaluate import (
    EvaluationReport,
    SplitSpec,
    evaluate_method,
    run_comparison,
    split,
    train_predictor,
    write_detail_csv,
    write_summary_csv,
)
from .model import (
    SocialRecError,
    is_number,
    item_label,
    parse_label,
    round_rating,
    user_label,
)
from .snrs import SnrsConfig
from .storage import load_dataset, save_dataset

# The objects the imports above made (about 25k: click, numpy, the package)
# live as long as the process.  Freeze them so that the cyclic collector's
# full passes during a command traverse only the command's own objects: a
# pass over them costs about 5 ms, and whether one falls inside a command
# depends on what ran before it.
gc.freeze()

_COMMANDS = ("gen", "predict", "eval", "compare")


def _read_config_file(path: str) -> dict:
    """Parse a key=value defaults file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"config file {path} is not UTF-8: {exc}") from exc
    defaults = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        defaults[key.strip().lower().replace("-", "_")] = value.strip()
    return defaults


class _Group(click.Group):
    """Reports any SocialRecError as a one-line error with exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SocialRecError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="Key=value file supplying flag defaults (flags still win).")
@click.version_option(package_name="socialrec")
@click.pass_context
def main(ctx, config):
    """Generate, predict and evaluate social-network rating recommendations."""
    if config:
        defaults = _read_config_file(config)
        ctx.default_map = {command: defaults for command in _COMMANDS}


class _FiniteFloatRange(click.FloatRange):
    """A float flag within a range that also rejects inf and nan."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value


def _parse_numbers(text: str, kind: str, what: str, limit: int, noun: str,
                   ) -> tuple[int, ...]:
    """Parse "51-100", "U51-U100" or "I1,I3,I5" into 0-based indices below
    ``limit``, checking each range's end before expanding it."""

    def one(token: str) -> int:
        token = token.strip()
        if token.upper().startswith(kind):
            token = token[1:]
        if not is_number(token) or int(token) < 1:
            raise click.UsageError(f"bad {what} {token!r}: expected a 1-based "
                                   f"number or {kind}-label")
        return int(token) - 1

    ranges: list[range] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_token, hi_token = part.split("-", 1)
            lo, hi = one(lo_token), one(hi_token)
            if hi < lo:
                raise click.UsageError(f"empty {what} range {part!r}")
            ranges.append(range(lo, hi + 1))
        else:
            index = one(part)
            ranges.append(range(index, index + 1))
    if not ranges:
        raise click.UsageError(f"no {what} given in {text!r}")
    for indices in ranges:
        if indices[-1] >= limit:
            raise click.UsageError(f"{what} {kind}{max(indices.start, limit) + 1} "
                                   f"outside dataset ({limit} {noun})")
    return tuple(dict.fromkeys(i for indices in ranges for i in indices))


def _parse_levels(text: str) -> tuple[int, ...]:
    ranges: list[range] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            if not (is_number(lo.strip()) and is_number(hi.strip())):
                raise click.UsageError(f"bad rating level range {part!r}")
            if int(hi) < int(lo):
                raise click.UsageError(f"empty rating level range {part!r}")
            ranges.append(range(int(lo), int(hi) + 1))
        elif is_number(part):
            ranges.append(range(int(part), int(part) + 1))
        else:
            raise click.UsageError(f"bad rating level {part!r}")
    # each range's end is checked before the range is expanded
    if not any(ranges) or any(levels and levels[-1] > 5 for levels in ranges):
        raise click.UsageError(f"prediction levels must be within 0..5, got {text!r}")
    return tuple(dict.fromkeys(k for levels in ranges for k in levels))


def _resolve_label(dataset, label: str, kind: str) -> int:
    try:
        index = parse_label(label, kind)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    limit, what = {"U": (dataset.n_users, "users"),
                   "I": (dataset.n_items, "items")}[kind]
    if index >= limit:
        raise click.UsageError(f"unknown label {label!r} (dataset has {limit} {what})")
    return index


def _cf_options(func):
    func = click.option("--neighbor-k", type=click.IntRange(min=1), default=20,
                        show_default=True, help="Max neighbors per prediction.")(func)
    func = click.option("--co-rate-min", type=click.IntRange(min=2), default=2,
                        show_default=True,
                        help="Min co-rated items for a defined similarity.")(func)
    func = click.option("--scope", type=click.Choice([SCOPE_ALL, SCOPE_FRIENDS]),
                        default=SCOPE_ALL, show_default=True,
                        help="Restrict CF neighbors to graph friends or not.")(func)
    return func


def _snrs_options(func):
    func = click.option("--alpha", type=_FiniteFloatRange(min=0, min_open=True),
                        default=1.0, show_default=True,
                        help="Laplace smoothing pseudo-count.")(func)
    func = click.option("--min-strength", type=click.IntRange(min=0), default=1,
                        show_default=True,
                        help="Minimum edge strength that counts as friendship.")(func)
    func = click.option("--levels", default="0-5", show_default=True,
                        help="Rating levels entering the final weighted mean.")(func)
    return func


def _engine_configs(neighbor_k, co_rate_min, scope, alpha, min_strength, levels):
    levels = _parse_levels(levels)
    try:
        cf_cfg = CfConfig(neighbor_k=neighbor_k, co_rate_min=co_rate_min, neighbor_scope=scope)
        snrs_cfg = SnrsConfig(laplace_alpha=alpha, friend_min_strength=min_strength,
                              prediction_levels=levels)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    return cf_cfg, snrs_cfg


@main.command()
@click.option("--users", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--items", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--categories", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--edge-density", type=_FiniteFloatRange(0, 1, min_open=True), default=0.1,
              show_default=True, help="Fraction of user pairs that get an edge.")
@click.option("--seed-fraction", type=_FiniteFloatRange(0, 1, min_open=True), default=0.2,
              show_default=True, help="Fraction of rating cells seeded before propagation.")
@click.option("--fill-passes", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False),
              help="Output dataset directory.")
def gen(users, items, categories, edge_density, seed_fraction, fill_passes, seed, out):
    """Generate a synthetic dataset and write its four CSV files."""
    cfg = GenConfig(n_users=users, n_items=items, n_categories=categories,
                    edge_density=edge_density, seed_rating_fraction=seed_fraction,
                    fill_passes=fill_passes, rng_seed=seed)
    dataset = generate_dataset(cfg)
    try:
        save_dataset(dataset, out)
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc}") from exc
    meta = dataset.meta
    click.echo(f"wrote {out}: {users} users, {items} items, {categories} categories")
    click.echo(f"  edges: {dataset.graph.n_edges}")
    click.echo(f"  ratings: {dataset.ratings.n_rated} "
               f"(seeded {meta['cells_seeded']}, propagated {meta['cells_propagated']}, "
               f"random {meta['cells_random']})")
    click.echo(f"  category memberships: {dataset.categories.n_members}")


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False),
              help="Dataset directory.")
@click.option("--method", required=True, type=click.Choice(["cf", "snrs"]))
@click.option("--user", "user_token", required=True, help='User label, e.g. "U7".')
@click.option("--item", "item_token", required=True, help='Item label, e.g. "I3".')
@_cf_options
@_snrs_options
def predict(data, method, user_token, item_token, neighbor_k, co_rate_min, scope,
            alpha, min_strength, levels):
    """Predict one cell, training on every other rating in the dataset."""
    dataset = load_dataset(data)
    u = _resolve_label(dataset, user_token, "U")
    i = _resolve_label(dataset, item_token, "I")
    cf_cfg, snrs_cfg = _engine_configs(neighbor_k, co_rate_min, scope,
                                       alpha, min_strength, levels)

    rated = dataset.ratings.get(u, i) is not None
    train = split(dataset, SplitSpec((u,), (i,)))[0] if rated else dataset
    prediction = train_predictor(method, train, cf_cfg, snrs_cfg).predict_detailed(u, i)
    value, fallback = prediction.value, prediction.fallback
    marker = f"  [fallback: {fallback}]" if fallback else ""
    click.echo(f"{method} {user_label(u)} x {item_label(i)}: "
               f"{value:.4f} (rounded {round_rating(value)}){marker}")


def _echo_reports(reports: list[EvaluationReport]) -> None:
    click.echo(f"{'method':<6} {'n':>4} {'mae':>7} {'mae_real':>9} "
               f"{'accuracy':>9} {'fallbacks':>10}")
    for report in reports:
        click.echo(f"{report.method:<6} {report.n_observations:>4} "
                   f"{report.mae_rounded:>7.4f} {report.mae_real:>9.4f} "
                   f"{report.accuracy_percent:>8.1f}% {report.n_fallback:>10}")


def _write_reports(reports: list[EvaluationReport], out: str | None) -> None:
    if out is None:
        return
    directory = Path(out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        write_detail_csv(reports, directory / "detail.csv")
        write_summary_csv(reports, directory / "summary.csv")
    except OSError as exc:
        raise click.ClickException(f"cannot write {out}: {exc}") from exc
    click.echo(f"wrote {directory / 'detail.csv'} and {directory / 'summary.csv'}")


def _split_spec(dataset, test_users: str, test_items: str) -> SplitSpec:
    return SplitSpec(
        test_users=_parse_numbers(test_users, "U", "test user", dataset.n_users, "users"),
        test_items=_parse_numbers(test_items, "I", "test item", dataset.n_items, "items"))


@main.command(name="eval")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--method", required=True, type=click.Choice(["cf", "snrs"]))
@click.option("--test-users", default="51-100", show_default=True,
              help='Held-out users, e.g. "51-100" or "U51-U100".')
@click.option("--test-items", default="I1-I5", show_default=True,
              help='Held-out items, e.g. "I1-I5" or "6-10".')
@click.option("--out", type=click.Path(file_okay=False),
              help="Directory for detail.csv and summary.csv.")
@_cf_options
@_snrs_options
def eval_cmd(data, method, test_users, test_items, out, neighbor_k, co_rate_min,
             scope, alpha, min_strength, levels):
    """Evaluate one method on a train/test split."""
    dataset = load_dataset(data)
    spec = _split_spec(dataset, test_users, test_items)
    cf_cfg, snrs_cfg = _engine_configs(neighbor_k, co_rate_min, scope,
                                       alpha, min_strength, levels)
    report = evaluate_method(dataset, spec, method, cf_cfg, snrs_cfg)
    _echo_reports([report])
    _write_reports([report], out)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--test-users", default="51-100", show_default=True,
              help='Held-out users, e.g. "51-100" or "U51-U100".')
@click.option("--test-items", default="I1-I5", show_default=True,
              help='Held-out items, e.g. "I1-I5" or "6-10".')
@click.option("--out", type=click.Path(file_okay=False),
              help="Directory for detail.csv and summary.csv.")
@_cf_options
@_snrs_options
def compare(data, test_users, test_items, out, neighbor_k, co_rate_min, scope,
            alpha, min_strength, levels):
    """Run both methods on the same split and print the two-row summary."""
    dataset = load_dataset(data)
    spec = _split_spec(dataset, test_users, test_items)
    cf_cfg, snrs_cfg = _engine_configs(neighbor_k, co_rate_min, scope,
                                       alpha, min_strength, levels)
    cf_report, snrs_report = run_comparison(dataset, spec, cf_cfg, snrs_cfg)
    _echo_reports([cf_report, snrs_report])
    _write_reports([cf_report, snrs_report], out)


if __name__ == "__main__":
    main()
