"""Train/test splitting, MAE and accuracy metrics, and side-by-side runs.

The split removes a rectangle of (test user x test item) cells from the
rating matrix; everything left, plus the untouched graph and category
tables, is the training data.  Both engines are scored on the same split.
MAE is reported on rounded integer predictions (the raw-real MAE is kept
as a secondary diagnostic) and accuracy counts exact integer matches.
"""

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cf import CfConfig, CfPredictor
from .model import (
    Dataset,
    RatingMatrix,
    SocialRecError,
    _is_integer,
    _round_ratings,
    item_label,
    user_label,
)
from .snrs import SnrsConfig, SnrsPredictor

METHOD_CF = "cf"
METHOD_SNRS = "snrs"
METHODS = (METHOD_CF, METHOD_SNRS)

DETAIL_HEADER = ["method", "user", "item", "actual", "pred_real", "pred_rounded"]
SUMMARY_HEADER = ["method", "n", "mae_rounded", "mae_real", "accuracy_percent"]


class MissingCellError(SocialRecError):
    """A designated test cell has no rating in the source dataset."""


@dataclass(frozen=True)
class SplitSpec:
    """Which (user, item) cells form the held-out test rectangle; an index
    that is not an integer, a bool say, raises ValueError naming it.

    Defaults hold out the second half of a 100-user population on the first
    five items: 50 users x 5 items = 250 observations."""

    test_users: tuple[int, ...] = tuple(range(50, 100))
    test_items: tuple[int, ...] = tuple(range(5))

    def __post_init__(self):
        object.__setattr__(self, "test_users", tuple(self.test_users))
        object.__setattr__(self, "test_items", tuple(self.test_items))
        for what in ("test_users", "test_items"):
            for index in getattr(self, what):
                if not _is_integer(type(index)):
                    raise ValueError(f"{what} index {index!r} is not an integer")
        if len(set(self.test_users)) != len(self.test_users):
            raise ValueError("test_users contains duplicates")
        if len(set(self.test_items)) != len(self.test_items):
            raise ValueError("test_items contains duplicates")


def split(dataset: Dataset, spec: SplitSpec,
          ) -> tuple[Dataset, list[tuple[int, int, int]]]:
    """Partition a dataset into training data and held-out test cells.

    Returns (train, test) where train is the dataset with every test cell
    removed from its rating matrix (graph and categories untouched) and
    test is a (user, item, actual) list sorted by (user, item).  Together
    they reconstruct the original ratings exactly.

    Raises MissingCellError if a designated test cell is unrated.
    """
    ratings = dataset.ratings
    for what, ids, n in (("user", spec.test_users, ratings.n_users),
                         ("item", spec.test_items, ratings.n_items)):
        for x in ids:
            if not 0 <= x < n:
                raise ValueError(f"test {what} index {x} out of bounds "
                                 f"(dataset has {n} {what}s)")

    # the test rectangle is cleared in one copy of the rating array
    grid = ratings.dense()
    users, items = (np.array(sorted(ids), dtype=np.intp)
                    for ids in (spec.test_users, spec.test_items))
    rectangle = np.ix_(users, items)
    actual = grid[rectangle]
    missing = np.flatnonzero(actual < 0)  # in (user, item) order
    if missing.size:
        u, i = divmod(int(missing[0]), len(items))
        raise MissingCellError(f"test cell ({user_label(int(users[u]))}, "
                               f"{item_label(int(items[i]))}) is not rated")
    test = list(zip(users.repeat(len(items)).tolist(), np.tile(items, len(users)).tolist(),
                    actual.ravel().tolist()))
    train_grid = grid.copy()
    train_grid[rectangle] = -1

    train = Dataset(
        graph=dataset.graph,
        ratings=RatingMatrix(ratings.n_users, ratings.n_items, train_grid),
        categories=dataset.categories,
        meta=dict(dataset.meta),
    )
    return train, test


def mae(pred: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute error between two equal-length rating lists.  The
    errors are added left to right from 0, as the built-in sum adds: the
    last entry of their cumsum."""
    if len(pred) != len(actual):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs "
                         f"{len(actual)} actuals")
    if not len(pred):
        raise ValueError("cannot compute MAE of empty lists")
    return float(np.cumsum(np.abs(np.subtract(pred, actual)))[-1] / len(pred))


def accuracy(pred: Sequence[int], actual: Sequence[int]) -> float:
    """Percentage of predictions exactly equal to the actual rating."""
    if len(pred) != len(actual):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs "
                         f"{len(actual)} actuals")
    if not len(pred):
        raise ValueError("cannot compute accuracy of empty lists")
    hits = int(np.count_nonzero(np.equal(pred, actual)))
    return 100.0 * hits / len(pred)


@dataclass(frozen=True)
class CellRecord:
    user: int
    item: int
    actual: int
    pred_real: float
    pred_rounded: int
    fallback: str | None = None  # "user-mean", "global-mean", or None


@dataclass(frozen=True)
class EvaluationReport:
    """Per-method evaluation results, one tuple per CellRecord field in
    test-cell order; the header numbers are computed from these columns."""

    method: str
    users: tuple[int, ...]
    items: tuple[int, ...]
    actuals: tuple[int, ...]
    pred_real: tuple[float, ...]
    pred_rounded: tuple[int, ...]
    fallbacks: tuple[str | None, ...]
    n_observations: int = field(init=False)
    mae_rounded: float = field(init=False)
    mae_real: float = field(init=False)
    accuracy_percent: float = field(init=False)
    n_fallback: int = field(init=False)

    def __post_init__(self):
        columns = [f.name for f in fields(self) if f.init and f.name != "method"]
        for name in columns:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len({len(getattr(self, name)) for name in columns}) > 1:
            raise ValueError("report columns differ in length")
        derived = dict(
            n_observations=len(self.actuals),
            mae_rounded=mae(self.pred_rounded, self.actuals),
            mae_real=mae(self.pred_real, self.actuals),
            accuracy_percent=accuracy(self.pred_rounded, self.actuals),
            n_fallback=len(self.fallbacks) - self.fallbacks.count(None),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_records(cls, method: str, records: Iterable[CellRecord],
                     ) -> "EvaluationReport":
        records = tuple(records)
        return cls(method, *(tuple(getattr(r, f.name) for r in records)
                             for f in fields(CellRecord)))


def train_predictor(method: str, train: Dataset, cf_cfg: CfConfig = CfConfig(),
                    snrs_cfg: SnrsConfig = SnrsConfig()) -> CfPredictor | SnrsPredictor:
    """Train the engine named ``method`` ("cf" or "snrs") on ``train``."""
    engines = {METHOD_CF: (CfPredictor, cf_cfg), METHOD_SNRS: (SnrsPredictor, snrs_cfg)}
    if method not in engines:
        raise ValueError(f"unknown method {method!r}")
    engine, cfg = engines[method]
    return engine(train, cfg)


def run_comparison(dataset: Dataset, spec: SplitSpec = SplitSpec(),
                   cf_cfg: CfConfig = CfConfig(), snrs_cfg: SnrsConfig = SnrsConfig(),
                   methods: Sequence[str] = METHODS) -> tuple[EvaluationReport, ...]:
    """Score each engine named in ``methods`` on one train/test split, and
    return their reports in that order.

    A report's fallbacks column carries the engine's fallback flags, so
    collaborative filtering cold starts (scored with the training global
    mean) are flagged rather than silently blended in.  An unknown method
    raises train_predictor's ValueError.
    """
    train, test = split(dataset, spec)
    columns = np.array(test, dtype=np.intp).reshape(-1, 3)
    users, items, actuals = map(tuple, columns.T.tolist())
    reports = []
    for method in methods:
        # cf's batch also returns the neighbour entries it kept, which a report drops
        values, fallbacks = train_predictor(method, train, cf_cfg, snrs_cfg)._score(
            columns[:, :2])[:2]
        reports.append(EvaluationReport(method, users, items, actuals, values.tolist(),
                                        _round_ratings(values).tolist(), fallbacks))
    return tuple(reports)


def write_detail_csv(reports: Iterable[EvaluationReport], path: str | Path) -> None:
    """One row per (method, test cell): method,user,item,actual,pred_real,pred_rounded.

    The "method,user," and "item," prefixes are built once per user and
    item, the method quoted by csv, and each row is one format of them."""
    with open(Path(path), "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(DETAIL_HEADER)
        for report in reports:
            method = io.StringIO()  # "method,\n", quoted as in a row of the file
            csv.writer(method, lineterminator="\n").writerow([report.method, ""])
            users = {u: f"{method.getvalue()[:-1]}{user_label(u)},"
                     for u in dict.fromkeys(report.users)}
            items = {i: f"{item_label(i)}," for i in dict.fromkeys(report.items)}
            handle.write("".join(map("%s%s%s,%r,%s\n".__mod__, zip(
                map(users.__getitem__, report.users), map(items.__getitem__, report.items),
                report.actuals, report.pred_real, report.pred_rounded))))


def write_summary_csv(reports: Iterable[EvaluationReport], path: str | Path) -> None:
    """One row per method: method,n,mae_rounded,mae_real,accuracy_percent."""
    with open(Path(path), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for report in reports:
            writer.writerow([report.method, report.n_observations,
                             repr(report.mae_rounded), repr(report.mae_real),
                             repr(report.accuracy_percent)])
