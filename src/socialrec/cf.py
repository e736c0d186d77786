"""User-based nearest-neighbor collaborative filtering.

Similarity is the Pearson correlation over each pair's co-rated items, and
predictions are the active user's mean plus a similarity-weighted average
of the neighbors' mean-centered ratings.  Dividing by the sum of the
similarity coefficients keeps the adjustment on the rating scale, and
subtracting each neighbor's own mean compensates for users who rate
systematically high or low.

Only neighbors with strictly positive similarity are used: with negative
coefficients in the mix the normalizing denominator could reach zero or
flip sign, which the weighted-average reading cannot support.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Dataset,
    Prediction,
    RatingMatrix,
    RelationshipGraph,
    SocialRecError,
    cell_array,
    round_rating,
    user_label,
)

__all__ = [
    "CfConfig",
    "CfPredictor",
    "ColdStartError",
    "SimilarityCache",
    "pearson_correlation",
    "predict_cf",
    "round_rating",
    "select_neighbors",
]

SCOPE_ALL = "all-users"
SCOPE_FRIENDS = "friends-only"


class ColdStartError(SocialRecError):
    """The active user has no ratings, so no mean-based prediction exists."""


@dataclass(frozen=True)
class CfConfig:
    neighbor_k: int = 20
    co_rate_min: int = 2
    neighbor_scope: str = SCOPE_ALL

    def __post_init__(self):
        if self.neighbor_k < 1:
            raise ValueError("neighbor_k must be >= 1")
        if self.co_rate_min < 2:
            raise ValueError("co_rate_min must be >= 2 (one shared item has no variance)")
        if self.neighbor_scope not in (SCOPE_ALL, SCOPE_FRIENDS):
            raise ValueError(f"unknown neighbor_scope {self.neighbor_scope!r}")


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson correlation of two equal-length vectors, or None if either
    side has zero variance.

    Centering is done on values scaled by the vector length (n*x - sum(x)),
    which is algebraically the same correlation but keeps integer inputs in
    exact integer arithmetic: identical or perfectly anticorrelated rating
    vectors come out as exactly +/-1.0.
    """
    n = len(xs)
    if len(ys) != n:
        raise ValueError(f"length mismatch: {n} vs {len(ys)}")
    if n == 0:
        return None
    sum_x = sum(xs)
    sum_y = sum(ys)
    us = [n * x - sum_x for x in xs]
    vs = [n * y - sum_y for y in ys]
    uu = sum(u * u for u in us)
    vv = sum(v * v for v in vs)
    if uu == 0 or vv == 0:
        return None
    uv = sum(u * v for u, v in zip(us, vs))
    return uv / math.sqrt(uu * vv)


class SimilarityCache:
    """Precomputed Pearson similarities for every unordered user pair.

    Built once from a rating matrix and immutable afterwards.  Each user's
    defined similarities are stored as one {other user: similarity} row in
    neighbour order: similarity descending, ties by ascending user index.
    A pair missing from the rows has an undefined similarity.
    """

    def __init__(self, n_users: int, rows: dict[int, dict[int, float]]):
        self.n_users = n_users
        self._rows = rows

    @classmethod
    def build(cls, ratings: RatingMatrix, co_rate_min: int = 2) -> "SimilarityCache":
        """All pairs at once, as integer Gram products over the rated users.

        With R the rated users' ``dense()`` rows (-1 read as 0), M their 0/1
        mask and n = M·Mᵀ the co-rated counts, Sx = R·Mᵀ, Sxx = (R∘R)·Mᵀ and
        Sxy = R·Rᵀ are each pair's sums over its co-rated items.
        A = n·Sxx − Sx² (``spread``), uv = n·(n·Sxy − Sx·Sxᵀ), uu = n·A and
        vv = n·Aᵀ = uuᵀ are the exact integers pearson_correlation builds,
        and float(uu)·float(vv) rounds like float(uu·vv) while both stay
        below 2**53 (up to about 10**5 co-rated items), so every similarity
        is bit-identical to it.  The sums stay in integers so that no BLAS
        library or thread count can change a result.
        """
        dense = ratings.dense()
        users = np.flatnonzero((dense >= 0).any(axis=1))
        rated = np.maximum(dense[users], 0).astype(np.int64)
        mask = (dense[users] >= 0).astype(np.int64)
        n = mask @ mask.T
        sx = rated @ mask.T
        spread = n * ((rated * rated) @ mask.T) - sx * sx
        uv = n * (n * (rated @ rated.T) - sx * sx.T)
        uu = (n * spread).astype(np.float64)
        defined = (n >= co_rate_min) & (spread != 0) & (spread.T != 0)
        np.fill_diagonal(defined, False)
        sims = np.divide(uv, np.sqrt(uu * uu.T), out=np.zeros(uv.shape), where=defined)
        rows = {}
        for a, u in enumerate(users.tolist()):
            (others,) = np.nonzero(defined[a])
            others = others[np.lexsort((others, -sims[a, others]))]
            rows[u] = dict(zip(users[others].tolist(), sims[a, others].tolist()))
        return cls(ratings.n_users, rows)

    def row(self, u: int) -> dict[int, float]:
        """u's defined similarities in neighbour order; treat as read-only."""
        return self._rows.get(u, {})

    def similarity(self, u: int, n: int) -> float | None:
        if u == n:
            raise ValueError("similarity of a user with themselves is undefined")
        return self.row(u).get(n)

    def pairs(self):
        """Every ((u, n), similarity) with u < n over all users, None where
        undefined, generated on demand."""
        for u in range(self.n_users):
            row = self.row(u)
            for n in range(u + 1, self.n_users):
                yield (u, n), row.get(n)


def select_neighbors(u: int, i: int, ratings: RatingMatrix, cache: SimilarityCache,
                     cfg: CfConfig, graph: RelationshipGraph | None = None,
                     ) -> list[tuple[int, float]]:
    """Neighbors usable for predicting (u, i): users who rated i with a
    defined, strictly positive similarity to u.

    Returns (user, similarity) pairs sorted by similarity descending, ties
    broken by ascending user index, truncated to cfg.neighbor_k.  In
    friends-only scope, candidates must also share a graph edge of
    strength >= 1 with u.
    """
    if cfg.neighbor_scope == SCOPE_FRIENDS and graph is None:
        raise ValueError("friends-only scope requires the relationship graph")
    column = ratings.dense()[:, i].tolist()
    neighbors = []
    for n, sim in cache.row(u).items():
        if sim <= 0 or len(neighbors) == cfg.neighbor_k:
            break
        if column[n] < 0:
            continue
        if cfg.neighbor_scope == SCOPE_FRIENDS:
            strength = graph.strength(u, n)
            if strength is None or strength < 1:
                continue
        neighbors.append((n, sim))
    return neighbors


def predict_cf(u: int, i: int, ratings: RatingMatrix, cache: SimilarityCache,
               cfg: CfConfig, graph: RelationshipGraph | None = None) -> float:
    """Predicted (unclamped, unrounded) rating of item i by user u.

    Falls back to the user's mean when no usable neighbor exists.  Raises
    ColdStartError for a user with no ratings, ValueError off the matrix.
    """
    cell_array([(u, i)], ratings.dense().shape)
    return _predict(u, i, ratings, cache, cfg, graph).value


def _predict(u: int, i: int, ratings: RatingMatrix, cache: SimilarityCache,
             cfg: CfConfig, graph: RelationshipGraph | None) -> Prediction:
    mean_u = ratings.user_mean(u)
    if mean_u is None:
        raise ColdStartError(f"cold start: {user_label(u)} has no ratings")
    neighbors = tuple(select_neighbors(u, i, ratings, cache, cfg, graph))
    if not neighbors:
        return Prediction(mean_u, "user-mean")
    numerator = 0.0
    denominator = 0.0
    for n, sim in neighbors:
        rating = ratings.get(n, i)
        mean_n = ratings.user_mean(n)
        numerator += sim * (rating - mean_n)
        denominator += sim
    return Prediction(mean_u + numerator / denominator, None, neighbors)


class CfPredictor:
    """Train-once wrapper: builds the similarity cache for a dataset and
    answers per-cell predictions from it."""

    def __init__(self, dataset: Dataset, cfg: CfConfig = CfConfig()):
        self.cfg = cfg
        self._ratings = dataset.ratings
        self._graph = dataset.graph
        self._cache = SimilarityCache.build(dataset.ratings, cfg.co_rate_min)
        self._global_mean = dataset.ratings.global_mean()

    @property
    def cache(self) -> SimilarityCache:
        return self._cache

    def predict(self, u: int, i: int) -> float:
        return self.predict_detailed(u, i).value

    def predict_detailed(self, u: int, i: int) -> Prediction:
        """The prediction for (u, i) with the neighbours it used.

        A user with no ratings gets the training global mean, flagged
        "global-mean"; ColdStartError is raised only when the training set
        has no ratings at all, and ValueError for a cell outside the
        training matrix.
        """
        return self.predict_many([(u, i)])[0]

    def predict_many(self, cells) -> list[Prediction]:
        """predict_detailed for each (user, item) cell, in order."""
        cells = cell_array(cells, self._ratings.dense().shape).tolist()
        return [self._predict_one(u, i) for u, i in cells]

    def _predict_one(self, u: int, i: int) -> Prediction:
        if self._ratings.user_mean(u) is None:
            if self._global_mean is None:
                raise ColdStartError(f"cold start: {user_label(u)} has no ratings and "
                                     f"the dataset has no other ratings to average")
            return Prediction(self._global_mean, "global-mean")
        return _predict(u, i, self._ratings, self._cache, self.cfg, self._graph)
