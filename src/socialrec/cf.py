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

from .model import (
    Dataset,
    Prediction,
    RatingMatrix,
    RelationshipGraph,
    SocialRecError,
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

    Built once from a rating matrix and immutable afterwards; None entries
    mark pairs whose similarity is undefined.
    """

    def __init__(self, entries: dict[tuple[int, int], float | None], co_rate_min: int):
        self._entries = entries
        self.co_rate_min = co_rate_min

    @classmethod
    def build(cls, ratings: RatingMatrix, co_rate_min: int = 2) -> "SimilarityCache":
        rows = {u: ratings.user_ratings(u) for u in range(ratings.n_users)}
        entries: dict[tuple[int, int], float | None] = {}
        for u in range(ratings.n_users):
            for n in range(u + 1, ratings.n_users):
                co_rated = sorted(rows[u].keys() & rows[n].keys())
                if len(co_rated) < co_rate_min:
                    entries[(u, n)] = None
                else:
                    entries[(u, n)] = pearson_correlation(
                        [rows[u][i] for i in co_rated],
                        [rows[n][i] for i in co_rated])
        return cls(entries, co_rate_min)

    def similarity(self, u: int, n: int) -> float | None:
        if u == n:
            raise ValueError("similarity of a user with themselves is undefined")
        return self._entries[(min(u, n), max(u, n))]

    def pairs(self):
        """All ((u, n), similarity) entries with u < n."""
        return self._entries.items()


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
    candidates = []
    for n in sorted(ratings.item_ratings(i)):
        if n == u:
            continue
        if cfg.neighbor_scope == SCOPE_FRIENDS:
            strength = graph.strength(u, n)
            if strength is None or strength < 1:
                continue
        sim = cache.similarity(u, n)
        if sim is not None and sim > 0:
            candidates.append((n, sim))
    candidates.sort(key=lambda pair: (-pair[1], pair[0]))
    return candidates[:cfg.neighbor_k]


def predict_cf(u: int, i: int, ratings: RatingMatrix, cache: SimilarityCache,
               cfg: CfConfig, graph: RelationshipGraph | None = None) -> float:
    """Predicted (unclamped, unrounded) rating of item i by user u.

    Falls back to the user's mean when no usable neighbor exists; raises
    ColdStartError when the user has no ratings at all.
    """
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
        has no ratings at all.
        """
        if not self._ratings.user_ratings(u):
            if self._global_mean is None:
                raise ColdStartError(f"cold start: {user_label(u)} has no ratings and "
                                     f"the dataset has no other ratings to average")
            return Prediction(self._global_mean, "global-mean")
        return _predict(u, i, self._ratings, self._cache, self.cfg, self._graph)
