"""Probabilistic social-network recommender (SNRS).

The predicted rating distribution for a (user, item) cell is the normalized
per-level product of three independently learned factors:

  * user preference: a naive-Bayes model of the user's own ratings given
    the item's category bits,
  * item acceptance: the smoothed distribution of ratings the item has
    received from everyone,
  * friend inference: per-friend conditional tables P(user rates k | friend
    rated j), learned from each pair's co-rated history and multiplied over
    the friends who rated the item.

All counts are Laplace-smoothed, so every learned probability is strictly
positive.  A product over many categories or friends would still underflow,
so its six level weights are rescaled by a power of two whenever the
largest falls below 2**-500; the rescale is exact and leaves every
normalized result unchanged.  The final prediction is the expectation of
the combined distribution.
"""

import math
from dataclasses import dataclass

from .model import (
    Dataset,
    Prediction,
    SocialRecError,
    N_LEVELS,
    RATING_LEVELS,
)

_SUM_TOLERANCE = 1e-9
_RESCALE_BELOW = 2.0 ** -500


class DegenerateEvidenceError(SocialRecError, ValueError):
    """Every rating level was annihilated when combining evidence."""


class EmptyTrainingSetError(SocialRecError, ValueError):
    """The training ratings are empty, so no factor model can be learned."""


class RatingDistribution:
    """Probability vector over the six rating levels 0..5.

    Entries are non-negative and sum to 1 (within 1e-9), enforced at
    construction.  Instances are immutable.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        probs = tuple(float(p) for p in probs)
        if len(probs) != N_LEVELS:
            raise ValueError(f"need {N_LEVELS} probabilities, got {len(probs)}")
        if any(p < 0 for p in probs):
            raise ValueError(f"negative probability in {probs}")
        if abs(sum(probs) - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def __setattr__(self, name, value):
        raise AttributeError("RatingDistribution is immutable")

    @classmethod
    def from_weights(cls, weights) -> "RatingDistribution":
        """Normalize non-negative weights; DegenerateEvidenceError if all are 0."""
        weights = [float(w) for w in weights]
        total = sum(weights)
        if total <= 0:
            raise DegenerateEvidenceError(f"evidence vanished at every level "
                                          f"(weights sum to {total})")
        return cls(w / total for w in weights)

    @classmethod
    def uniform(cls) -> "RatingDistribution":
        return cls([1.0 / N_LEVELS] * N_LEVELS)

    def __getitem__(self, level: int) -> float:
        return self.probs[level]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other):
        if not isinstance(other, RatingDistribution):
            return NotImplemented
        return self.probs == other.probs

    def __hash__(self):
        return hash(self.probs)

    def __repr__(self):
        inside = ", ".join(f"{p:.4f}" for p in self.probs)
        return f"RatingDistribution([{inside}])"

    def expected_level(self, levels: tuple[int, ...] = RATING_LEVELS) -> float:
        """Expectation of the distribution restricted to ``levels``.

        The restricted distribution is renormalized first, matching a
        weighted mean sum(p_k * k) / sum(p_k) over the kept levels.
        """
        mass = sum(self.probs[k] for k in levels)
        if mass <= 0:
            raise DegenerateEvidenceError(
                f"no probability mass on prediction levels {levels}")
        return sum(self.probs[k] * k for k in levels) / mass


@dataclass(frozen=True)
class SnrsConfig:
    laplace_alpha: float = 1.0
    friend_min_strength: int = 1
    prediction_levels: tuple[int, ...] = RATING_LEVELS

    def __post_init__(self):
        if not self.laplace_alpha > 0:
            raise ValueError("laplace_alpha must be > 0")
        if self.friend_min_strength < 0:
            raise ValueError("friend_min_strength must be >= 0")
        levels = tuple(self.prediction_levels)
        if not levels or any(k not in RATING_LEVELS for k in levels):
            raise ValueError(f"prediction_levels must be a non-empty subset of "
                             f"{RATING_LEVELS}")
        if len(set(levels)) != len(levels):
            raise ValueError("prediction_levels contains duplicates")
        object.__setattr__(self, "prediction_levels", levels)


@dataclass(frozen=True)
class UserPreferenceModel:
    """Per-user rating priors and per-category bit likelihoods.

    ``priors[u]`` is user u's smoothed distribution over rating levels.
    ``likelihoods[u][c][b][k]`` is the smoothed probability that an item's
    category-c bit is b given that user u rates the item at level k.
    """

    priors: list[tuple[float, ...]]
    likelihoods: list[list[tuple[tuple[float, ...], tuple[float, ...]]]]


@dataclass(frozen=True)
class ItemAcceptanceModel:
    """``dists[i]`` is the smoothed distribution of the ratings item i received."""

    dists: list[RatingDistribution]


class FriendConditionalTable:
    """6x6 conditional tables P(R_u = k | R_v = j) per ordered friend pair.

    Tables exist only for pairs whose edge strength reaches the configured
    friendship threshold; every column is a smoothed distribution over the
    user's level k.
    """

    def __init__(self, tables: dict[tuple[int, int], list[tuple[float, ...]]]):
        self._tables = tables  # [(u, v)] -> table[j] = column over k

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._tables

    @property
    def n_pairs(self) -> int:
        return len(self._tables)

    def pairs(self):
        return self._tables.keys()

    def column(self, u: int, v: int, j: int) -> tuple[float, ...]:
        """P(user u rates k | friend v rated j) for k = 0..5."""
        return self._tables[(u, v)][j]


def learn_models(train: Dataset, cfg: SnrsConfig = SnrsConfig(),
                 ) -> tuple[UserPreferenceModel, ItemAcceptanceModel, FriendConditionalTable]:
    """Count-and-smooth all three factor models from training ratings.

    User priors, per-category bit counts and item acceptance counts come
    from one pass over each user's row.  Friend tables are counted once per
    unordered friend pair: one 6x6 co-rating count gives both the (u, v)
    and the (v, u) table.  Equal count columns share one smoothed tuple.

    Raises EmptyTrainingSetError when the training set has no ratings at all.
    """
    ratings, categories, graph = train.ratings, train.categories, train.graph
    if ratings.n_rated == 0:
        raise EmptyTrainingSetError("empty training set: no ratings to learn from")
    alpha = cfg.laplace_alpha
    columns: dict[tuple[int, ...], tuple[float, ...]] = {}

    def smoothed(counts: list[int]) -> tuple[float, ...]:
        key = tuple(counts)
        column = columns.get(key)
        if column is None:
            total = sum(counts)
            column = columns[key] = tuple((n + alpha) / (total + N_LEVELS * alpha)
                                          for n in counts)
        return column

    item_categories: list[list[int]] = [[] for _ in range(ratings.n_items)]
    for i, c in categories.members():
        item_categories[i].append(c)
    item_counts = [[0] * N_LEVELS for _ in range(ratings.n_items)]
    priors = []
    likelihoods = []
    for u in range(ratings.n_users):
        counts = [0] * N_LEVELS
        bit_counts = [[0] * N_LEVELS for _ in range(categories.n_categories)]
        for i, r in ratings.user_ratings(u).items():
            counts[r] += 1
            item_counts[i][r] += 1
            for c in item_categories[i]:
                bit_counts[c][r] += 1
        priors.append(smoothed(counts))
        per_category = []
        for ones in bit_counts:
            present = tuple((ones[k] + alpha) / (counts[k] + 2 * alpha) for k in RATING_LEVELS)
            per_category.append((tuple(1.0 - p for p in present), present))
        likelihoods.append(per_category)
    preference = UserPreferenceModel(priors, likelihoods)
    acceptance = ItemAcceptanceModel([RatingDistribution(smoothed(counts))
                                      for counts in item_counts])

    tables: dict[tuple[int, int], list[tuple[float, ...]]] = {}
    for u in range(ratings.n_users):
        row_u = ratings.user_ratings(u)
        for v, _strength in graph.friends_of(u, cfg.friend_min_strength):
            if v < u:
                continue  # counted at v's turn
            row_v = ratings.user_ratings(v)
            counts = [0] * (N_LEVELS * N_LEVELS)  # [N_LEVELS * k + j]: u rated k, v rated j
            for i, k in row_u.items():
                j = row_v.get(i)
                if j is not None:
                    counts[N_LEVELS * k + j] += 1
            tables[(u, v)] = [smoothed(counts[j::N_LEVELS]) for j in RATING_LEVELS]
            tables[(v, u)] = [smoothed(counts[N_LEVELS * k:N_LEVELS * (k + 1)])
                              for k in RATING_LEVELS]
    friends = FriendConditionalTable(tables)

    return preference, acceptance, friends


def _evidence(start: tuple[float, ...],
              columns: list[tuple[float, ...]]) -> RatingDistribution:
    """Normalized per-level product of ``start`` and each column in order.

    Whenever the largest weight falls below 2**-500, all six are scaled by
    the power of two that brings it into [0.5, 1); the rescale is exact, so
    the normalized distribution does not change.
    """
    weights = start
    for column in columns:
        weights = [w * p for w, p in zip(weights, column)]
        top = max(weights)
        if top < _RESCALE_BELOW:
            _, exponent = math.frexp(top)
            weights = [math.ldexp(w, -exponent) for w in weights]
    return RatingDistribution.from_weights(weights)


def combine(pu: RatingDistribution, pi: RatingDistribution,
            pff: RatingDistribution) -> RatingDistribution:
    """Per-level product of the three factors, renormalized.

    Raises DegenerateEvidenceError when the product is zero at every level
    (impossible for smoothed inputs, reachable for hand-built point masses).
    """
    return RatingDistribution.from_weights(pu[k] * pi[k] * pff[k] for k in RATING_LEVELS)


class SnrsPredictor:
    """Train-once wrapper: learns the three factor models for a dataset and
    answers per-cell predictions."""

    def __init__(self, dataset: Dataset, cfg: SnrsConfig = SnrsConfig()):
        self.cfg = cfg
        self._categories = dataset.categories
        self._graph = dataset.graph
        self._ratings = dataset.ratings
        self.preference, self.acceptance, self.friend_tables = learn_models(dataset, cfg)

    def components(self, u: int, i: int) -> tuple[RatingDistribution, RatingDistribution,
                                                  RatingDistribution]:
        """The three factor distributions for one cell, before combination:
        u's prior times item i's bit likelihood per category in index order,
        i's acceptance, and the table columns of the friends who rated i in
        ``friends_of`` order (uniform when no friend rated i)."""
        bit = self._categories.bit
        likelihoods = self.preference.likelihoods[u]
        raters = self._ratings.item_ratings(i)
        friends = self._graph.friends_of(u, self.cfg.friend_min_strength)
        return (
            _evidence(self.preference.priors[u],
                      [pair[bit(i, c)] for c, pair in enumerate(likelihoods)]),
            self.acceptance.dists[i],
            _evidence((1.0,) * N_LEVELS,
                      [self.friend_tables.column(u, v, raters[v])
                       for v, _strength in friends if v in raters]),
        )

    def rating_distribution(self, u: int, i: int) -> RatingDistribution:
        pu, pi, pff = self.components(u, i)
        return combine(pu, pi, pff)

    def predict(self, u: int, i: int) -> float:
        return self.predict_detailed(u, i).value

    def predict_detailed(self, u: int, i: int) -> Prediction:
        """Expected rating level under the combined distribution, taken over
        cfg.prediction_levels."""
        value = self.rating_distribution(u, i).expected_level(self.cfg.prediction_levels)
        return Prediction(value, None)
