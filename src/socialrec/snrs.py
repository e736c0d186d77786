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
positive and the product can never annihilate a rating level.  The final
prediction is the expectation of the combined distribution.
"""

from dataclasses import dataclass

from .model import (
    Dataset,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    SocialRecError,
    N_LEVELS,
    RATING_LEVELS,
)

_SUM_TOLERANCE = 1e-9


class DegenerateEvidenceError(SocialRecError):
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
        """Normalize a vector of non-negative weights into a distribution."""
        weights = [float(w) for w in weights]
        total = sum(weights)
        if total <= 0:
            raise ValueError(f"cannot normalize weights with total {total}")
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


class UserPreferenceModel:
    """Per-user rating priors and per-category bit conditionals.

    ``attr_prob(u, c, k)`` is the smoothed probability that an item carries
    category c given that user u rates it at level k.
    """

    def __init__(self, priors: list[tuple[float, ...]],
                 conditionals: list[list[tuple[float, ...]]]):
        self._priors = priors
        self._conditionals = conditionals  # [user][category][level] -> P(bit=1)

    @property
    def n_users(self) -> int:
        return len(self._priors)

    @property
    def n_categories(self) -> int:
        return len(self._conditionals[0]) if self._conditionals else 0

    def prior(self, u: int) -> RatingDistribution:
        return RatingDistribution(self._priors[u])

    def attr_prob(self, u: int, c: int, k: int) -> float:
        return self._conditionals[u][c][k]


class ItemAcceptanceModel:
    """Smoothed distribution of the ratings each item has received."""

    def __init__(self, dists: list[tuple[float, ...]]):
        self._dists = dists

    @property
    def n_items(self) -> int:
        return len(self._dists)

    def acceptance(self, i: int) -> RatingDistribution:
        return RatingDistribution(self._dists[i])


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

    Friend tables are counted once per unordered friend pair: one 6x6
    co-rating count gives both the (u, v) and the (v, u) table.  Equal count
    columns share one smoothed tuple.

    Raises EmptyTrainingSetError when the training set has no ratings at all.
    """
    ratings, categories, graph = train.ratings, train.categories, train.graph
    if ratings.n_rated == 0:
        raise EmptyTrainingSetError("empty training set: no ratings to learn from")
    alpha = cfg.laplace_alpha

    priors = []
    conditionals = []
    for u in range(ratings.n_users):
        row = ratings.user_ratings(u)
        n = len(row)
        counts = [0] * N_LEVELS
        for r in row.values():
            counts[r] += 1
        priors.append(tuple((counts[k] + alpha) / (n + N_LEVELS * alpha)
                            for k in RATING_LEVELS))
        per_category = []
        for c in range(categories.n_categories):
            bit_counts = [0] * N_LEVELS
            for i, r in row.items():
                if categories.bit(i, c):
                    bit_counts[r] += 1
            per_category.append(tuple((bit_counts[k] + alpha) / (counts[k] + 2 * alpha)
                                      for k in RATING_LEVELS))
        conditionals.append(per_category)
    preference = UserPreferenceModel(priors, conditionals)

    item_dists = []
    for i in range(ratings.n_items):
        column = ratings.item_ratings(i)
        counts = [0] * N_LEVELS
        for r in column.values():
            counts[r] += 1
        item_dists.append(tuple((counts[k] + alpha) / (len(column) + N_LEVELS * alpha)
                                for k in RATING_LEVELS))
    acceptance = ItemAcceptanceModel(item_dists)

    columns: dict[tuple[int, ...], tuple[float, ...]] = {}

    def smoothed(counts: list[int]) -> tuple[float, ...]:
        key = tuple(counts)
        column = columns.get(key)
        if column is None:
            total = sum(counts)
            column = columns[key] = tuple((n + alpha) / (total + N_LEVELS * alpha)
                                          for n in counts)
        return column

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


def user_preference_prob(u: int, i: int, model: UserPreferenceModel,
                         categories: ItemCategoryMatrix,
                         cfg: SnrsConfig = SnrsConfig()) -> RatingDistribution:
    """Naive-Bayes posterior over u's rating level for an item with i's
    category bits: prior times the per-category bit likelihoods, normalized."""
    prior = model.prior(u)
    weights = []
    for k in RATING_LEVELS:
        w = prior[k]
        for c in range(categories.n_categories):
            p_one = model.attr_prob(u, c, k)
            w *= p_one if categories.bit(i, c) else 1.0 - p_one
        weights.append(w)
    return RatingDistribution.from_weights(weights)


def item_acceptance_prob(i: int, model: ItemAcceptanceModel,
                         cfg: SnrsConfig = SnrsConfig()) -> RatingDistribution:
    """General acceptance of item i: its smoothed training rating
    distribution (uniform for an item nobody rated)."""
    return model.acceptance(i)


def friend_inference_prob(u: int, i: int, tables: FriendConditionalTable,
                          graph: RelationshipGraph, train: RatingMatrix,
                          cfg: SnrsConfig = SnrsConfig()) -> RatingDistribution:
    """Distribution over u's level implied by friends who rated item i.

    Multiplies each such friend's conditional column at the friend's
    observed rating, then normalizes; uniform when no friend rated i.
    """
    weights = [1.0] * N_LEVELS
    found = False
    raters = train.item_ratings(i)
    for v, _strength in graph.friends_of(u, cfg.friend_min_strength):
        rating_v = raters.get(v)
        if rating_v is None:
            continue
        found = True
        column = tables.column(u, v, rating_v)
        weights = [w * p for w, p in zip(weights, column)]
    if not found:
        return RatingDistribution.uniform()
    return RatingDistribution.from_weights(weights)


def combine(pu: RatingDistribution, pi: RatingDistribution,
            pff: RatingDistribution) -> RatingDistribution:
    """Per-level product of the three factors, renormalized.

    Raises DegenerateEvidenceError when the product is zero at every level
    (impossible for smoothed inputs, reachable for hand-built point masses).
    """
    weights = [pu[k] * pi[k] * pff[k] for k in RATING_LEVELS]
    total = sum(weights)
    if total <= 0:
        raise DegenerateEvidenceError("evidence product vanished at every level")
    return RatingDistribution(w / total for w in weights)


def predict_snrs(u: int, i: int, preference: UserPreferenceModel,
                 acceptance: ItemAcceptanceModel, tables: FriendConditionalTable,
                 categories: ItemCategoryMatrix, graph: RelationshipGraph,
                 train: RatingMatrix, cfg: SnrsConfig = SnrsConfig()) -> float:
    """Expected rating level under the combined distribution, taken over
    cfg.prediction_levels."""
    pu = user_preference_prob(u, i, preference, categories, cfg)
    pi = item_acceptance_prob(i, acceptance, cfg)
    pff = friend_inference_prob(u, i, tables, graph, train, cfg)
    return combine(pu, pi, pff).expected_level(cfg.prediction_levels)


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
        """The three factor distributions for one cell, before combination."""
        return (
            user_preference_prob(u, i, self.preference, self._categories, self.cfg),
            item_acceptance_prob(i, self.acceptance, self.cfg),
            friend_inference_prob(u, i, self.friend_tables, self._graph,
                                  self._ratings, self.cfg),
        )

    def rating_distribution(self, u: int, i: int) -> RatingDistribution:
        pu, pi, pff = self.components(u, i)
        return combine(pu, pi, pff)

    def predict(self, u: int, i: int) -> float:
        return self.rating_distribution(u, i).expected_level(self.cfg.prediction_levels)
