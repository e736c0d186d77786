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
normalized result unchanged.  The friend product reads its largest weights
only at steps where, by the least entry a smoothed column can have, they
could have fallen that far.  The final prediction is the expectation of
the combined distribution.

Models are numpy arrays, learned with one mask of the ratings per level
and no one-hot array, and a predictor is read-only once learned.  Friend
co-ratings are counted per scoring call, for the slots of the graph's CSR
index that belong to the call's distinct users, into a new uninitialised
array over every slot of the index: 36 bytes per slot below 256 items and
72 (uint16 counts) from 256 up to 65535.  So a one-cell ``predict`` costs
O(the user's friend pairs x items) for its friend tables.  A batch of
cells is predicted at once: its friend columns are gathered with one
index, each product steps through its factors in a fixed order for all
cells together, and every sum runs left to right, so a cell's result has
the same bits whatever batch it is in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    Prediction,
    RelationshipGraph,
    SocialRecError,
    N_LEVELS,
    RATING_LEVELS,
    _check_graph_users,
    _check_integer,
    _is_integer,
    _is_real,
    _too_large,
    cell_array,
)

_SUM_TOLERANCE = 1e-9
_RESCALE_BELOW = 2.0 ** -500
# Each product of a weight and a step's entry rounds by at most 2**-53 of it.
_ROUNDING_MARGIN = 1 - 2.0 ** -40
# Entries of one block of the friend co-rating count: slots x (items + 36).
_BLOCK_CELLS = 2 ** 16
# Cells whose factor rows are built together: the step arrays grow with the
# cells times the users' friend counts, so a long batch runs in parts.
_BATCH_CELLS = 256


class DegenerateEvidenceError(SocialRecError, ValueError):
    """Every rating level was annihilated when combining evidence."""


class EmptyTrainingSetError(SocialRecError, ValueError):
    """The training ratings are empty, so no factor model can be learned."""


@dataclass(frozen=True)
class RatingDistribution:
    """Probability vector over the six rating levels 0..5.

    Entries are finite, non-negative and sum to 1 (within 1e-9), enforced
    at construction.  Instances are immutable.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if len(probs) != N_LEVELS:
            raise ValueError(f"need {N_LEVELS} probabilities, got {len(probs)}")
        if not all(math.isfinite(p) for p in probs):
            raise ValueError(f"non-finite probability in {probs}")
        if any(p < 0 for p in probs):
            raise ValueError(f"negative probability in {probs}")
        if not abs(sum(probs) - 1.0) <= _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, level: int) -> float:
        return self.probs[level]

    def __iter__(self):
        return iter(self.probs)

    def __repr__(self):
        inside = ", ".join(f"{p:.4f}" for p in self.probs)
        return f"RatingDistribution([{inside}])"

    def expected_level(self, levels: tuple[int, ...] = RATING_LEVELS) -> float:
        """Expectation of the distribution restricted to ``levels``.

        The restricted distribution is renormalized first, matching a
        weighted mean sum(p_k * k) / sum(p_k) over the kept levels.
        """
        return float(_expected_levels(np.array([self.probs]), levels)[0])


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from 0 as the built-in sum adds."""
    total = np.zeros(len(rows))
    for column in rows.T:
        total = total + column
    return total


def _normalise(weights: np.ndarray) -> np.ndarray:
    """Each row of non-negative weights divided by its sum.

    The first row whose weights sum to 0 raises DegenerateEvidenceError; the
    first row that fails a RatingDistribution check raises its ValueError.
    """
    with np.errstate(all="ignore"):
        total = _row_sum(weights)
        vanished = total <= 0
        if vanished.any():
            raise DegenerateEvidenceError(
                f"evidence vanished at every level "
                f"(weights sum to {float(total[vanished.argmax()])})")
        probs = weights / total[:, None]
        invalid = (~np.isfinite(probs).all(axis=1) | (probs < 0).any(axis=1)
                   | ~(np.abs(_row_sum(probs) - 1.0) <= _SUM_TOLERANCE))
    if invalid.any():
        RatingDistribution(probs[invalid.argmax()])
    return probs


def _expected_levels(probs: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
    """Each row's expectation restricted to ``levels``, as expected_level."""
    kept = probs[:, np.array(levels, dtype=np.intp)]
    mass = _row_sum(kept)
    if (mass <= 0).any():
        raise DegenerateEvidenceError(
            f"no probability mass on prediction levels {levels}")
    return _row_sum(kept * np.array(levels, dtype=np.float64)) / mass


def _smoothed(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Laplace-smoothed distributions of each row of integer level counts."""
    return (counts + alpha) / (_row_sum(counts) + N_LEVELS * alpha)[:, None]


@dataclass(frozen=True)
class SnrsConfig:
    laplace_alpha: float = 1.0
    friend_min_strength: int = 1
    prediction_levels: tuple[int, ...] = RATING_LEVELS

    def __post_init__(self):
        alpha = self.laplace_alpha
        if not (_is_real(type(alpha)) and alpha > 0 and math.isfinite(N_LEVELS * alpha)):
            raise ValueError(f"laplace_alpha must be a real number > 0 with {N_LEVELS} * "
                             f"laplace_alpha finite, got {alpha!r}")
        # a float, so that count + alpha cannot wrap in a count's unsigned type
        object.__setattr__(self, "laplace_alpha", float(alpha))
        _check_integer("friend_min_strength", self.friend_min_strength, 0)
        levels = tuple(self.prediction_levels)
        if not levels or not all(_is_integer(type(k)) and k in RATING_LEVELS for k in levels):
            raise ValueError(f"prediction_levels must be a non-empty subset of "
                             f"{RATING_LEVELS}")
        if len(set(levels)) != len(levels):
            raise ValueError("prediction_levels contains duplicates")
        object.__setattr__(self, "prediction_levels", levels)


class FriendConditionalTable:
    """6x6 conditional tables P(R_u = k | R_v = j) per ordered friend pair.

    Tables exist only for pairs whose edge strength reaches
    ``min_strength``.  User u's friends are
    ``friends[indptr[u]:indptr[u + 1]]``, in ``friends_of`` order, one slot
    per ordered pair: the slots of the graph's CSR index, so the graph must
    have the rating matrix's users.  A slot's 6x6 co-rating count is made
    as integers by each call that reads it and smoothed as a column is
    read, so every column is a smoothed distribution over k.  A table is
    read-only: ``column`` counts its one slot for that call alone.
    """

    def __init__(self, ratings: np.ndarray, graph: RelationshipGraph, min_strength: int,
                 alpha: float):
        self._ratings, self._alpha = ratings, alpha
        self.indptr, self.friends, _ = graph._csr(min_strength)

    def _slot(self, u: int, v: int) -> int | None:
        if not 0 <= u < len(self.indptr) - 1:
            return None
        low, high = self.indptr[u], self.indptr[u + 1]
        slot = low + int(np.searchsorted(self.friends[low:high], v))
        return slot if slot < high and self.friends[slot] == v else None

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._slot(*pair) is not None

    @property
    def n_pairs(self) -> int:
        return len(self.friends)

    def _slots(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every slot of each of ``users`` in turn, and the position in
        ``users`` of each slot's user."""
        starts = self.indptr[users]
        degrees = self.indptr[users + 1] - starts
        owners = np.repeat(np.arange(len(users)), degrees)
        return owners, _ranks(owners, degrees) + starts[owners]

    def _count(self, users: np.ndarray, owners: np.ndarray,
               slots: np.ndarray) -> np.ndarray:
        """A new slots x 6 x 6 array whose entries [slot, j, k], for each
        of ``slots``, count the items the slot's friend rated j and its
        user rated k, so none exceeds the items; slot ``slots[r]`` belongs
        to ``users[owners[r]]``, and other slots are left unset.  One
        bincount per block of slots."""
        counts = np.empty((len(self.friends), N_LEVELS, N_LEVELS),
                          dtype=np.min_scalar_type(self._ratings.shape[1]))
        block = max(1, _BLOCK_CELLS // (self._ratings.shape[1] + N_LEVELS * N_LEVELS))
        for start in range(0, len(slots), block):
            part = slice(start, start + block)
            a, b = self._ratings[self.friends[slots[part]]], self._ratings[users[owners[part]]]
            keys = N_LEVELS * (N_LEVELS * np.arange(len(a))[:, None] + a) + b
            counts[slots[part]] = np.bincount(
                keys[(a >= 0) & (b >= 0)], minlength=len(a) * N_LEVELS * N_LEVELS
            ).reshape(-1, N_LEVELS, N_LEVELS)
        return counts

    def _columns(self, counts: np.ndarray, slots: np.ndarray,
                 levels: np.ndarray) -> np.ndarray:
        """Row r is the column of slot ``slots[r]`` at friend level
        ``levels[r]``, from ``counts`` made by ``_count`` for its user."""
        return _smoothed(counts[slots, levels], self._alpha)

    def column(self, u: int, v: int, j: int) -> tuple[float, ...]:
        """P(user u rates k | friend v rated j) for k = 0..5.  Raises
        ValueError for a level j that is not an integer in 0..5."""
        if not (_is_integer(type(j)) and 0 <= j < N_LEVELS):
            raise ValueError(f"friend level {j!r} outside 0..{N_LEVELS - 1}")
        slot = self._slot(u, v)
        if slot is None:
            raise KeyError((u, v))
        counts = self._count(np.array([u]), np.zeros(1, dtype=np.intp), np.array([slot]))
        return tuple(self._columns(counts, np.array([slot]), np.array([j]))[0].tolist())


def _evidence(weights: np.ndarray, steps, floor: float = 0.0) -> np.ndarray:
    """Normalized product of each row of ``weights`` with the matching row
    of every step, in order.

    Whenever a row's largest weight falls below 2**-500, the row is scaled
    by the power of two that brings it into [0.5, 1); the rescale is exact,
    so the normalized distribution does not change.  ``floor`` is a lower
    bound on every entry of every step, so a step takes each row's largest
    weight to at least ``floor`` times it, less a margin for rounding.  The
    largest weights are read only at a step where that bound, carried from
    the last read, could be below 2**-500: at every step when ``floor`` is
    0.  So every rescale happens at the step where a read at every step
    would make it.
    """
    shrink = floor * _ROUNDING_MARGIN
    least = 0.0  # a lower bound on every row's largest weight
    for step in steps:
        weights = weights * step
        least *= shrink
        if least >= _RESCALE_BELOW:
            continue
        top = weights.max(axis=1)
        low = top < _RESCALE_BELOW
        if low.any():
            _, exponent = np.frexp(top[low])
            weights[low] = np.ldexp(weights[low], -exponent[:, None])
            top[low] = np.ldexp(top[low], -exponent)
        least = top.min(initial=np.inf)
    return _normalise(weights)


def _ranks(groups: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each entry's position within its group, for entries sorted by group
    and ``sizes[g]`` entries in group g."""
    return np.arange(len(groups)) - (np.cumsum(sizes) - sizes)[groups]


def _combine(pu: np.ndarray, pi: np.ndarray, pff: np.ndarray) -> np.ndarray:
    return _normalise(pu * pi * pff)


def combine(pu: RatingDistribution, pi: RatingDistribution,
            pff: RatingDistribution) -> RatingDistribution:
    """Per-level product of the three factors, renormalized.

    Raises DegenerateEvidenceError when the product is zero at every level
    (impossible for smoothed inputs, reachable for hand-built point masses).
    """
    return RatingDistribution(_combine(*(np.array([d.probs]) for d in (pu, pi, pff)))[0])


class SnrsPredictor:
    """Train-once engine: counts and smooths the three factor models of a
    dataset, then predicts batches of cells.

    The models are arrays, Laplace-smoothed with cfg.laplace_alpha:

    * ``priors[u]`` is user u's distribution over the rating levels;
    * ``likelihoods[u, c, b, k]`` is the probability that an item's
      category-c bit is b given that user u rates the item at level k;
    * ``acceptance[i]`` is the distribution of the ratings item i received,
      an items x 6 array;
    * ``friend_tables`` is the FriendConditionalTable of the friend pairs
      whose strength reaches cfg.friend_min_strength.

    Priors, per-category bit counts and item acceptance counts are integer
    sums over each level's users x items mask of the ratings.  Batch
    scoring, ``components`` and ``rating_distribution`` build their factor
    rows through one path.  A predictor is read-only once learned: each
    scoring call first counts the friend table slots of its distinct users
    into a new array over every slot of the table (36 bytes per slot below
    256 items, 72 from 256), so ``predict`` costs O(the user's friend pairs
    x items) there.  Raises EmptyTrainingSetError when the training set has
    no ratings at all, ValueError when the graph does not have the rating
    matrix's users, and TableTooLargeError when numpy cannot allocate the
    models or a call's friend pair counts.
    """

    def __init__(self, dataset: Dataset, cfg: SnrsConfig = SnrsConfig()):
        if dataset.ratings.n_rated == 0:
            raise EmptyTrainingSetError("empty training set: no ratings to learn from")
        self.cfg = cfg
        self._ratings = dataset.ratings.dense()
        self._bits = dataset.categories.dense()
        alpha = cfg.laplace_alpha
        (n_users, n_items), n_categories = self._ratings.shape, self._bits.shape[1]
        _check_graph_users(dataset.graph, n_users)
        self._models_name = (f"the snrs models of {n_users} users, {n_items} items and "
                             f"{n_categories} categories")
        with _too_large(self._models_name):
            counts = np.empty((n_users, N_LEVELS), dtype=np.int64)
            accepted = np.empty((n_items, N_LEVELS), dtype=np.int64)
            ones = np.empty((n_users, n_categories, N_LEVELS))
            bits = self._bits.astype(np.float64)
            for k in range(N_LEVELS):
                rated_k = self._ratings == k
                counts[:, k] = rated_k.sum(axis=1)
                accepted[:, k] = rated_k.sum(axis=0)
                ones[:, :, k] = rated_k @ bits  # exact: integer sums below 2**53
            present = (ones + alpha) / (counts[:, None, :] + 2 * alpha)
            self.priors = _smoothed(counts, alpha)
            self.likelihoods = np.stack([1.0 - present, present], axis=2)
            self.acceptance = _smoothed(accepted, alpha)
            self.friend_tables = FriendConditionalTable(self._ratings, dataset.graph,
                                                        cfg.friend_min_strength, alpha)
        # no smoothed friend column has an entry below this
        self._friend_floor = alpha / (n_items + N_LEVELS * alpha)

    def _friend_steps(self, users: np.ndarray, items: np.ndarray, counts: np.ndarray):
        """The friend-inference columns of each cell, gathered at once as a
        steps x n x 6 array: step t holds each cell's t-th column, or 1.0
        once a cell has no more.  A cell's columns are those of its friends
        who rated the item, in ``friends_of`` order, from ``counts``."""
        tables = self.friend_tables
        cells, slots = tables._slots(users)
        levels = self._ratings[tables.friends[slots], items[cells]]
        rated = levels >= 0
        cells, slots, levels = cells[rated], slots[rated], levels[rated]
        columns = np.vstack([tables._columns(counts, slots, levels), np.ones(N_LEVELS)])
        per_cell = np.bincount(cells, minlength=len(users))
        index = np.full((per_cell.max(initial=0), len(users)), len(cells))  # the 1.0 row
        index[_ranks(cells, per_cell), cells] = np.arange(len(cells))
        return columns[index]

    def _factors(self, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Preference, acceptance and friend-inference rows for each
        (user, item) cell: u's prior times item i's bit likelihood per
        category in index order, i's acceptance, and the table columns of
        the friends who rated i (uniform when none did).  The friend table
        slots of the cells' distinct users are counted once, and the rows
        are built in parts of _BATCH_CELLS cells."""
        at = cell_array(cells, self._ratings.shape)
        # a mask, not np.unique, whose first call alone raises peak RSS ~1.5 MB
        wanted = np.zeros(len(self._ratings), dtype=bool)
        wanted[at[:, 0]] = True
        users = np.flatnonzero(wanted)
        tables, likelihoods = self.friend_tables, self.likelihoods
        with _too_large(self._models_name):
            counts = tables._count(users, *tables._slots(users))
        pu, pff = np.empty((2, len(at), N_LEVELS))
        for start in range(0, len(at), _BATCH_CELLS):
            part = slice(start, start + _BATCH_CELLS)
            users, items = at[part].T
            bits = self._bits[items]
            pu[part] = _evidence(self.priors[users], (likelihoods[users, c, bits[:, c]]
                                                      for c in range(bits.shape[1])))
            pff[part] = _evidence(np.ones((len(users), N_LEVELS)),
                                  self._friend_steps(users, items, counts), self._friend_floor)
        return pu, self.acceptance[at[:, 1]], pff

    def _score(self, cells) -> tuple[np.ndarray, list[None]]:
        """The values and fallbacks of a batch of (user, item) cells: each
        value is the expected rating level under the combined distribution,
        taken over cfg.prediction_levels, and no cell falls back."""
        values = _expected_levels(_combine(*self._factors(cells)), self.cfg.prediction_levels)
        return values, [None] * len(values)

    def predict_many(self, cells) -> list[Prediction]:
        """One prediction per (user, item) cell of a sequence, in order."""
        values, fallbacks = self._score(cells)
        return list(map(Prediction, values.tolist(), fallbacks))

    def components(self, u: int, i: int) -> tuple[RatingDistribution, RatingDistribution,
                                                  RatingDistribution]:
        """The three factor distributions for one cell, before combination."""
        return tuple(RatingDistribution(rows[0]) for rows in self._factors([(u, i)]))

    def rating_distribution(self, u: int, i: int) -> RatingDistribution:
        return RatingDistribution(_combine(*self._factors([(u, i)]))[0])

    def predict(self, u: int, i: int) -> float:
        return self.predict_detailed(u, i).value

    def predict_detailed(self, u: int, i: int) -> Prediction:
        return self.predict_many([(u, i)])[0]
