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

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Dataset,
    Prediction,
    RatingMatrix,
    SocialRecError,
    _check_graph_users,
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
    "round_rating",
]

SCOPE_ALL = "all-users"
SCOPE_FRIENDS = "friends-only"


class ColdStartError(SocialRecError):
    """The training set has no ratings, so no mean-based prediction exists."""


@dataclass(frozen=True)
class CfConfig:
    neighbor_k: int = 20
    co_rate_min: int = 2
    neighbor_scope: str = SCOPE_ALL

    def __post_init__(self):
        if not isinstance(self.neighbor_k, int) or self.neighbor_k < 1:
            raise ValueError("neighbor_k must be an int >= 1")
        if not isinstance(self.co_rate_min, int) or self.co_rate_min < 2:
            raise ValueError("co_rate_min must be an int >= 2 (one shared item has no variance)")
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


# Rated users per block of SimilarityCache.build.  A block holds about a
# dozen float64 arrays of block users x rated users, so 512 rows keep a
# 5000-user build to a few hundred MB.
_BUILD_BLOCK = 512
# Padded (cell, candidate neighbour) entries per window of the scoring
# kernel.  Each entry takes about 100 bytes of temporaries; at the 80x80
# benchmark shape 2**14 entries raised the process peak by 2 MB and 2**12
# by under 1 MB, at the same speed.
_CHUNK_ENTRIES = 2 ** 12


class SimilarityCache:
    """Precomputed Pearson similarities of user pairs, one row per user.

    Built once from a rating matrix, with every user's row or only the rows
    of some users (the others empty), each over every rated user or only the
    user's friends, and immutable afterwards.  The defined similarities are
    one CSR table: user u's row is the int32 user indices
    ``neighbors[indptr[u]:indptr[u + 1]]`` with the float64 ``similarities``
    alongside, in neighbour order: similarity descending, ties by ascending
    user index.  A pair missing from a built row has an undefined similarity
    or, in a friends-only row, is no friendship.  ``positive[u]`` counts the
    strictly positive similarities, which open u's row.
    """

    def __init__(self, indptr, neighbors, similarities):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int32)
        self.similarities = np.asarray(similarities, dtype=np.float64)
        for array in (self.indptr, self.neighbors, self.similarities):
            array.flags.writeable = False
        self.n_users = len(self.indptr) - 1
        # The appended False lets the last row's sum start inside the array,
        # and an empty row's sum, which reduceat reads as the next row's
        # first entry, is zeroed.
        positive = np.append(self.similarities > 0, False)
        self.positive = (np.add.reduceat(positive, self.indptr[:-1], dtype=np.int64)
                         * (np.diff(self.indptr) > 0))

    @classmethod
    def build(cls, ratings: RatingMatrix, co_rate_min: int = 2,
              rows=None, friends=None) -> "SimilarityCache":
        """The rows of the user indices ``rows`` (every user's when None) as
        Gram products over the rated users, one block of rows at a time; the
        other users' rows are empty.  Given ``friends``, a friendship CSR
        ``(indptr, friends)`` over the matrix's users, each row keeps only
        the user's friends, in the same order.

        With R the rated users' ``dense()`` rows (-1 read as 0), M their 0/1
        mask and n = M·Mᵀ the co-rated counts, Sx = R·Mᵀ, Sxx = (R∘R)·Mᵀ and
        Sxy = R·Rᵀ are each pair's sums over its co-rated items.
        A = n·Sxx − Sx² (``spread``), uv = n·(n·Sxy − Sx·Sxᵀ), uu = n·A and
        vv = n·Aᵀ = uuᵀ are the integers pearson_correlation builds.  The
        arrays are float64, but every sum, and every product of two sums,
        is an integer below 2**53 (up to about 10**7 items), so each is exact
        whatever the BLAS library, summation order or thread count, and uv,
        uu and vv are the exact integers rounded once, as float() rounds
        them.  float(uu)·float(vv) rounds like float(uu·vv) while both stay
        below 2**53 (up to about 10**5 co-rated items), so every similarity
        is bit-identical to pearson_correlation, and a row is the same in
        whichever block, or with whichever other rows, it is built.  Each
        block B of the requested rated users gets the transposed sums Sxᵀ
        and Aᵀ from M_B·Rᵀ and M_B·(R∘R)ᵀ.
        """
        dense = ratings.dense()
        users = np.flatnonzero((dense >= 0).any(axis=1))
        wanted = np.arange(len(users)) if rows is None else np.flatnonzero(np.isin(users, rows))
        rated = np.maximum(dense[users], 0).astype(np.float64)
        mask = (dense[users] >= 0).astype(np.float64)
        squared = rated * rated
        counts = np.zeros(ratings.n_users, dtype=np.int64)
        neighbors, similarities = [np.zeros(0, np.int32)], [np.zeros(0)]
        for start in range(0, len(wanted), _BUILD_BLOCK):
            block = wanted[start:start + _BUILD_BLOCK]
            n = mask[block] @ mask.T
            sx = rated[block] @ mask.T
            spread = n * (squared[block] @ mask.T) - sx * sx
            sy = mask[block] @ rated.T
            spread_t = n * (mask[block] @ squared.T) - sy * sy
            uv = n * (n * (rated[block] @ rated.T) - sx * sy)
            uu, vv = n * spread, n * spread_t
            defined = (n >= co_rate_min) & (spread != 0) & (spread_t != 0)
            own = np.arange(len(n))
            defined[own, block] = False
            if friends is not None:
                row_of = np.full(ratings.n_users, -1)
                row_of[users[block]] = own
                edge_row = np.repeat(row_of, np.diff(friends[0]))  # -1: not a block user's
                edge = edge_row >= 0
                allowed = np.zeros((len(block), ratings.n_users), dtype=bool)
                allowed[edge_row[edge], friends[1][edge]] = True
                defined &= allowed[:, users]
            sims = np.divide(uv, np.sqrt(uu * vv), out=np.zeros(uv.shape), where=defined)
            # a stable sort keeps equal similarities in ascending user order;
            # the undefined pairs sort last and are cut off
            order = np.argsort(np.where(defined, -sims, np.inf), axis=1, kind="stable")
            size = defined.sum(axis=1)
            col = order[np.arange(len(users)) < size[:, None]]
            neighbors.append(users[col].astype(np.int32))
            similarities.append(sims[np.repeat(own, size), col])
            counts[users[block]] = size
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(indptr, np.concatenate(neighbors), np.concatenate(similarities))

    def _check_user(self, u: int) -> None:
        if not 0 <= u < self.n_users:
            raise IndexError(f"user index {u} outside 0..{self.n_users - 1}")

    def row(self, u: int) -> dict[int, float]:
        """u's defined similarities in neighbour order, as a new dict.
        Raises IndexError for a user outside 0..n_users-1."""
        self._check_user(u)
        span = slice(self.indptr[u], self.indptr[u + 1])
        return dict(zip(self.neighbors[span].tolist(), self.similarities[span].tolist()))

    def similarity(self, u: int, n: int) -> float | None:
        """The similarity of users u and n, None where undefined.  Raises
        IndexError for a user outside 0..n_users-1."""
        self._check_user(u)
        self._check_user(n)
        if u == n:
            raise ValueError("similarity of a user with themselves is undefined")
        start = self.indptr[u]
        (at,) = np.nonzero(self.neighbors[start:self.indptr[u + 1]] == n)
        return float(self.similarities[start + at[0]]) if len(at) else None

    def pairs(self):
        """Every ((u, n), similarity) with u < n over all users, None where
        undefined, generated on demand."""
        for u in range(self.n_users):
            row = self.row(u)
            for n in range(u + 1, self.n_users):
                yield (u, n), row.get(n)


def _select(at: np.ndarray, ratings: RatingMatrix, cache: SimilarityCache,
            cfg: CfConfig) -> tuple[np.ndarray, np.ndarray]:
    """The mean-centred weighted average of each (user, item) row of ``at``:
    the user's mean plus numerator / denominator, or the mean alone without
    neighbours (NaN for a user without ratings).  Also a cells x k block of
    the cache entries of the neighbours each cell uses, in rank order, with
    -1 past a cell's last neighbour.

    A cell's candidates are the positive-similarity prefix of its user's
    row, which in friends-only scope holds only friends.  An entry is usable
    when its neighbour rated the item, and the first neighbor_k usable
    entries are kept.  Cells are scored a chunk at a time, each chunk in
    windows of the prefixes padded into a cells x width block that holds
    about _CHUNK_ENTRIES entries; a cell leaves once it has its neighbours
    or no candidates are left.  Each kept entry goes to column rank - 1 of
    the block and its terms to that column of a block of zeros; each sum is
    the last column of a cumsum, which adds left to right, so it equals the
    float that a loop over the kept neighbours in neighbour order gives.
    """
    dense, means = ratings.dense(), ratings.means()
    # no cell has more candidates than the longest prefix, so a larger
    # neighbor_k keeps the same entries
    k = max(1, min(cfg.neighbor_k, int(cache.positive.max(initial=0))))
    # a numpy n_items makes the flat indices of int32 neighbours int64
    flat, n_items = dense.reshape(-1), np.intp(dense.shape[1])
    values, blocks = [np.zeros(0)], [np.zeros((0, k), np.intp)]
    step = max(1, _CHUNK_ENTRIES // k)
    for chunk in range(0, len(at), step):
        user, item = at[chunk:chunk + step].T
        begin = cache.indptr[user]
        end = begin + cache.positive[user]
        found = np.zeros(len(user), dtype=np.int64)
        block = np.full((len(user), k), -1, dtype=np.intp)
        active = np.flatnonzero(end > begin)
        while len(active):
            width = max(k, _CHUNK_ENTRIES // len(active))
            entry = begin[active, None] + np.arange(width)
            last = end[active, None] - 1
            usable = entry <= last
            np.minimum(entry, last, out=entry)
            at_item = cache.neighbors[entry] * n_items
            at_item += item[active, None]
            usable &= flat[at_item] >= 0
            rank = np.cumsum(usable, axis=1)
            rank += found[active, None]
            hit = np.flatnonzero(usable & (rank <= k))
            block[active[hit // width], rank.ravel()[hit] - 1] = entry.ravel()[hit]
            found[active] = rank[:, -1]
            begin[active] += width
            active = active[(found[active] < k) & (begin[active] < end[active])]
        kept = np.flatnonzero(block >= 0)
        entry, cell = block.ravel()[kept], kept // k
        neighbor, sim = cache.neighbors[entry], cache.similarities[entry]
        weight, term = np.zeros((2, *block.shape))
        weight.ravel()[kept] = sim
        term.ravel()[kept] = sim * (flat[neighbor * n_items + item[cell]] - means[neighbor])
        used = found > 0
        ratio = np.divide(np.cumsum(term, axis=1)[:, -1], np.cumsum(weight, axis=1)[:, -1],
                          out=np.zeros(len(user)), where=used)
        values.append(np.where(used, means[user] + ratio, means[user]))
        blocks.append(block)
    return np.concatenate(values), np.concatenate(blocks)


class CfPredictor:
    """Train-once wrapper: answers predictions for batches of cells from a
    dataset's ratings.  Each scoring call builds the similarity rows of its
    batch's distinct users, and only those, so a loop over cells pays one
    row build per call: batch the cells with predict_many."""

    def __init__(self, dataset: Dataset, cfg: CfConfig = CfConfig()):
        self.cfg = cfg
        self._ratings = dataset.ratings
        self._friends = None
        if cfg.neighbor_scope == SCOPE_FRIENDS:
            _check_graph_users(dataset.graph, dataset.ratings.n_users)
            self._friends = dataset.graph._csr(1)[:2]
        self._global_mean = dataset.ratings.global_mean()

    @functools.cached_property
    def cache(self) -> SimilarityCache:
        """Every user's row of every defined pair, in either scope, built on
        first read."""
        return SimilarityCache.build(self._ratings, self.cfg.co_rate_min)

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

    def _score(self, cells,
               ) -> tuple[np.ndarray, list[str | None], np.ndarray, SimilarityCache]:
        """The values and fallbacks of a batch of (user, item) cells, then
        _select's block of the neighbour entries each cell uses and the
        cache of the batch users' rows that the entries index."""
        at = cell_array(cells, self._ratings.dense().shape)
        if self._global_mean is None and len(at):
            raise ColdStartError(f"cold start: {user_label(int(at[0, 0]))} has no ratings "
                                 f"and the dataset has no other ratings to average")
        cache = SimilarityCache.build(self._ratings, self.cfg.co_rate_min, at[:, 0],
                                      self._friends)
        values, block = _select(at, self._ratings, cache, self.cfg)
        unrated = np.isnan(values)
        fallbacks = np.where(block[:, 0] >= 0, None,
                             np.where(unrated, "global-mean", "user-mean")).tolist()
        values[unrated] = self._global_mean
        return values, fallbacks, block, cache

    def predict_many(self, cells) -> list[Prediction]:
        """predict_detailed for each (user, item) cell, in order, scored as
        one batch."""
        values, fallbacks, block, cache = self._score(cells)
        entry = block[block >= 0]  # row-major: by cell, each cell's in rank order
        pairs = list(zip(cache.neighbors[entry].tolist(), cache.similarities[entry].tolist()))
        ends = np.cumsum((block >= 0).sum(axis=1)).tolist()
        return [Prediction(value, fallback, tuple(pairs[a:b])) for value, fallback, a, b
                in zip(values.tolist(), fallbacks, [0, *ends], ends)]
