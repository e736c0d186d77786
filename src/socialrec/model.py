"""Core domain types: friendship graph, rating matrix, item categories.

All three structures use dense 0-based integer indices internally and
1-based display labels ("U51", "I5", "C3") at the file and CLI surface.
Ratings and relationship strengths share the same 0..5 integer scale.
"""

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

RATING_MIN = 0
RATING_MAX = 5
RATING_LEVELS = tuple(range(RATING_MIN, RATING_MAX + 1))
N_LEVELS = len(RATING_LEVELS)


class SocialRecError(Exception):
    """Base class for errors raised by this package."""


class TableTooLargeError(SocialRecError):
    """A table's dense array cannot be allocated at its declared shape."""


def user_label(index: int) -> str:
    return f"U{index + 1}"


def item_label(index: int) -> str:
    return f"I{index + 1}"


def category_label(index: int) -> str:
    return f"C{index + 1}"


def is_number(token: str) -> bool:
    """True for a non-empty run of ASCII digits; str.isdigit alone also
    accepts digits such as "²" or "٣"."""
    return token.isascii() and token.isdigit()


def parse_label(label: str, kind: str) -> int:
    """Convert a display label like "U51" back to its 0-based index.

    ``kind`` is the expected prefix letter: "U", "I" or "C".
    """
    text = label.strip()
    if not text.startswith(kind) or not is_number(text[1:]):
        raise ValueError(f"malformed {kind!r} label: {label!r}")
    number = int(text[1:])
    if number < 1:
        raise ValueError(f"label numbers start at 1: {label!r}")
    return number - 1


def round_rating(x: float) -> int:
    """Round to the nearest rating level: half away from zero, clamped to 0..5."""
    if not math.isfinite(x):
        raise ValueError(f"cannot round non-finite value {x!r}")
    if x >= 0:
        rounded = math.floor(x + 0.5)
    else:
        rounded = math.ceil(x - 0.5)
    return min(RATING_MAX, max(RATING_MIN, rounded))


@contextmanager
def _too_large(what: str) -> Iterator[None]:
    """Raise an array request for ``what`` that numpy cannot meet as
    TableTooLargeError: a MemoryError, or the ValueError or OverflowError
    of a size beyond any array.  Wrap only the allocating calls."""
    try:
        yield
    except (MemoryError, ValueError, OverflowError) as exc:
        raise TableTooLargeError(f"cannot hold {what} in memory: {exc}") from exc


def _column(values: list) -> np.ndarray:
    """``values`` as an int64 array, or as an object array holding them as
    given when they are not all ints within int64."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(values, dtype=object, count=len(values))


def cell_array(cells, shape: tuple[int, int]) -> np.ndarray:
    """The (user, item) ``cells`` as an n x 2 index array.  A cell with an
    index that is not an integer raises ValueError naming the cell, and a
    cell outside the users x items ``shape``, negative indices included,
    ValueError naming the first such cell and the shape."""
    at = np.asarray(cells)
    if at.size and at.dtype.kind not in "iu":
        # floats, strings, or ints beyond int64: each index is checked as given
        for cell in cells:
            if not all(isinstance(index, numbers.Integral) for index in cell):
                raise ValueError(f"cell {tuple(cell)!r} has an index that is not an integer")
        at = np.array(cells, dtype=object)
    at = at.reshape(-1, 2)
    outside = (at < 0) | (at >= shape)
    if outside.any():
        u, i = at[outside.any(axis=1).argmax()].tolist()
        raise ValueError(f"cell ({u}, {i}) outside the {shape[0]}x{shape[1]} rating matrix")
    return at.astype(np.intp)


class RelationshipGraph:
    """Symmetric weighted friendship graph over ``n_users`` nodes.

    Edges are keyed by user pair and carry an integer strength 0..5
    (0 is "extreme dislike", 5 "best friends").  An absent pair means the
    two users do not know each other, which is distinct from strength 0.
    Edges may be supplied under either orientation and are stored under
    their (low, high) key; a pair supplied twice with different strengths
    raises ValueError.

    The edges are fixed at construction and held as three read-only arrays
    in insertion order: ``low`` and ``high`` user indices and ``strengths``.
    They are int64, or object arrays holding the values as given when some
    are not ints within int64, for validate_dataset to report.  A CSR index
    over them, built once on first use, lists each user's neighbours by
    ascending index with the strengths of their edges.  It is the one
    friendship index: ``friends_of``, ``strength``, snrs, cf's friends-only
    scope and the generator's fill all read it.  ``edges`` builds a
    read-only mapping from the arrays when read.
    """

    def __init__(self, n_users: int, edges: Mapping[tuple[int, int], int] | None = None):
        edges = edges or {}
        canonical: dict[tuple[int, int], int] = {}
        for (x, y), s in edges.items():
            if x <= y:
                canonical[(x, y)] = s
            elif (y, x) not in edges:
                canonical[(y, x)] = s
            elif edges[(y, x)] != s:
                raise ValueError(f"conflicting strengths for pair {user_label(y)}/"
                                 f"{user_label(x)}: {edges[(y, x)]} and {s}")
        self._hold(n_users, _column([x for x, _ in canonical]),
                   _column([y for _, y in canonical]), _column(list(canonical.values())))

    @classmethod
    def _from_arrays(cls, n_users: int, low: np.ndarray, high: np.ndarray,
                     strengths: np.ndarray) -> "RelationshipGraph":
        """The graph of distinct edges given as arrays with low <= high, kept
        as they are (not copied)."""
        graph = cls.__new__(cls)
        graph._hold(n_users, low, high, strengths)
        return graph

    def _hold(self, n_users: int, low: np.ndarray, high: np.ndarray,
              strengths: np.ndarray) -> None:
        if n_users < 0:
            raise ValueError("n_users must be >= 0")
        self.n_users = n_users
        for array in (low, high, strengths):
            array.flags.writeable = False
        self.low, self.high, self.strengths = low, high, strengths
        self._csr_index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _csr(self, min_strength: int | None = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbours, strengths): user u's neighbours in ascending
        order and the strengths of their edges, at
        ``indptr[u]:indptr[u + 1]``.  A self-edge is listed once.  Given
        ``min_strength``, only the slots of edges that strong, with indptr
        re-based over them."""
        if self._csr_index is None:
            other = self.low != self.high
            users = np.concatenate([self.low, self.high[other]])
            neighbours = np.concatenate([self.high, self.low[other]])
            order = np.lexsort((neighbours, users))
            indptr = np.searchsorted(users[order], np.arange(self.n_users + 1))
            strengths = np.concatenate([self.strengths, self.strengths[other]])[order]
            self._csr_index = indptr, neighbours[order], strengths
        if min_strength is None:
            return self._csr_index
        indptr, neighbours, strengths = self._csr_index
        keep = strengths >= min_strength
        return np.concatenate([[0], np.cumsum(keep)])[indptr], neighbours[keep], strengths[keep]

    def _row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= u < self.n_users:
            raise IndexError(f"user index {u} outside 0..{self.n_users - 1}")
        indptr, neighbours, strengths = self._csr()
        span = slice(indptr[u], indptr[u + 1])
        return neighbours[span], strengths[span]

    @property
    def edges(self) -> Mapping[tuple[int, int], int]:
        """Read-only map of the edges, keyed by (low, high) pairs in insertion
        order; built from the arrays each time it is read."""
        return MappingProxyType(dict(zip(zip(self.low.tolist(), self.high.tolist()),
                                         self.strengths.tolist())))

    def strength(self, x: int, y: int) -> int | None:
        """Strength of the bond between x and y, or None if they are strangers
        or x is outside 0..n_users-1."""
        if not 0 <= x < self.n_users:
            return None
        neighbours, strengths = self._row(x)
        return dict(zip(neighbours.tolist(), strengths.tolist())).get(y)

    def friends_of(self, u: int, min_strength: int = 1) -> list[tuple[int, int]]:
        """All (neighbor, strength) pairs of u with strength >= min_strength,
        by index.  Raises IndexError for a user outside 0..n_users-1."""
        neighbours, strengths = self._row(u)
        keep = strengths >= min_strength
        return list(zip(neighbours[keep].tolist(), strengths[keep].tolist()))

    @property
    def n_edges(self) -> int:
        return len(self.low)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationshipGraph):
            return NotImplemented
        return self.n_users == other.n_users and self.edges == other.edges

    def __repr__(self) -> str:
        return f"RelationshipGraph(n_users={self.n_users}, n_edges={self.n_edges})"


def _check_graph_users(graph: RelationshipGraph, n_users: int) -> None:
    """ValueError unless ``graph`` has the rating matrix's ``n_users``
    users: an engine reads a user's friends from the graph's index by the
    user's row in the rating matrix."""
    if graph.n_users != n_users:
        raise ValueError(f"graph has {graph.n_users} users but rating matrix has "
                         f"{n_users}")


class _Table:
    """A table held once, as a read-only int8 array.  The entries given to
    it that the array cannot hold are kept as given in the sorted ``invalid``
    tuple; while there are any, reading the array raises ValueError naming
    the first."""

    _array: np.ndarray
    invalid: tuple

    def _hold(self, shape: tuple[int, int], fill: int, high: int, given) -> list:
        """Hold ``given``, an integer array of ``shape`` with values fill..high
        or a list of ((row, column), level) entries, ``fill`` elsewhere.
        Returns the entries outside the shape or without a level."""
        if shape[0] < 0 or shape[1] < 0:
            raise ValueError("matrix dimensions must be >= 0")
        if isinstance(given, np.ndarray):
            if (given.shape != shape or given.dtype.kind not in "iu"
                    or not ((fill <= given) & (given <= high)).all()):
                raise ValueError(f"expected a {shape} integer array of values {fill}..{high}")
            self._array, bad = given.astype(np.int8), []
        else:
            fits = [0 <= row < shape[0] and 0 <= column < shape[1] and _is_level(value)
                    for (row, column), value in given]
            good = [entry for entry, ok in zip(given, fits) if ok]
            bad = [entry for entry, ok in zip(given, fits) if not ok]
            with _too_large(f"a {shape[0]}x{shape[1]} table"):
                self._array = np.full(shape, fill, dtype=np.int8)
            at = np.array([key for key, _ in good], dtype=np.intp).reshape(-1, 2)
            self._array[tuple(at.T)] = [value for _, value in good]
        self._array.flags.writeable = False
        return bad

    def dense(self) -> np.ndarray:
        """The read-only int8 array; ValueError while an entry is invalid."""
        if self.invalid:
            raise ValueError(self._problems()[0])
        return self._array

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._array, other._array) and self.invalid == other.invalid


class RatingMatrix(_Table):
    """User x item matrix of integer ratings 0..5, fixed at construction.

    Built from a {(user, item): rating} map, where absent cells are unrated,
    or from the equal users x items integer array with -1 where unrated.
    ``dense`` is the one store of the ratings.  A map entry outside the
    shape, or whose rating is not a plain int 0..5, is kept in ``invalid``
    as a (user, item, rating) triple, in (user, item) order.
    """

    def __init__(self, n_users: int, n_items: int,
                 cells: Mapping[tuple[int, int], int] | np.ndarray | None = None):
        self.n_users = n_users
        self.n_items = n_items
        given = cells if isinstance(cells, np.ndarray) else list((cells or {}).items())
        bad = self._hold((n_users, n_items), -1, RATING_MAX, given)
        self.invalid = tuple(sorted((u, i, r) for (u, i), r in bad))
        self._means: np.ndarray | None = None

    def _problems(self) -> list[str]:
        """validate_dataset's messages for the invalid entries, in order."""
        problems = []
        for u, i, r in self.invalid:
            if not (0 <= u < self.n_users and 0 <= i < self.n_items):
                problems.append(f"rating cell ({user_label(u)}, {item_label(i)}) out of bounds "
                                f"for {self.n_users}x{self.n_items} matrix")
            if not _is_level(r):
                problems.append(f"rating ({user_label(u)}, {item_label(i)}) value {r!r} outside "
                                f"{RATING_MIN}..{RATING_MAX}")
        return problems

    def get(self, user: int, item: int) -> int | None:
        """The rating of (user, item), or None if unrated or outside the matrix."""
        if not (0 <= user < self.n_users and 0 <= item < self.n_items):
            return None
        rating = int(self.dense()[user, item])
        return rating if rating >= 0 else None

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """All (user, item, rating) triples in (user, item) order."""
        ratings = self.dense()
        users, items = np.nonzero(ratings >= 0)
        return zip(users.tolist(), items.tolist(), ratings[users, items].tolist())

    def means(self) -> np.ndarray:
        """Read-only float64 array of each user's mean rating, NaN where the
        row is empty; built once on first use.  The integer sum and count
        are divided once, as Python's int / int does."""
        if self._means is None:
            ratings = self.dense()
            sums = np.maximum(ratings, 0).sum(axis=1, dtype=np.int64)
            counts = (ratings >= 0).sum(axis=1)
            self._means = np.divide(sums, counts, out=np.full(self.n_users, np.nan),
                                    where=counts > 0)
            self._means.flags.writeable = False
        return self._means

    def user_mean(self, user: int) -> float | None:
        """Mean of the user's full rating row, or None if the row is empty.
        Raises IndexError for a user outside 0..n_users-1."""
        if not 0 <= user < self.n_users:
            raise IndexError(f"user index {user} outside 0..{self.n_users - 1}")
        mean = float(self.means()[user])
        return None if math.isnan(mean) else mean

    def global_mean(self) -> float | None:
        """Mean of all ratings, the exact integer sum over the count, or None
        without any."""
        ratings = self.dense()
        rated = ratings[ratings >= 0]
        return int(rated.sum(dtype=np.int64)) / rated.size if rated.size else None

    @property
    def n_rated(self) -> int:  # invalid entries included
        return int(np.count_nonzero(self._array >= 0)) + len(self.invalid)

    @property
    def density(self) -> float:
        total = self.n_users * self.n_items
        return self.n_rated / total if total else 0.0

    def __repr__(self) -> str:
        return (f"RatingMatrix({self.n_users}x{self.n_items}, "
                f"{self.n_rated} rated, density={self.density:.3f})")


class ItemCategoryMatrix(_Table):
    """Binary item x category membership, fixed at construction from the
    (item, category) pairs whose bit is 1 or from the equal items x
    categories 0/1 integer array.  ``dense`` is the one store of the bits;
    a pair outside the shape is kept in ``invalid``, in index order."""

    def __init__(self, n_items: int, n_categories: int,
                 members: Iterable[tuple[int, int]] | np.ndarray = ()):
        self.n_items = n_items
        self.n_categories = n_categories
        given = members if isinstance(members, np.ndarray) else [
            (pair, 1) for pair in dict.fromkeys(members)]
        bad = self._hold((n_items, n_categories), 0, 1, given)
        self.invalid = tuple(sorted(pair for pair, _ in bad))

    def _problems(self) -> list[str]:
        return [f"membership ({item_label(i)}, {category_label(c)}) out of bounds for "
                f"{self.n_items}x{self.n_categories} matrix" for i, c in self.invalid]

    def members(self) -> Iterator[tuple[int, int]]:
        """All (item, category) pairs with membership 1, in index order."""
        items, categories = np.nonzero(self.dense())
        return zip(items.tolist(), categories.tolist())

    @property
    def n_members(self) -> int:  # invalid pairs included
        return int(np.count_nonzero(self._array)) + len(self.invalid)

    def __repr__(self) -> str:
        return (f"ItemCategoryMatrix({self.n_items}x{self.n_categories}, "
                f"{self.n_members} memberships)")


@dataclass(frozen=True)
class Dataset:
    """Bundle of the three tables plus generation metadata.

    ``meta`` is provenance only (seed, counts, fill statistics); it is not
    persisted by ``save_dataset`` and does not participate in equality.
    """

    graph: RelationshipGraph
    ratings: RatingMatrix
    categories: ItemCategoryMatrix
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n_users(self) -> int:
        return self.graph.n_users

    @property
    def n_items(self) -> int:
        return self.ratings.n_items

    @property
    def n_categories(self) -> int:
        return self.categories.n_categories


@dataclass(frozen=True)
class Prediction:
    """One engine's answer for one cell: the unrounded value, the fallback
    rule used for missing evidence ("user-mean", "global-mean" or None) and
    the (user, similarity) neighbours a cf prediction used."""

    value: float
    fallback: str | None
    neighbors: tuple[tuple[int, float], ...] = ()


def _is_level(value) -> bool:
    """True for a plain int on the 0..5 scale (a bool is not a level)."""
    return type(value) is int and RATING_MIN <= value <= RATING_MAX


def _is_valid(dataset: Dataset) -> bool:
    """True only when validate_dataset finds no violation, decided on whole
    arrays without formatting anything.  The graph holds each edge as (low,
    high), so ``low < high`` also rules out a self-edge; object arrays are
    left to validate_dataset's message pass."""
    graph, ratings, categories = dataset.graph, dataset.ratings, dataset.categories
    n_users = ratings.n_users
    low, high, strengths = graph.low, graph.high, graph.strengths
    return (graph.n_users == n_users and categories.n_items == ratings.n_items
            and object not in (low.dtype, high.dtype, strengths.dtype)
            and bool(((0 <= low) & (low < high) & (high < n_users)).all())
            and bool(((RATING_MIN <= strengths) & (strengths <= RATING_MAX)).all())
            and not ratings.invalid and not categories.invalid)


def validate_dataset(dataset: Dataset) -> list[str]:
    """Check every structural invariant; returns a list of violation messages.

    An empty list means the dataset is valid.  Violations are findings,
    not exceptions: self-edges, out-of-range values, out-of-bounds indices
    and dimension mismatches are all collected in one pass.
    """
    if _is_valid(dataset):
        return []
    problems: list[str] = []
    graph, ratings, categories = dataset.graph, dataset.ratings, dataset.categories

    if graph.n_users != ratings.n_users:
        problems.append(f"graph has {graph.n_users} users but rating matrix has "
                        f"{ratings.n_users}")
    if ratings.n_items != categories.n_items:
        problems.append(f"rating matrix has {ratings.n_items} items but category "
                        f"matrix has {categories.n_items}")

    for (x, y), s in graph.edges.items():
        if x == y:
            problems.append(f"self-edge on {user_label(x)}")
        elif not (0 <= x < graph.n_users and 0 <= y < graph.n_users):
            problems.append(f"edge {(user_label(x), user_label(y))} references a user "
                            f"outside 0..{graph.n_users - 1}")
        elif not _is_level(s):
            problems.append(f"edge {(user_label(x), user_label(y))} strength {s!r} outside "
                            f"{RATING_MIN}..{RATING_MAX}")

    return problems + ratings._problems() + categories._problems()
