"""Core domain types: friendship graph, rating matrix, item categories.

All three structures use dense 0-based integer indices internally and
1-based display labels ("U51", "I5", "C3") at the file and CLI surface.
Ratings and relationship strengths share the same 0..5 integer scale.
"""

import itertools
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


def _label(index, label) -> str:
    """``label(index)`` for a number, the repr of anything else (a str
    index of an invalid entry, say)."""
    return label(index) if isinstance(index, numbers.Real) else repr(index)


def _is_index(index, n: int) -> bool:
    """True for a plain int in 0..n-1 (a bool is not an index)."""
    return type(index) is int and 0 <= index < n


def _is_integer(kind: type) -> bool:
    """The type rule for a caller's count, level or index: Integral, numpy ints too, not bool."""
    return issubclass(kind, numbers.Integral) and kind is not bool


def _is_real(kind: type) -> bool:
    return issubclass(kind, numbers.Real) and kind is not bool


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= ``minimum``, if given."""
    if not (_is_integer(type(value)) and (minimum is None or value >= minimum)):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")


def _check_user(name: str, user, n_users: int) -> None:
    _check_integer(name, user)
    if not 0 <= user < n_users:
        raise IndexError(f"user index {user} outside 0..{n_users - 1}")


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
    # Below 0 any rounding clamps to 0, so only the half-up branch matters.
    return min(RATING_MAX, max(RATING_MIN, math.floor(x + 0.5)))


def _round_ratings(values: np.ndarray) -> np.ndarray:
    """round_rating of each value, as one array step.  The first non-finite
    value raises round_rating's ValueError."""
    finite = np.isfinite(values)
    if not finite.all():
        round_rating(float(values[finite.argmin()]))
    return np.clip(np.floor(values + 0.5), RATING_MIN, RATING_MAX).astype(np.int64)


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
    index that is not an integer, a bool say, raises ValueError naming the
    cell, and a cell outside the users x items ``shape``, negative indices
    included, ValueError naming the first such cell and the shape."""
    if not (isinstance(cells, np.ndarray) and cells.dtype.kind in "iu"):
        # one scan of the indices' types, not a check of each index
        if not all(map(_is_integer, set(map(type, itertools.chain.from_iterable(cells))))):
            cell = next(cell for cell in cells if not all(map(_is_integer, map(type, cell))))
            raise ValueError(f"cell {tuple(cell)!r} has an index that is not an integer")
    at = np.asarray(cells)
    if at.dtype.kind not in "iu":  # ints beyond int64, or no cells
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
    are not ints within int64; ``invalid`` keeps the (low, high, strength)
    edges that validate_dataset reports, as given, in edge order.  A CSR
    index over the edges, built once on first use, lists each user's
    neighbours by ascending index with the strengths of their edges.  It is
    the one friendship index: ``friends_of``, ``strength``, snrs, cf's
    friends-only scope and the generator's fill all read it.  Reading it
    raises ValueError with the message of an invalid edge other than a
    self-edge of a graph user at a level, which it holds once.  ``edges``
    builds a read-only mapping from the arrays when read.
    """

    def __init__(self, n_users: int, edges: Mapping[tuple[int, int], int] | None = None):
        edges = edges or {}
        canonical: dict[tuple[int, int], int] = {}
        for (x, y), s in edges.items():
            if _order(x) <= _order(y):
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
        _check_integer("n_users", n_users, 0)
        self.n_users = int(n_users)
        for array in (low, high, strengths):
            array.flags.writeable = False
        self.low, self.high, self.strengths = low, high, strengths
        at = slice(None)
        if object not in (low.dtype, high.dtype, strengths.dtype):
            # plain ints with low <= high: the edges _problem reports, as arrays
            at = np.flatnonzero((low == high) | (low < 0) | (high >= n_users)
                                | (strengths < RATING_MIN) | (strengths > RATING_MAX))
        edges = zip(low[at].tolist(), high[at].tolist(), strengths[at].tolist())
        self.invalid = tuple(edge for edge in edges if self._problem(*edge))
        self._csr_index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _is_user(self, x) -> bool:
        return _is_index(x, self.n_users)

    def _problem(self, x, y, s) -> str | None:
        """validate_dataset's message for an edge, or None for a valid one."""
        if x == y:
            return f"self-edge on {_label(x, user_label)}"
        if not (self._is_user(x) and self._is_user(y)):
            problem = f"references a user outside 0..{self.n_users - 1}"
        elif not _is_level(s):
            problem = f"strength {s!r} outside {RATING_MIN}..{RATING_MAX}"
        else:
            return None
        return f"edge {(_label(x, user_label), _label(y, user_label))} {problem}"

    def _problems(self) -> list[str]:
        return [self._problem(*edge) for edge in self.invalid]

    def _check_held(self) -> None:
        """Raise ValueError for the first invalid edge the CSR index cannot hold."""
        for x, y, s in self.invalid:
            if not (self._is_user(x) and self._is_user(y) and _is_level(s)):
                raise ValueError(self._problem(x, y, s))

    def _csr(self, min_strength: int | None = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbours, strengths): user u's neighbours in ascending
        order and the strengths of their edges, at
        ``indptr[u]:indptr[u + 1]``.  A self-edge is listed once.  Given
        ``min_strength``, only the slots of edges that strong, with indptr
        re-based over them."""
        if self._csr_index is None:
            self._check_held()
            with _too_large(f"the friendship index of {self.n_users} users"):
                if self.n_users > math.isqrt(2 ** 63):
                    raise OverflowError("its sort key user * n_users + neighbour overflows int64")
                other = self.low != self.high
                users = np.concatenate([self.low, self.high[other]])
                neighbours = np.concatenate([self.high, self.low[other]])
                key = np.multiply(users, self.n_users, dtype=np.int64) + neighbours
                order = np.argsort(key, kind="stable")
                indptr = np.searchsorted(users[order], np.arange(self.n_users + 1))
                strengths = np.concatenate([self.strengths, self.strengths[other]])[order]
            self._csr_index = indptr, neighbours[order], strengths
        if min_strength is None:
            return self._csr_index
        indptr, neighbours, strengths = self._csr_index
        keep = strengths >= min_strength
        return np.concatenate([[0], np.cumsum(keep)])[indptr], neighbours[keep], strengths[keep]

    def _row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        _check_user("u", u, self.n_users)
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
        _check_integer("x", x)
        _check_integer("y", y)
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
    users, whose friends its index can hold: an engine reads a user's
    friends from the graph's index by the user's row in the rating matrix."""
    if graph.n_users != n_users:
        raise ValueError(f"graph has {graph.n_users} users but rating matrix has "
                         f"{n_users}")
    graph._check_held()


class _Table:
    """A table held once, as a read-only int8 array.  The entries given to
    it that the array cannot hold, a coordinate that is not a plain int
    among them, are kept as given in the ``invalid`` tuple, sorted by
    coordinates (numbers first, the rest by repr); while there are any,
    reading the array raises ValueError naming the first."""

    _array: np.ndarray
    invalid: tuple

    def _hold(self, dims: dict[str, int], fill: int, high: int, given) -> list:
        """Set the two ``dims``, {name: integer >= 0} in row, column order,
        as int attributes (ValueError naming one that is not), and hold
        ``given``, an integer array of their shape with values fill..high
        or a list of ((row, column), level) entries, ``fill`` elsewhere.
        Returns the entries outside the shape or without a level, in
        coordinate order."""
        for name, n in dims.items():
            _check_integer(name, n, 0)
            setattr(self, name, int(n))
        shape = tuple(map(int, dims.values()))
        if isinstance(given, np.ndarray):
            if (given.shape != shape or given.dtype.kind not in "iu"
                    or not ((fill <= given) & (given <= high)).all()):
                raise ValueError(f"expected a {shape} integer array of values {fill}..{high}")
            self._array, bad = given.astype(np.int8), []
        else:
            fits = [_is_index(row, shape[0]) and _is_index(column, shape[1])
                    and _is_level(value) for (row, column), value in given]
            good = [entry for entry, ok in zip(given, fits) if ok]
            bad = sorted((entry for entry, ok in zip(given, fits) if not ok),
                         key=lambda entry: [*map(_order, entry[0])])
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
        given = cells if isinstance(cells, np.ndarray) else list((cells or {}).items())
        bad = self._hold({"n_users": n_users, "n_items": n_items}, -1, RATING_MAX, given)
        self.invalid = tuple((u, i, r) for (u, i), r in bad)
        self._means: np.ndarray | None = None

    def _problems(self) -> list[str]:
        """validate_dataset's messages for the invalid entries, in order."""
        problems = []
        for u, i, r in self.invalid:
            cell = f"{_label(u, user_label)}, {_label(i, item_label)}"
            if not (_is_index(u, self.n_users) and _is_index(i, self.n_items)):
                problems.append(f"rating cell ({cell}) out of bounds "
                                f"for {self.n_users}x{self.n_items} matrix")
            if not _is_level(r):
                problems.append(f"rating ({cell}) value {r!r} outside {RATING_MIN}..{RATING_MAX}")
        return problems

    def get(self, user: int, item: int) -> int | None:
        """The rating of (user, item), or None if unrated or outside the matrix."""
        _check_integer("user", user)
        _check_integer("item", item)
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
        _check_user("user", user, self.n_users)
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
        given = members if isinstance(members, np.ndarray) else [
            (pair, 1) for pair in dict.fromkeys(members)]
        bad = self._hold({"n_items": n_items, "n_categories": n_categories}, 0, 1, given)
        self.invalid = tuple(pair for pair, _ in bad)

    def _problems(self) -> list[str]:
        return [f"membership ({_label(i, item_label)}, {_label(c, category_label)}) out of "
                f"bounds for {self.n_items}x{self.n_categories} matrix" for i, c in self.invalid]

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


def _order(index) -> tuple:
    """The sort key of an index as given: numbers in numeric order before
    anything else, which goes by repr."""
    return (0, index) if isinstance(index, numbers.Real) else (1, repr(index))


def validate_dataset(dataset: Dataset) -> list[str]:
    """Check every structural invariant; returns a list of violation messages.

    An empty list means the dataset is valid.  Violations are findings,
    not exceptions, collected in one pass: the dimension mismatches, then
    the invalid entries that each table recorded when it was built.
    """
    graph, ratings, categories = dataset.graph, dataset.ratings, dataset.categories
    problems: list[str] = []
    if graph.n_users != ratings.n_users:
        problems.append(f"graph has {graph.n_users} users but rating matrix has "
                        f"{ratings.n_users}")
    if ratings.n_items != categories.n_items:
        problems.append(f"rating matrix has {ratings.n_items} items but category "
                        f"matrix has {categories.n_items}")
    return problems + graph._problems() + ratings._problems() + categories._problems()
