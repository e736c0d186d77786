"""Core domain types: friendship graph, rating matrix, item categories.

All three structures use dense 0-based integer indices internally and
1-based display labels ("U51", "I5", "C3") at the file and CLI surface.
Ratings and relationship strengths share the same 0..5 integer scale.
"""

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

RATING_MIN = 0
RATING_MAX = 5
RATING_LEVELS = tuple(range(RATING_MIN, RATING_MAX + 1))
N_LEVELS = len(RATING_LEVELS)


class SocialRecError(Exception):
    """Base class for errors raised by this package."""


def user_label(index: int) -> str:
    return f"U{index + 1}"


def item_label(index: int) -> str:
    return f"I{index + 1}"


def category_label(index: int) -> str:
    return f"C{index + 1}"


def parse_label(label: str, kind: str) -> int:
    """Convert a display label like "U51" back to its 0-based index.

    ``kind`` is the expected prefix letter: "U", "I" or "C".
    """
    text = label.strip()
    if not text.startswith(kind) or not text[1:].isdigit():
        raise ValueError(f"malformed {kind!r} label: {label!r}")
    number = int(text[1:])
    if number < 1:
        raise ValueError(f"label numbers start at 1: {label!r}")
    return number - 1


def check_rating(value: int) -> int:
    """Validate a rating level; returns the value as a plain int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"rating must be an integer, got {value!r}")
    if not RATING_MIN <= value <= RATING_MAX:
        raise ValueError(f"rating {value} outside {RATING_MIN}..{RATING_MAX}")
    return int(value)


def round_rating(x: float) -> int:
    """Round to the nearest rating level: half away from zero, clamped to 0..5."""
    if not math.isfinite(x):
        raise ValueError(f"cannot round non-finite value {x!r}")
    if x >= 0:
        rounded = math.floor(x + 0.5)
    else:
        rounded = math.ceil(x - 0.5)
    return min(RATING_MAX, max(RATING_MIN, rounded))


class RelationshipGraph:
    """Symmetric weighted friendship graph over ``n_users`` nodes.

    Edges are keyed by user pair and carry an integer strength 0..5
    (0 is "extreme dislike", 5 "best friends").  An absent pair means the
    two users do not know each other, which is distinct from strength 0.
    Edges may be supplied under either orientation; ``strength`` looks up
    both.  Asymmetric duplicates are representable so that
    ``validate_dataset`` can report them, but every query API assumes a
    graph that validates cleanly.

    The edge map is fixed at construction: ``edges`` is a read-only view.
    ``friends_of`` reads a per-user adjacency list built lazily, in one pass
    over the stored edges, on first use; it costs O(degree) per call.
    """

    def __init__(self, n_users: int, edges: Mapping[tuple[int, int], int] | None = None):
        if n_users < 0:
            raise ValueError("n_users must be >= 0")
        self.n_users = n_users
        self._edges: dict[tuple[int, int], int] = dict(edges) if edges else {}
        self._adjacency: dict[int, list[tuple[int, int]]] | None = None

    @property
    def edges(self) -> Mapping[tuple[int, int], int]:
        """Read-only view of the edge map exactly as stored (orientations
        not normalized)."""
        return MappingProxyType(self._edges)

    def canonical_edges(self) -> dict[tuple[int, int], int]:
        """Edge map keyed by (low, high) pairs; assumes a valid graph."""
        return {(min(x, y), max(x, y)): s for (x, y), s in self._edges.items()}

    def strength(self, x: int, y: int) -> int | None:
        """Strength of the bond between x and y, or None if they are strangers."""
        s = self._edges.get((x, y))
        if s is None:
            s = self._edges.get((y, x))
        return s

    def _index(self) -> dict[int, list[tuple[int, int]]]:
        if self._adjacency is None:
            adjacency: dict[int, list[tuple[int, int]]] = {}
            for (x, y), s in self._edges.items():
                adjacency.setdefault(x, []).append((y, s))
                if y != x:
                    adjacency.setdefault(y, []).append((x, s))
            for neighbors in adjacency.values():
                neighbors.sort()
            self._adjacency = adjacency
        return self._adjacency

    def friends_of(self, u: int, min_strength: int = 1) -> list[tuple[int, int]]:
        """All (neighbor, strength) pairs of u with strength >= min_strength, by index.

        A pair stored under both orientations contributes one entry per
        stored edge.
        """
        return [(v, s) for v, s in self._index().get(u, ()) if s >= min_strength]

    @property
    def n_edges(self) -> int:
        return len(self.canonical_edges())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationshipGraph):
            return NotImplemented
        return (self.n_users == other.n_users
                and self.canonical_edges() == other.canonical_edges())

    def __repr__(self) -> str:
        return f"RelationshipGraph(n_users={self.n_users}, n_edges={self.n_edges})"


class RatingMatrix:
    """Sparse user x item matrix of integer ratings 0..5.

    Absent cells are unrated.  ``set`` validates values and bounds; bulk
    construction stores cells as given so validate_dataset can audit them.
    """

    def __init__(self, n_users: int, n_items: int,
                 cells: Mapping[tuple[int, int], int] | None = None):
        if n_users < 0 or n_items < 0:
            raise ValueError("matrix dimensions must be >= 0")
        self.n_users = n_users
        self.n_items = n_items
        # Bulk construction stores cells as given so that validate_dataset
        # can report every violation; set() is the checked mutation path.
        self._cells: dict[tuple[int, int], int] = dict(cells) if cells else {}
        self._rows: dict[int, dict[int, int]] | None = None
        self._cols: dict[int, dict[int, int]] | None = None

    def set(self, user: int, item: int, rating: int) -> None:
        if not (0 <= user < self.n_users and 0 <= item < self.n_items):
            raise ValueError(f"cell ({user}, {item}) out of bounds "
                             f"for {self.n_users}x{self.n_items} matrix")
        self._cells[(user, item)] = check_rating(rating)
        self._rows = self._cols = None

    def get(self, user: int, item: int) -> int | None:
        return self._cells.get((user, item))

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """All (user, item, rating) triples in (user, item) order."""
        for (u, i) in sorted(self._cells):
            yield u, i, self._cells[(u, i)]

    def _index(self) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
        if self._rows is None or self._cols is None:
            rows: dict[int, dict[int, int]] = {}
            cols: dict[int, dict[int, int]] = {}
            for (u, i), r in self._cells.items():
                rows.setdefault(u, {})[i] = r
                cols.setdefault(i, {})[u] = r
            self._rows, self._cols = rows, cols
        return self._rows, self._cols

    def user_ratings(self, user: int) -> dict[int, int]:
        """item -> rating map for one user; treat as read-only (cached)."""
        return self._index()[0].get(user, {})

    def item_ratings(self, item: int) -> dict[int, int]:
        """user -> rating map for one item; treat as read-only (cached)."""
        return self._index()[1].get(item, {})

    def user_mean(self, user: int) -> float | None:
        """Mean of the user's full rating row, or None if the row is empty."""
        row = self.user_ratings(user)
        if not row:
            return None
        return sum(row.values()) / len(row)

    def global_mean(self) -> float | None:
        if not self._cells:
            return None
        return sum(self._cells.values()) / len(self._cells)

    @property
    def n_rated(self) -> int:
        return len(self._cells)

    @property
    def density(self) -> float:
        total = self.n_users * self.n_items
        return self.n_rated / total if total else 0.0

    def copy(self) -> "RatingMatrix":
        return RatingMatrix(self.n_users, self.n_items, self._cells)

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self._cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (self.n_users == other.n_users and self.n_items == other.n_items
                and self._cells == other._cells)

    def __repr__(self) -> str:
        return (f"RatingMatrix({self.n_users}x{self.n_items}, "
                f"{self.n_rated} rated, density={self.density:.3f})")


class ItemCategoryMatrix:
    """Binary item x category membership; only the 1-entries are stored."""

    def __init__(self, n_items: int, n_categories: int,
                 members: Mapping[tuple[int, int], int] | set | None = None):
        if n_items < 0 or n_categories < 0:
            raise ValueError("matrix dimensions must be >= 0")
        self.n_items = n_items
        self.n_categories = n_categories
        # Only 1-bits are representable, so membership values are {0, 1} by
        # construction; index bounds are checked by validate_dataset.
        self._members: set[tuple[int, int]] = set()
        if members:
            if isinstance(members, Mapping):
                for (i, c), bit in members.items():
                    if bit not in (0, 1):
                        raise ValueError(f"membership must be 0 or 1, got {bit!r}")
                    if bit:
                        self._members.add((i, c))
            else:
                self._members.update((i, c) for (i, c) in members)

    def add(self, item: int, category: int) -> None:
        if not (0 <= item < self.n_items and 0 <= category < self.n_categories):
            raise ValueError(f"membership ({item}, {category}) out of bounds "
                             f"for {self.n_items}x{self.n_categories} matrix")
        self._members.add((item, category))

    def bit(self, item: int, category: int) -> int:
        return 1 if (item, category) in self._members else 0

    def categories_of(self, item: int) -> frozenset[int]:
        return frozenset(c for (i, c) in self._members if i == item)

    def members(self) -> Iterator[tuple[int, int]]:
        """All (item, category) pairs with membership 1, in index order."""
        yield from sorted(self._members)

    @property
    def n_members(self) -> int:
        return len(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ItemCategoryMatrix):
            return NotImplemented
        return (self.n_items == other.n_items
                and self.n_categories == other.n_categories
                and self._members == other._members)

    def __repr__(self) -> str:
        return (f"ItemCategoryMatrix({self.n_items}x{self.n_categories}, "
                f"{self.n_members} memberships)")


@dataclass
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


def validate_dataset(dataset: Dataset) -> list[str]:
    """Check every structural invariant; returns a list of violation messages.

    An empty list means the dataset is valid.  Violations are findings,
    not exceptions: symmetry breaks, out-of-range values, out-of-bounds
    indices and dimension mismatches are all collected in one pass.
    """
    problems: list[str] = []
    graph, ratings, categories = dataset.graph, dataset.ratings, dataset.categories

    if graph.n_users != ratings.n_users:
        problems.append(f"graph has {graph.n_users} users but rating matrix has "
                        f"{ratings.n_users}")
    if ratings.n_items != categories.n_items:
        problems.append(f"rating matrix has {ratings.n_items} items but category "
                        f"matrix has {categories.n_items}")

    seen: dict[tuple[int, int], int] = {}
    for (x, y), s in graph.edges.items():
        pair = (user_label(x), user_label(y))
        if x == y:
            problems.append(f"self-edge on {pair[0]}")
            continue
        if not (0 <= x < graph.n_users and 0 <= y < graph.n_users):
            problems.append(f"edge {pair} references a user outside 0..{graph.n_users - 1}")
            continue
        if not (isinstance(s, int) and RATING_MIN <= s <= RATING_MAX):
            problems.append(f"edge {pair} strength {s!r} outside "
                            f"{RATING_MIN}..{RATING_MAX}")
        key = (min(x, y), max(x, y))
        if key in seen and seen[key] != s:
            problems.append(f"asymmetric edge {pair}: strengths {seen[key]} and {s}")
        seen[key] = s

    for u, i, r in ratings.cells():
        where = f"({user_label(u)}, {item_label(i)})"
        if not (0 <= u < ratings.n_users and 0 <= i < ratings.n_items):
            problems.append(f"rating cell {where} out of bounds for "
                            f"{ratings.n_users}x{ratings.n_items} matrix")
        if not (isinstance(r, int) and RATING_MIN <= r <= RATING_MAX):
            problems.append(f"rating {where} value {r!r} outside "
                            f"{RATING_MIN}..{RATING_MAX}")

    for i, c in categories.members():
        if not (0 <= i < categories.n_items and 0 <= c < categories.n_categories):
            problems.append(f"membership ({item_label(i)}, {category_label(c)}) out of "
                            f"bounds for {categories.n_items}x{categories.n_categories} matrix")

    return problems
