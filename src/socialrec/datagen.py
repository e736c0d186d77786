"""Seeded synthetic dataset generation.

The generator builds the three tables in a fixed order: a random symmetric
friendship graph, a random binary item/category table, and a rating table
that starts from a sparse random seed and is completed by propagating
friend-weighted averages.  The guiding assumption is homophily: a user's
rating for an item should land near the ratings their friends gave it.

Every step draws from its own seeded stream, so each table is a pure
function of the config and the whole dataset is reproducible bit for bit.
"""

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    Dataset,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    RATING_MAX,
    _check_graph_users,
    _too_large,
)

# Stream salts keep the per-table generators independent of one another.
_EDGE_STREAM = 1
_CATEGORY_STREAM = 2
_SEED_STREAM = 3
_FILL_STREAM = 4


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic dataset generator.

    edge_density is the fraction of unordered user pairs that receive a
    relationship edge; seed_rating_fraction is the fraction of rating cells
    assigned uniformly at random before friend propagation runs.
    """

    n_users: int = 100
    n_items: int = 10
    n_categories: int = 10
    edge_density: float = 0.1
    seed_rating_fraction: float = 0.2
    fill_passes: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "n_items", "n_categories", "fill_passes", "rng_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("edge_density", "seed_rating_fraction"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if self.n_users < 1 or self.n_items < 1 or self.n_categories < 1:
            raise ValueError("n_users, n_items and n_categories must be >= 1")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValueError("edge_density must be in (0, 1]")
        if not 0.0 < self.seed_rating_fraction <= 1.0:
            raise ValueError("seed_rating_fraction must be in (0, 1]")
        if self.fill_passes < 1:
            raise ValueError("fill_passes must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True)
class FillEvent:
    """Record of one cell filled by :func:`friend_weighted_fill_trace`.

    ``contributors`` holds (friend, strength, friend_rating) triples exactly
    as used when the cell was computed; for random fills it is empty and
    ``sweep`` is None.
    """

    user: int
    item: int
    sweep: int | None
    contributors: tuple[tuple[int, int, int], ...]
    value: int
    source: str  # "propagated" or "random"


def _stream(cfg: GenConfig, salt: int) -> "np.random.Generator":
    return np.random.default_rng([salt, cfg.rng_seed])


def generate_relationships(cfg: GenConfig) -> RelationshipGraph:
    """Random symmetric graph: each unordered pair gets an edge with
    probability edge_density, strength uniform over 0..5.  Both draws run
    over the pairs x < y in row-major order."""
    n = cfg.n_users
    n_pairs = n * (n - 1) // 2
    rng = _stream(cfg, _EDGE_STREAM)
    with _too_large(f"the {n_pairs} user pairs of {n} users"):
        kept = np.flatnonzero(rng.random(n_pairs) < cfg.edge_density)
        strengths = rng.integers(0, RATING_MAX + 1, size=n_pairs)[kept]
    # Only kept pairs get (x, y) indices: row x starts at pair x * (2n - x - 1) / 2.
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    x = np.searchsorted(starts, kept, side="right") - 1
    y = kept - starts[x] + x + 1
    return RelationshipGraph._from_arrays(n, x, y, strengths)


def generate_categories(cfg: GenConfig) -> ItemCategoryMatrix:
    """Binary item x category table, each entry an independent fair coin."""
    rng = _stream(cfg, _CATEGORY_STREAM)
    with _too_large(f"a {cfg.n_items}x{cfg.n_categories} table"):
        bits = rng.integers(0, 2, size=(cfg.n_items, cfg.n_categories))
    return ItemCategoryMatrix(cfg.n_items, cfg.n_categories, bits)


def seed_ratings(cfg: GenConfig) -> RatingMatrix:
    """Sparse random seed: max(1, round(fraction * cells)) distinct cells get
    a uniform 0..5 rating."""
    n_cells = cfg.n_users * cfg.n_items
    count = max(1, round(cfg.seed_rating_fraction * n_cells))
    rng = _stream(cfg, _SEED_STREAM)
    with _too_large(f"a {cfg.n_users}x{cfg.n_items} table"):
        chosen = rng.choice(n_cells, size=count, replace=False)
        values = rng.integers(0, RATING_MAX + 1, size=count)
        grid = np.full(n_cells, -1, dtype=np.int8)
    grid[chosen] = values
    return RatingMatrix(cfg.n_users, cfg.n_items, grid.reshape(cfg.n_users, cfg.n_items))


def _friend_weighted_fill(
    graph: RelationshipGraph, seeded: RatingMatrix, cfg: GenConfig,
    events: list[FillEvent] | None = None,
) -> tuple[RatingMatrix, int, int]:
    """The fill behind :func:`friend_weighted_fill_trace`: returns the filled
    matrix and its propagated and random cell counts, and appends one
    FillEvent per filled cell to ``events`` when given.

    A cell reads only its own item's column, so one numpy step fills all of
    a user's empty items at once with the values of a cell-by-cell sweep: the
    sums over friends are exact integers, and their quotients are rounded
    together as round_rating would round each.  Events come in that sweep's
    order, and only they are built as Python lists.
    """
    _check_graph_users(graph, seeded.n_users)
    grid = seeded.dense().copy()  # -1 where unrated
    # User u's friends of strength >= 1 and their strengths, in friends_of
    # order, are friend_ids[starts[u]:starts[u + 1]] and friend_strengths.
    indptr, friend_ids, friend_strengths = graph._csr(1)
    starts = indptr.tolist()
    friends = [(u, friend_ids[lo:hi, None], friend_strengths[lo:hi])
               for u, (lo, hi) in enumerate(zip(starts, starts[1:])) if lo < hi]
    n_open = (grid < 0).sum(axis=1).tolist()

    for sweep in range(1, cfg.fill_passes + 1):
        n_filled = 0
        for u, vs, ss in friends:
            if not n_open[u]:
                continue
            empty = (grid[u] < 0).nonzero()[0]
            rated = grid[vs, empty]  # friends x empty items
            total = ss @ (rated >= 0)
            weighted = ss @ np.maximum(rated, 0)
            hit = total.nonzero()[0]
            if not hit.size:
                continue
            items = empty[hit]
            # total >= 1 and 0 <= weighted <= 5 * total are exact int64 sums
            # below 2**53, so each quotient is the double Python's w / t gives,
            # and floor(q + 0.5) is round_rating(q) on 0..5, where it clamps nothing.
            grid[u, items] = np.floor(weighted[hit] / total[hit] + 0.5)
            n_open[u] -= hit.size
            n_filled += hit.size
            if events is not None:
                pairs = list(zip(vs[:, 0].tolist(), ss.tolist()))
                for i, value, column in zip(items.tolist(), grid[u, items].tolist(),
                                            rated[:, hit].T.tolist()):
                    contributors = tuple((v, s, r) for (v, s), r in zip(pairs, column)
                                         if r >= 0)
                    events.append(FillEvent(u, i, sweep, contributors, value, "propagated"))
        if not n_filled:
            break  # a later pass would read this same grid and fill nothing

    holes = np.flatnonzero(grid < 0)  # row-major
    values = _stream(cfg, _FILL_STREAM).integers(0, RATING_MAX + 1, size=holes.size)
    grid.flat[holes] = values
    if events is not None:
        for flat, value in zip(holes.tolist(), values.tolist()):
            events.append(FillEvent(*divmod(flat, seeded.n_items), None, (), value, "random"))

    n_propagated = grid.size - holes.size - seeded.n_rated
    return RatingMatrix(seeded.n_users, seeded.n_items, grid), n_propagated, holes.size


def friend_weighted_fill_trace(
    graph: RelationshipGraph, seeded: RatingMatrix, cfg: GenConfig,
) -> tuple[RatingMatrix, list[FillEvent]]:
    """Complete a seeded rating matrix into a fully dense one.

    Sweeping users then items in index order, each empty cell whose user has
    friends (strength >= 1) with a rating for the item becomes the
    strength-weighted average of those friends' ratings, rounded half away
    from zero.  Cells filled earlier are visible to later cells, and the
    sweep repeats cfg.fill_passes times so ratings spread outward from the
    seeds; it stops early after a pass that fills no cell.  Cells still
    empty afterwards get uniform random values, drawn in row-major order.

    Returns the filled matrix and one FillEvent per filled cell, recording
    the exact inputs each value was computed from.
    """
    events: list[FillEvent] = []
    return _friend_weighted_fill(graph, seeded, cfg, events)[0], events


def generate_dataset(cfg: GenConfig = GenConfig()) -> Dataset:
    """Generate the full three-table dataset for one config.

    Deterministic: the same config always yields the same dataset.  The
    rating table comes out fully dense.
    """
    graph = generate_relationships(cfg)
    categories = generate_categories(cfg)
    seeded = seed_ratings(cfg)
    ratings, n_propagated, n_random = _friend_weighted_fill(graph, seeded, cfg)
    meta = dict(asdict(cfg), cells_seeded=seeded.n_rated,
                cells_propagated=n_propagated, cells_random=n_random)
    return Dataset(graph=graph, ratings=ratings, categories=categories, meta=meta)
