"""Seeded synthetic dataset generation.

The generator builds the three tables in a fixed order: a random symmetric
friendship graph, a random binary item/category table, and a rating table
that starts from a sparse random seed and is completed by propagating
friend-weighted averages.  The guiding assumption is homophily: a user's
rating for an item should land near the ratings their friends gave it.

Every step draws from its own seeded stream, so each table is a pure
function of the config and the whole dataset is reproducible bit for bit.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    RATING_MAX,
    round_rating,
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


def _stream(cfg: GenConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, cfg.rng_seed])


def generate_relationships(cfg: GenConfig) -> RelationshipGraph:
    """Random symmetric graph: each unordered pair gets an edge with
    probability edge_density, strength uniform over 0..5."""
    pairs = [(x, y) for x in range(cfg.n_users) for y in range(x + 1, cfg.n_users)]
    rng = _stream(cfg, _EDGE_STREAM)
    keep = rng.random(len(pairs)) < cfg.edge_density
    strengths = rng.integers(0, RATING_MAX + 1, size=len(pairs))
    edges = {pair: int(s) for pair, k, s in zip(pairs, keep, strengths) if k}
    return RelationshipGraph(cfg.n_users, edges)


def generate_categories(cfg: GenConfig) -> ItemCategoryMatrix:
    """Binary item x category table, each entry an independent fair coin."""
    rng = _stream(cfg, _CATEGORY_STREAM)
    bits = rng.integers(0, 2, size=(cfg.n_items, cfg.n_categories))
    members = {(i, c) for i in range(cfg.n_items) for c in range(cfg.n_categories)
               if bits[i, c]}
    return ItemCategoryMatrix(cfg.n_items, cfg.n_categories, members)


def seed_ratings(cfg: GenConfig) -> RatingMatrix:
    """Sparse random seed: max(1, round(fraction * cells)) distinct cells get
    a uniform 0..5 rating."""
    n_cells = cfg.n_users * cfg.n_items
    count = max(1, round(cfg.seed_rating_fraction * n_cells))
    rng = _stream(cfg, _SEED_STREAM)
    chosen = rng.choice(n_cells, size=count, replace=False)
    values = rng.integers(0, RATING_MAX + 1, size=count)
    cells = {divmod(int(flat), cfg.n_items): int(value) for flat, value in zip(chosen, values)}
    return RatingMatrix(cfg.n_users, cfg.n_items, cells)


def friend_weighted_fill_trace(
    graph: RelationshipGraph, seeded: RatingMatrix, cfg: GenConfig,
) -> tuple[RatingMatrix, list[FillEvent]]:
    """Complete a seeded rating matrix into a fully dense one.

    Sweeping users then items in index order, each empty cell whose user has
    friends (strength >= 1) with a rating for the item becomes the
    strength-weighted average of those friends' ratings, rounded half away
    from zero.  Cells filled earlier are visible to later cells, and the
    sweep repeats cfg.fill_passes times so ratings spread outward from the
    seeds.  Cells still empty afterwards get uniform random values.

    Returns the filled matrix and one FillEvent per filled cell, recording
    the exact inputs each value was computed from.
    """
    if graph.n_users != seeded.n_users:
        raise ValueError(f"graph has {graph.n_users} users but seed matrix has "
                         f"{seeded.n_users}")
    cells = {(u, i): r for u, i, r in seeded.cells()}
    events: list[FillEvent] = []
    friends = {u: graph.friends_of(u, min_strength=1) for u in range(graph.n_users)}
    grid = list(itertools.product(range(seeded.n_users), range(seeded.n_items)))

    for sweep in range(1, cfg.fill_passes + 1):
        for u, i in grid:
            if (u, i) in cells:
                continue
            contributors = tuple(
                (v, s, cells[v, i]) for v, s in friends[u] if (v, i) in cells
            )
            if not contributors:
                continue
            total = sum(s for _, s, _ in contributors)
            weighted = sum(s * r for _, s, r in contributors)
            value = cells[u, i] = round_rating(weighted / total)
            events.append(FillEvent(u, i, sweep, contributors, value, "propagated"))

    rng = _stream(cfg, _FILL_STREAM)
    for u, i in grid:
        if (u, i) in cells:
            continue
        value = cells[u, i] = int(rng.integers(0, RATING_MAX + 1))
        events.append(FillEvent(u, i, None, (), value, "random"))

    return RatingMatrix(seeded.n_users, seeded.n_items, cells), events


def generate_dataset(cfg: GenConfig = GenConfig()) -> Dataset:
    """Generate the full three-table dataset for one config.

    Deterministic: the same config always yields the same dataset.  The
    rating table comes out fully dense.
    """
    graph = generate_relationships(cfg)
    categories = generate_categories(cfg)
    seeded = seed_ratings(cfg)
    ratings, events = friend_weighted_fill_trace(graph, seeded, cfg)

    n_propagated = sum(1 for e in events if e.source == "propagated")
    n_random = sum(1 for e in events if e.source == "random")
    meta = {
        "rng_seed": cfg.rng_seed,
        "n_users": cfg.n_users,
        "n_items": cfg.n_items,
        "n_categories": cfg.n_categories,
        "edge_density": cfg.edge_density,
        "seed_rating_fraction": cfg.seed_rating_fraction,
        "fill_passes": cfg.fill_passes,
        "cells_seeded": seeded.n_rated,
        "cells_propagated": n_propagated,
        "cells_random": n_random,
    }
    return Dataset(graph=graph, ratings=ratings, categories=categories, meta=meta)
