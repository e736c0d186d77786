from unittest import mock

import pytest

from socialrec import (
    CfConfig,
    CfPredictor,
    Dataset,
    GenConfig,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    SimilarityCache,
    generate_dataset,
)


def build_dataset(n_users, n_items, n_categories, edges=None, cells=None, members=None):
    """Assemble a dataset from plain dicts/sets without any validation."""
    return Dataset(
        graph=RelationshipGraph(n_users, edges or {}),
        ratings=RatingMatrix(n_users, n_items, cells or {}),
        categories=ItemCategoryMatrix(n_items, n_categories, members or set()),
    )


def cf_predictor(ratings, cache, cfg=CfConfig(), graph=None):
    """A CfPredictor over ``ratings`` and ``graph`` (no edges by default)
    that scores with ``cache`` in place of the similarities it would build."""
    dataset = Dataset(graph=graph or RelationshipGraph(ratings.n_users, {}), ratings=ratings,
                      categories=ItemCategoryMatrix(ratings.n_items, 0))
    with mock.patch.object(SimilarityCache, "build", return_value=cache):
        return CfPredictor(dataset, cfg)


def rating_row(ratings, user):
    """The user's {item: rating} row, read cell by cell through ``get``."""
    return {i: r for i in range(ratings.n_items) if (r := ratings.get(user, i)) is not None}


def constant_dataset(n_users=100, n_items=10, n_categories=10, rating=3):
    """Every user rates every item the same; ring-plus-chords friendship graph."""
    edges = {}
    for u in range(n_users):
        edges[(u, (u + 1) % n_users)] = 3 + (u % 3)
        edges[(u, (u + 7) % n_users)] = 1 + (u % 5)
    edges = {(min(a, b), max(a, b)): s for (a, b), s in edges.items() if a != b}
    cells = {(u, i): rating for u in range(n_users) for i in range(n_items)}
    members = {(i, c) for i in range(n_items) for c in range(n_categories)
               if (i + c) % 2 == 0}
    return build_dataset(n_users, n_items, n_categories, edges, cells, members)


@pytest.fixture(scope="session")
def default_dataset():
    """Generated dataset with default config, seed 42; shared read-only."""
    return generate_dataset(GenConfig(rng_seed=42))


@pytest.fixture
def tiny_dataset():
    """3 users x 2 items x 2 categories, fully rated, one friendship triangle."""
    return build_dataset(
        3, 2, 2,
        edges={(0, 1): 5, (0, 2): 2, (1, 2): 3},
        cells={(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 4, (2, 0): 0, (2, 1): 5},
        members={(0, 0), (1, 0), (1, 1)},
    )
