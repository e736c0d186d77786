import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socialrec import (
    GenConfig,
    RatingMatrix,
    RelationshipGraph,
    friend_weighted_fill_trace,
    generate_dataset,
    save_dataset,
    validate_dataset,
)
from socialrec import datagen
from socialrec.datagen import FillEvent, generate_categories, generate_relationships, seed_ratings
from socialrec.model import round_rating


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert (cfg.n_users, cfg.n_items, cfg.n_categories) == (100, 10, 10)
        assert cfg.fill_passes == 3

    @pytest.mark.parametrize("kwargs", [
        {"n_users": 0},
        {"n_items": 0},
        {"n_categories": 0},
        {"edge_density": 0.0},
        {"edge_density": 1.5},
        {"seed_rating_fraction": 0.0},
        {"seed_rating_fraction": -0.1},
        {"fill_passes": 0},
        {"rng_seed": -1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


class TestGenerateRelationships:
    def test_two_users_full_density(self):
        g = generate_relationships(GenConfig(n_users=2, edge_density=1.0, rng_seed=0))
        assert g.n_edges == 1
        assert g.strength(0, 1) in range(6)

    def test_deterministic(self):
        cfg = GenConfig(rng_seed=13)
        assert generate_relationships(cfg) == generate_relationships(cfg)

    def test_different_seeds_differ(self):
        a = generate_relationships(GenConfig(rng_seed=1))
        b = generate_relationships(GenConfig(rng_seed=2))
        assert a != b

    def test_edge_count_within_binomial_band(self):
        # 4950 pairs at p=0.1: 495 +/- 3*sqrt(p(1-p)N) ~ [432, 558]
        n_pairs = 100 * 99 // 2
        expected = 0.1 * n_pairs
        margin = 3 * math.sqrt(0.1 * 0.9 * n_pairs)
        g = generate_relationships(GenConfig(edge_density=0.1, rng_seed=42))
        assert expected - margin <= g.n_edges <= expected + margin

    def test_values_and_symmetry(self):
        g = generate_relationships(GenConfig(n_users=30, edge_density=0.5, rng_seed=3))
        for (a, b), s in g.edges.items():
            assert a < b
            assert s in range(6)
            assert g.strength(a, b) == g.strength(b, a) == s


class TestGenerateCategories:
    def test_shape_and_values(self):
        m = generate_categories(GenConfig(rng_seed=0))
        assert (m.n_items, m.n_categories) == (10, 10)
        for i in range(10):
            for c in range(10):
                assert m.dense()[i, c] in (0, 1)

    def test_deterministic(self):
        cfg = GenConfig(rng_seed=21)
        assert generate_categories(cfg) == generate_categories(cfg)

    def test_fair_coin_rate_over_seeds(self):
        total = sum(generate_categories(GenConfig(rng_seed=s)).n_members
                    for s in range(200))
        rate = total / (200 * 100)
        assert 0.45 <= rate <= 0.55


class TestSeedRatings:
    def test_full_fraction_fills_everything(self):
        m = seed_ratings(GenConfig(n_users=4, n_items=3, seed_rating_fraction=1.0,
                                   rng_seed=0))
        assert m.n_rated == 12

    def test_tiny_fraction_seeds_at_least_one(self):
        m = seed_ratings(GenConfig(n_users=3, n_items=3, seed_rating_fraction=0.001,
                                   rng_seed=0))
        assert m.n_rated == 1

    def test_expected_count(self):
        cfg = GenConfig(seed_rating_fraction=0.2, rng_seed=9)
        assert seed_ratings(cfg).n_rated == 200

    def test_deterministic(self):
        cfg = GenConfig(rng_seed=77)
        assert seed_ratings(cfg) == seed_ratings(cfg)

    def test_values_in_range(self):
        m = seed_ratings(GenConfig(n_users=10, n_items=10,
                                   seed_rating_fraction=0.5, rng_seed=4))
        assert all(r in range(6) for _, _, r in m.cells())


class TestFriendWeightedFill:
    def fill_cfg(self, **kwargs):
        defaults = dict(n_users=4, n_items=1, seed_rating_fraction=0.5,
                        fill_passes=3, rng_seed=0)
        defaults.update(kwargs)
        return GenConfig(**defaults)

    def test_weighted_average_hand_case(self):
        # friends with strengths (5, 3, 2) holding ratings (4, 2, 1):
        # (5*4 + 3*2 + 2*1) / 10 = 2.8 -> 3
        graph = RelationshipGraph(4, {(0, 1): 5, (0, 2): 3, (0, 3): 2})
        seeded = RatingMatrix(4, 1, {(1, 0): 4, (2, 0): 2, (3, 0): 1})
        filled, events = friend_weighted_fill_trace(graph, seeded, self.fill_cfg())
        assert filled.get(0, 0) == 3
        (event,) = [e for e in events if (e.user, e.item) == (0, 0)]
        assert event.source == "propagated"
        assert event.sweep == 1
        assert event.contributors == ((1, 5, 4), (2, 3, 2), (3, 2, 1))

    def test_single_friend_passthrough(self):
        graph = RelationshipGraph(2, {(0, 1): 4})
        seeded = RatingMatrix(2, 1, {(1, 0): 5})
        filled = friend_weighted_fill_trace(graph, seeded, self.fill_cfg(n_users=2))[0]
        assert filled.get(0, 0) == 5

    def test_strength_zero_friends_do_not_contribute(self):
        graph = RelationshipGraph(2, {(0, 1): 0})
        seeded = RatingMatrix(2, 1, {(1, 0): 5})
        filled, events = friend_weighted_fill_trace(graph, seeded,
                                                    self.fill_cfg(n_users=2))
        (event,) = [e for e in events if (e.user, e.item) == (0, 0)]
        assert event.source == "random"
        assert event.contributors == ()
        assert filled.get(0, 0) in range(6)

    def test_later_sweep_uses_earlier_fills(self):
        # u0 -- u1 -- u2; only u2 rated, so u1 fills in sweep 1, u0 in sweep 2
        graph = RelationshipGraph(3, {(0, 1): 4, (1, 2): 2})
        seeded = RatingMatrix(3, 1, {(2, 0): 4})
        _, events = friend_weighted_fill_trace(graph, seeded, self.fill_cfg(n_users=3))
        by_cell = {(e.user, e.item): e for e in events}
        assert by_cell[(1, 0)].sweep == 1
        assert by_cell[(0, 0)].sweep == 2
        assert by_cell[(0, 0)].contributors == ((1, 4, 4),)

    def test_single_pass_leaves_chain_tail_random(self):
        graph = RelationshipGraph(3, {(0, 1): 4, (1, 2): 2})
        seeded = RatingMatrix(3, 1, {(2, 0): 4})
        _, events = friend_weighted_fill_trace(graph, seeded,
                                               self.fill_cfg(n_users=3, fill_passes=1))
        by_cell = {(e.user, e.item): e for e in events}
        assert by_cell[(0, 0)].source == "random"
        assert by_cell[(1, 0)].source == "propagated"

    def test_result_dense(self):
        cfg = GenConfig(n_users=20, n_items=5, edge_density=0.3,
                        seed_rating_fraction=0.1, rng_seed=8)
        filled = friend_weighted_fill_trace(
            generate_relationships(cfg), seed_ratings(cfg), cfg)[0]
        assert filled.n_rated == 100

    def test_mismatched_users_rejected(self):
        with pytest.raises(ValueError, match="users"):
            friend_weighted_fill_trace(RelationshipGraph(3), RatingMatrix(2, 1),
                                       self.fill_cfg())

    def test_seeded_cells_never_overwritten(self):
        cfg = GenConfig(n_users=15, n_items=4, edge_density=0.5,
                        seed_rating_fraction=0.3, rng_seed=11)
        seeded = seed_ratings(cfg)
        filled = friend_weighted_fill_trace(generate_relationships(cfg), seeded, cfg)[0]
        for u, i, r in seeded.cells():
            assert filled.get(u, i) == r

    def test_trace_recomputes_to_stored_values(self):
        from socialrec.model import round_rating
        for seed in range(5):
            cfg = GenConfig(n_users=30, n_items=6, edge_density=0.2,
                            seed_rating_fraction=0.15, rng_seed=seed)
            filled, events = friend_weighted_fill_trace(
                generate_relationships(cfg), seed_ratings(cfg), cfg)
            for e in events:
                assert filled.get(e.user, e.item) == e.value
                if e.source == "propagated":
                    total = sum(s for _, s, _ in e.contributors)
                    weighted = sum(s * r for _, s, r in e.contributors)
                    assert round_rating(weighted / total) == e.value


class TestGenerateDataset:
    def test_default_shape(self, default_dataset):
        assert default_dataset.ratings.n_rated == 1000
        assert default_dataset.n_users == 100
        assert default_dataset.n_items == 10
        assert default_dataset.n_categories == 10

    def test_validates(self, default_dataset):
        assert validate_dataset(default_dataset) == []

    def test_deterministic(self):
        cfg = GenConfig(n_users=25, n_items=5, n_categories=4, rng_seed=99)
        assert generate_dataset(cfg) == generate_dataset(cfg)

    def test_meta_accounting(self, default_dataset):
        meta = default_dataset.meta
        assert meta["cells_seeded"] == 200
        total = meta["cells_seeded"] + meta["cells_propagated"] + meta["cells_random"]
        assert total == 1000

    def test_tables_match_standalone_generators(self):
        cfg = GenConfig(n_users=15, n_items=4, n_categories=3, rng_seed=6)
        d = generate_dataset(cfg)
        assert d.graph == generate_relationships(cfg)
        assert d.categories == generate_categories(cfg)

    def test_same_seed_byte_identical_saves(self, tmp_path):
        cfg = GenConfig(n_users=20, n_items=4, n_categories=3, rng_seed=31)
        save_dataset(generate_dataset(cfg), tmp_path / "a")
        save_dataset(generate_dataset(cfg), tmp_path / "b")
        for name in ["relationships.csv", "ratings.csv", "categories.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_homophily_over_seeds(self):
        # strong friends should disagree less than strangers, in aggregate
        friend_sum = friend_n = stranger_sum = stranger_n = 0
        for seed in range(8):
            d = generate_dataset(GenConfig(rng_seed=seed))
            canon = d.graph.edges
            known = set(canon)
            for (a, b), s in canon.items():
                if s < 3:
                    continue
                for i in range(d.n_items):
                    friend_sum += abs(d.ratings.get(a, i) - d.ratings.get(b, i))
                    friend_n += 1
            strangers = [(a, b) for a in range(d.n_users)
                         for b in range(a + 1, d.n_users) if (a, b) not in known]
            for a, b in strangers[::13]:
                for i in range(d.n_items):
                    stranger_sum += abs(d.ratings.get(a, i) - d.ratings.get(b, i))
                    stranger_n += 1
        assert friend_sum / friend_n <= stranger_sum / stranger_n


def reference_edges(cfg):
    """The edge draw over a Python list of every pair x < y, row-major, as a
    {pair: strength} dict in that order."""
    pairs = [(x, y) for x in range(cfg.n_users) for y in range(x + 1, cfg.n_users)]
    rng = np.random.default_rng([1, cfg.rng_seed])
    keep = rng.random(len(pairs)) < cfg.edge_density
    strengths = rng.integers(0, 6, size=len(pairs))
    return {pair: int(s) for pair, k, s in zip(pairs, keep, strengths) if k}


def reference_relationships(cfg):
    return RelationshipGraph(cfg.n_users, reference_edges(cfg))


def reference_fill(graph, seeded, cfg):
    """The fill as a plain-Python sweep over every cell, one scalar draw per
    random cell: the reference the array fill must equal, events included."""
    cells = {(u, i): r for u, i, r in seeded.cells()}
    events = []
    friends = {u: graph.friends_of(u, min_strength=1) for u in range(graph.n_users)}
    grid = list(itertools.product(range(seeded.n_users), range(seeded.n_items)))
    for sweep in range(1, cfg.fill_passes + 1):
        for u, i in grid:
            if (u, i) in cells:
                continue
            contributors = tuple((v, s, cells[v, i]) for v, s in friends[u] if (v, i) in cells)
            if not contributors:
                continue
            total = sum(s for _, s, _ in contributors)
            weighted = sum(s * r for _, s, r in contributors)
            value = cells[u, i] = round_rating(weighted / total)
            events.append(FillEvent(u, i, sweep, contributors, value, "propagated"))
    rng = np.random.default_rng([4, cfg.rng_seed])
    for u, i in grid:
        if (u, i) not in cells:
            value = cells[u, i] = int(rng.integers(0, 6))
            events.append(FillEvent(u, i, None, (), value, "random"))
    return RatingMatrix(seeded.n_users, seeded.n_items, cells), events


@st.composite
def fill_cases(draw):
    """A graph, a seed matrix and a config.  Edges may have strength 0 or
    join a user to themself, users may have no friends, and the seed may be
    empty, one cell or every cell."""
    n_users = draw(st.integers(1, 7))
    n_items = draw(st.integers(1, 5))
    users, items = range(n_users), range(n_items)
    pairs = [(x, y) for x in users for y in users if x <= y]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(0, 5)))
    all_cells = list(itertools.product(users, items))
    seeded = draw(st.one_of(
        st.dictionaries(st.sampled_from(all_cells), st.integers(0, 5)),
        st.fixed_dictionaries({cell: st.integers(0, 5) for cell in all_cells})))
    cfg = GenConfig(n_users=n_users, n_items=n_items, fill_passes=draw(st.integers(1, 4)),
                    rng_seed=draw(st.integers(0, 2**32)))
    return RelationshipGraph(n_users, edges), RatingMatrix(n_users, n_items, seeded), cfg


@st.composite
def gen_configs(draw):
    n_users = draw(st.integers(1, 12))
    n_items = draw(st.integers(1, 6))
    one_cell = 1 / (n_users * n_items)
    return GenConfig(
        n_users=n_users, n_items=n_items, n_categories=draw(st.integers(1, 3)),
        edge_density=draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
        seed_rating_fraction=draw(st.sampled_from([one_cell, 0.1, 0.3, 1.0])),
        fill_passes=draw(st.integers(1, 4)), rng_seed=draw(st.integers(0, 2**32)))


class TestFillAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(fill_cases())
    def test_fill_matches_reference(self, case):
        graph, seeded, cfg = case
        filled, events = friend_weighted_fill_trace(graph, seeded, cfg)
        reference, reference_events = reference_fill(graph, seeded, cfg)
        assert filled == reference
        assert events == reference_events

    @settings(max_examples=100, deadline=None)
    @given(gen_configs())
    def test_dataset_matches_reference(self, cfg):
        dataset = generate_dataset(cfg)
        graph = reference_relationships(cfg)
        assert list(dataset.graph.edges.items()) == list(graph.edges.items())
        reference, events = reference_fill(graph, seed_ratings(cfg), cfg)
        assert dataset.ratings == reference
        sources = [e.source for e in events]
        assert (dataset.meta["cells_propagated"], dataset.meta["cells_random"]) == \
               (sources.count("propagated"), sources.count("random"))

    @pytest.mark.parametrize("shape", [
        {},
        {"n_users": 120, "n_items": 16, "edge_density": 0.9},
        {"n_users": 80, "n_items": 80, "n_categories": 4, "edge_density": 0.05},
        {"n_users": 40, "n_items": 6, "edge_density": 0.03, "fill_passes": 1},
    ])
    def test_benchmark_shapes(self, shape):
        n_random = 0
        for seed in range(3):
            cfg = GenConfig(rng_seed=seed, **shape)
            graph, seeded = generate_relationships(cfg), seed_ratings(cfg)
            filled, events = friend_weighted_fill_trace(graph, seeded, cfg)
            reference, reference_events = reference_fill(graph, seeded, cfg)
            assert filled == reference
            assert events == reference_events
            n_random += generate_dataset(cfg).meta["cells_random"]
        if shape.get("fill_passes") == 1:
            assert n_random > 0

    def test_dataset_builds_no_events(self, monkeypatch):
        def no_events(*args):
            raise AssertionError("generate_dataset built a FillEvent")
        monkeypatch.setattr(datagen, "FillEvent", no_events)
        meta = generate_dataset(GenConfig(n_users=30, n_items=6, edge_density=0.05,
                                          fill_passes=1)).meta
        assert meta["cells_propagated"] > 0 and meta["cells_random"] > 0


@pytest.mark.parametrize("n", [0, 1, 2, 7, 133, 5000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1])
def test_batched_draw_equals_scalar_draws(seed, n):
    # The random fill takes its values in one draw; the reference takes one
    # scalar draw per cell from the same stream.
    batched = np.random.default_rng([4, seed]).integers(0, 6, size=n)
    rng = np.random.default_rng([4, seed])
    assert batched.tolist() == [int(rng.integers(0, 6)) for _ in range(n)]
