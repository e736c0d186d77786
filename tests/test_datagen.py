import math

import pytest

from socialrec import (
    GenConfig,
    RatingMatrix,
    RelationshipGraph,
    friend_weighted_fill_trace,
    generate_categories,
    generate_dataset,
    generate_relationships,
    save_dataset,
    seed_ratings,
    validate_dataset,
)


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
                assert m.bit(i, c) in (0, 1)

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
