import dataclasses
import itertools
import math
import random
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from socialrec import (
    CfConfig,
    CfPredictor,
    ColdStartError,
    Prediction,
    RatingMatrix,
    RelationshipGraph,
    SimilarityCache,
    SplitSpec,
    pearson_correlation,
    split,
)
import socialrec.cf
from socialrec.cf import round_rating  # re-exported alongside the predictor
from conftest import build_dataset, cf_predictor, rating_row
from test_acceptance import brute_force_cf


@st.composite
def rating_vector_pairs(draw, min_size=2, max_size=8):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return xs, ys


@st.composite
def rating_matrices(draw):
    n_users = draw(st.integers(min_value=1, max_value=6))
    n_items = draw(st.integers(min_value=1, max_value=8))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
        st.integers(0, 5), max_size=n_users * n_items))
    return RatingMatrix(n_users, n_items, cells)


def reference_similarity(m, u, n, co_rate_min):
    """pearson_correlation over the co-rated items, None below co_rate_min."""
    row_u, row_n = rating_row(m, u), rating_row(m, n)
    co_rated = sorted(row_u.keys() & row_n.keys())
    if len(co_rated) < co_rate_min:
        return None
    return pearson_correlation([row_u[i] for i in co_rated], [row_n[i] for i in co_rated])


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 3, 5], [1, 3, 5]) == 1.0

    def test_perfect_negative(self):
        assert pearson_correlation([1, 3, 5], [5, 3, 1]) == -1.0

    def test_hand_case(self):
        # centered dot product 2, norms sqrt(2) and 2*sqrt(6)/3 -> sqrt(3)/2
        value = pearson_correlation([1, 2, 3], [2, 2, 4])
        assert abs(value - math.sqrt(3) / 2) < 1e-12

    def test_zero_variance_undefined(self):
        assert pearson_correlation([2, 2, 2], [1, 3, 5]) is None
        assert pearson_correlation([1, 3, 5], [4, 4, 4]) is None
        assert pearson_correlation([1], [3]) is None

    def test_affine_of_itself(self):
        xs = [0, 2, 3, 5]
        assert pearson_correlation(xs, [2 * x + 1 for x in xs]) == 1.0
        assert pearson_correlation(xs, [-3 * x + 20 for x in xs]) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_empty(self):
        assert pearson_correlation([], []) is None

    @given(rating_vector_pairs())
    def test_symmetry_exact(self, pair):
        xs, ys = pair
        assert pearson_correlation(xs, ys) == pearson_correlation(ys, xs)

    @given(rating_vector_pairs())
    def test_range(self, pair):
        xs, ys = pair
        value = pearson_correlation(xs, ys)
        if value is not None:
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-50, 50), min_size=n, max_size=n),
                st.lists(st.floats(-50, 50), min_size=n, max_size=n),
                st.floats(-25, 25),
            )
        )
    )
    def test_shift_invariance_on_reals(self, args):
        xs, ys, c = args
        # vectors whose spread sits at the float noise floor lose all
        # correlation precision under any formula; require real spread
        assume(max(xs) - min(xs) > 1e-3)
        assume(max(ys) - min(ys) > 1e-3)
        base = pearson_correlation(xs, ys)
        shifted = pearson_correlation([x + c for x in xs], ys)
        if base is not None and shifted is not None:
            assert abs(base - shifted) < 1e-9

    @given(rating_vector_pairs(), st.floats(min_value=0.1, max_value=10))
    def test_scale_invariance(self, pair, scale):
        xs, ys = pair
        base = pearson_correlation(xs, ys)
        scaled = pearson_correlation([scale * x for x in xs], ys)
        if base is not None and scaled is not None:
            assert abs(base - scaled) < 1e-9


class TestPearsonSimilarity:
    def matrix(self):
        return RatingMatrix(3, 4, {
            (0, 0): 1, (0, 1): 2, (0, 2): 3,
            (1, 0): 2, (1, 1): 2, (1, 2): 4,
            (2, 3): 5,
        })

    def test_over_co_rated_items(self):
        value = SimilarityCache.build(self.matrix(), 2).similarity(0, 1)
        assert abs(value - math.sqrt(3) / 2) < 1e-12

    def test_too_few_co_rated(self):
        assert SimilarityCache.build(self.matrix(), 2).similarity(0, 2) is None
        m = RatingMatrix(2, 3, {(0, 0): 1, (0, 1): 3, (1, 1): 2, (1, 2): 0})
        assert SimilarityCache.build(m, 2).similarity(0, 1) is None  # one shared item

    def test_co_rate_min_raises_threshold(self):
        m = RatingMatrix(2, 3, {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 5})
        assert SimilarityCache.build(m, 2).similarity(0, 1) is not None
        assert SimilarityCache.build(m, 3).similarity(0, 1) is None

    def test_self_similarity_rejected(self):
        with pytest.raises(ValueError):
            SimilarityCache.build(self.matrix(), 2).similarity(1, 1)


class TestSimilarityCache:
    def test_matches_pairwise_function(self):
        m = RatingMatrix(4, 5, {(u, i): (u * 7 + i * 3) % 6
                                for u in range(4) for i in range(5) if (u + i) % 2})
        cache = SimilarityCache.build(m)
        for u, n in itertools.permutations(range(4), 2):
            assert cache.similarity(u, n) == reference_similarity(m, u, n, 2)

    def test_symmetric_access(self):
        m = RatingMatrix(2, 3, {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 5})
        cache = SimilarityCache.build(m)
        assert cache.similarity(0, 1) == cache.similarity(1, 0)

    def test_self_lookup_rejected(self):
        cache = SimilarityCache.build(RatingMatrix(2, 2))
        with pytest.raises(ValueError):
            cache.similarity(1, 1)

    @pytest.mark.parametrize("u, n", [(-1, 3), (100, 3), (3, -1), (3, 100)])
    def test_user_outside_rejected(self, default_dataset, u, n):
        # a negative index would otherwise wrap round to the last user
        cache = SimilarityCache.build(default_dataset.ratings)
        bad = min(u, n) if min(u, n) < 0 else max(u, n)
        with pytest.raises(IndexError, match=rf"^user index {bad} outside 0\.\.99$"):
            cache.similarity(u, n)
        with pytest.raises(IndexError, match=rf"^user index {bad} outside 0\.\.99$"):
            cache.row(bad)

    @given(rating_matrices(), st.integers(min_value=2, max_value=4))
    @example(RatingMatrix(4, 3, {(0, 0): 2, (0, 1): 2, (0, 2): 2,     # zero variance
                                 (1, 0): 1, (1, 1): 4, (1, 2): 0,
                                 (2, 1): 5}), 2)                      # U4 has no ratings
    def test_build_is_bit_identical_to_scalar_reference(self, m, co_rate_min):
        cache = SimilarityCache.build(m, co_rate_min)
        for u, n in itertools.permutations(range(m.n_users), 2):
            assert cache.similarity(u, n) == reference_similarity(m, u, n, co_rate_min)
        for u in range(m.n_users):
            row = list(cache.row(u).items())
            assert all(type(sim) is float for _, sim in row)
            assert row == sorted(row, key=lambda pair: (-pair[1], pair[0]))

    def test_rounding_of_large_norm_products(self):
        # 331 co-rated items at levels 0 and 5: uu * vv exceeds 2**53 with more
        # than 53 significant bits (an odd item count keeps them), so the float
        # product of uu and vv must round exactly as float(uu * vv) does
        n_items = 331
        rng = random.Random(8)
        m = RatingMatrix(4, n_items, {(u, i): rng.choice((0, 5))
                                      for u in range(4) for i in range(n_items)})
        cache = SimilarityCache.build(m)
        inexact = 0
        for u, n in itertools.combinations(range(4), 2):
            xs = [m.get(u, i) for i in range(n_items)]
            ys = [m.get(n, i) for i in range(n_items)]
            uu = sum((n_items * x - sum(xs)) ** 2 for x in xs)
            vv = sum((n_items * y - sum(ys)) ** 2 for y in ys)
            assert uu < 2**53 and vv < 2**53 < uu * vv
            inexact += int(float(uu * vv)) != uu * vv
            assert cache.similarity(u, n) == pearson_correlation(xs, ys)
        assert inexact > 0

    def test_degenerate_rows_build_without_warnings(self):
        m = RatingMatrix(5, 3, {(0, 0): 4,                            # one item
                                (1, 0): 2, (1, 1): 2, (1, 2): 2,      # constant
                                (2, 0): 5, (2, 1): 0, (2, 2): 3,
                                (3, 2): 1})                           # U5 empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = SimilarityCache.build(m)
            empty = SimilarityCache.build(RatingMatrix(3, 2))
        assert [sim for _, sim in cache.pairs()] == [None] * 10
        assert [sim for _, sim in empty.pairs()] == [None] * 3

    def test_pairs_cover_users_without_ratings(self):
        m = RatingMatrix(4, 2, {(1, 0): 1, (1, 1): 3, (3, 0): 2, (3, 1): 5})
        assert list(SimilarityCache.build(m).pairs()) == [
            ((0, 1), None), ((0, 2), None), ((0, 3), None),
            ((1, 2), None), ((1, 3), 1.0), ((2, 3), None)]

    def test_users_without_ratings_add_no_build_cost(self):
        rng = random.Random(4)
        cells = {(u, i): rng.randint(0, 5) for u in range(100) for i in range(10)
                 if rng.random() < 0.7}
        small, large = RatingMatrix(100, 10, cells), RatingMatrix(5000, 10, cells)

        def build_seconds(m):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                cache = SimilarityCache.build(m)
                best = min(best, time.perf_counter() - start)
            return cache, best

        small_cache, small_s = build_seconds(small)
        large_cache, large_s = build_seconds(large)
        # one entry per pair of the 5000 users took ~12.5 million entries
        assert large_s < 5 * small_s + 0.05
        assert large_cache.similarity(4999, 3) is None
        large_cf, small_cf = cf_predictor(large, large_cache), cf_predictor(small, small_cache)
        for u, i in itertools.product(range(100), range(10)):
            assert large_cf.predict(u, i) == small_cf.predict(u, i)


    def test_build_across_row_blocks(self):
        # more rated users than one build block: pairs across blocks read the
        # transposed sums from their own products
        rng = random.Random(600)
        m = RatingMatrix(600, 6, {(u, i): rng.randint(0, 5) for u in range(600)
                                  for i in range(6) if rng.random() < 0.8})
        assert sum(rating_row(m, u) != {} for u in range(600)) > socialrec.cf._BUILD_BLOCK
        cache = SimilarityCache.build(m)
        for u in range(600):
            row = list(cache.row(u).items())
            assert row == sorted(row, key=lambda pair: (-pair[1], pair[0]))
        for _ in range(300):
            u, n = rng.randrange(600), rng.randrange(600)
            if u != n:
                assert cache.similarity(u, n) == reference_similarity(m, u, n, 2)
        # with six items many similarities are exactly 1.0, where the oracle's
        # rounding may reorder ties, so every neighbour is used: no truncation
        rows = {u: rating_row(m, u) for u in range(600)}
        predictor = CfPredictor(build_dataset(600, 6, 1, cells=dict(
            ((u, i), r) for u in rows for i, r in rows[u].items())), CfConfig(neighbor_k=600))
        cells = [(rng.randrange(600), rng.randrange(6)) for _ in range(40)]
        for (u, i), got in zip(cells, predictor.predict_many(cells)):
            if rows[u]:
                assert abs(got.value - brute_force_cf(u, i, rows, neighbor_k=600)) < 1e-9


def scalar_prediction(u, i, ratings, cache, cfg, graph):
    """The per-cell loop the batch kernel replaces: walk u's row in neighbour
    order to the first neighbor_k positive-similarity raters of i, then sum
    the weighted deviations left to right."""
    neighbors = []
    for n, sim in cache.row(u).items():
        if sim <= 0 or len(neighbors) == cfg.neighbor_k:
            break
        if ratings.get(n, i) is None:
            continue
        if cfg.neighbor_scope == "friends-only" and (graph.strength(u, n) or 0) < 1:
            continue
        neighbors.append((n, sim))
    if not neighbors:
        return Prediction(ratings.user_mean(u), "user-mean")
    numerator = denominator = 0.0
    for n, sim in neighbors:
        numerator += sim * (ratings.get(n, i) - ratings.user_mean(n))
        denominator += sim
    return Prediction(ratings.user_mean(u) + numerator / denominator, None, tuple(neighbors))


def hand_cache(entries):
    """A cache holding the given pair similarities; None marks an undefined pair."""
    rows = [[] for _ in range(1 + max(max(pair) for pair in entries))]
    for (a, b), s in entries.items():
        if s is not None:
            rows[a].append((b, s))
            rows[b].append((a, s))
    ranked = [pair for row in rows for pair in sorted(row, key=lambda pair: (-pair[1], pair[0]))]
    return SimilarityCache(np.cumsum([0] + [len(row) for row in rows]),
                           [n for n, _ in ranked], [s for _, s in ranked])


def used_neighbors(u, i, ratings, cache, cfg, graph=None):
    """The (user, similarity) neighbours CfPredictor uses for (u, i), with
    ``cache`` in place of the similarities it would build."""
    return list(cf_predictor(ratings, cache, cfg, graph).predict_detailed(u, i).neighbors)


def cf_value(u, i, ratings, cache, cfg):
    """CfPredictor's value for (u, i), with ``cache`` in place of the
    similarities it would build."""
    return cf_predictor(ratings, cache, cfg).predict(u, i)


class TestSelectNeighbors:
    def test_no_other_raters(self):
        m = RatingMatrix(3, 2, {(0, 1): 3, (1, 1): 2, (2, 1): 4})
        cache = hand_cache({(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.9})
        assert used_neighbors(0, 0, m, cache, CfConfig()) == []

    def test_keeps_only_positive_similarities(self):
        m = RatingMatrix(4, 1, {(1, 0): 3, (2, 0): 2, (3, 0): 4})
        cache = hand_cache({(0, 1): 0.9, (0, 2): 0.5, (0, 3): -0.2,
                            (1, 2): None, (1, 3): None, (2, 3): None})
        assert used_neighbors(0, 0, m, cache, CfConfig()) == [(1, 0.9), (2, 0.5)]

    def test_undefined_similarity_excluded(self):
        m = RatingMatrix(3, 1, {(1, 0): 3, (2, 0): 2})
        cache = hand_cache({(0, 1): None, (0, 2): 0.4, (1, 2): None})
        assert used_neighbors(0, 0, m, cache, CfConfig()) == [(2, 0.4)]

    def test_tie_break_by_index(self):
        m = RatingMatrix(10, 1, {(4, 0): 3, (9, 0): 2})
        entries = {(0, n): None for n in range(1, 10)}
        entries[(0, 4)] = 0.7
        entries[(0, 9)] = 0.7
        cache = hand_cache(entries)
        assert used_neighbors(0, 0, m, cache, CfConfig()) == [(4, 0.7), (9, 0.7)]

    def test_truncation_to_k(self):
        m = RatingMatrix(5, 1, {(n, 0): 3 for n in range(1, 5)})
        cache = hand_cache({(0, n): 1.0 - n / 10 for n in range(1, 5)})
        got = used_neighbors(0, 0, m, cache, CfConfig(neighbor_k=2))
        assert got == [(1, 0.9), (2, 0.8)]

    def test_friends_only_scope(self):
        m = RatingMatrix(4, 1, {(1, 0): 3, (2, 0): 2, (3, 0): 4})
        cache = hand_cache({(0, 1): 0.9, (0, 2): 0.8, (0, 3): 0.7})
        graph = RelationshipGraph(4, {(0, 2): 3, (0, 3): 0})
        cfg = CfConfig(neighbor_scope="friends-only")
        assert used_neighbors(0, 0, m, cache, cfg, graph) == [(2, 0.8)]

    @pytest.mark.parametrize("cell", [(0, -1), (0, 2), (-1, 0), (4, 0)])
    def test_cell_outside_matrix_rejected(self, cell):
        # a column index of -1 would otherwise read the last item's raters
        m = RatingMatrix(4, 2, {(n, i): 3 for n in range(1, 4) for i in range(2)})
        cache = hand_cache({(0, n): 0.5 for n in range(1, 4)})
        with pytest.raises(ValueError, match="outside the 4x2 rating matrix"):
            used_neighbors(*cell, m, cache, CfConfig())


class TestPredictCf:
    @pytest.mark.parametrize("cell", [(0, -1), (0, 10), (100, 0)])
    def test_cell_outside_matrix_rejected(self, default_dataset, cell):
        predictor = CfPredictor(default_dataset)
        with pytest.raises(ValueError, match="outside the 100x10 rating matrix"):
            predictor.predict(*cell)

    def test_hand_case(self):
        # active mean 2; neighbors (sim .5, r=4, mean 3) and (sim .5, r=2, mean 2)
        m = RatingMatrix(3, 3, {
            (0, 1): 1, (0, 2): 3,
            (1, 0): 4, (1, 1): 2, (1, 2): 3,
            (2, 0): 2, (2, 1): 2,
        })
        cache = hand_cache({(0, 1): 0.5, (0, 2): 0.5, (1, 2): None})
        assert cf_value(0, 0, m, cache, CfConfig()) == 2.5

    def test_neighbor_at_own_mean_keeps_user_mean(self):
        m = RatingMatrix(2, 3, {(0, 1): 1, (0, 2): 3, (1, 0): 2, (1, 1): 2, (1, 2): 2})
        cache = hand_cache({(0, 1): 1.0})
        assert cf_value(0, 0, m, cache, CfConfig()) == 2.0

    def test_no_neighbors_falls_back_to_user_mean(self):
        m = RatingMatrix(2, 2, {(0, 1): 4})
        cache = hand_cache({(0, 1): None})
        assert cf_value(0, 0, m, cache, CfConfig()) == 4.0

    def test_normalization_fix(self):
        # every neighbor sits exactly +1 above its mean; prediction must be
        # user mean + 1 no matter how the similarity weights are scaled
        m = RatingMatrix(3, 3, {
            (0, 1): 2, (0, 2): 2,
            (1, 0): 3, (1, 1): 1,
            (2, 0): 4, (2, 1): 2, (2, 2): 3,
        })
        rng = random.Random(5)
        for _ in range(25):
            s1, s2 = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            cache = hand_cache({(0, 1): s1, (0, 2): s2, (1, 2): None})
            assert abs(cf_value(0, 0, m, cache, CfConfig()) - 3.0) < 1e-12

    def test_never_fails_with_any_rating(self):
        rng = random.Random(17)
        for _ in range(60):
            n_users, n_items = rng.randint(1, 5), rng.randint(1, 4)
            cells = {(u, i): rng.randint(0, 5)
                     for u in range(n_users) for i in range(n_items)
                     if rng.random() < 0.6}
            cells[(0, 0)] = rng.randint(0, 5)  # active user always has one
            m = RatingMatrix(n_users, n_items, cells)
            cache = SimilarityCache.build(m)
            for i in range(n_items):
                value = cf_value(0, i, m, cache, CfConfig())
                assert math.isfinite(value)


class TestCfConfig:
    @pytest.mark.parametrize("kwargs", [
        {"neighbor_k": 0},
        {"co_rate_min": 1},
        {"neighbor_scope": "strangers"},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            CfConfig(**kwargs)


class TestCfPredictor:
    def test_matches_free_functions(self, tiny_dataset):
        predictor = CfPredictor(tiny_dataset)
        cache = SimilarityCache.build(tiny_dataset.ratings)
        for u in range(3):
            for i in range(2):
                assert predictor.predict_detailed(u, i) == scalar_prediction(
                    u, i, tiny_dataset.ratings, cache, CfConfig(), tiny_dataset.graph)

    def test_fallback_marker(self):
        d = build_dataset(2, 2, 1, cells={(0, 1): 4, (1, 0): 3, (1, 1): 1})
        detail = CfPredictor(d).predict_detailed(0, 0)
        assert detail.fallback == "user-mean"
        assert detail.value == 4.0
        assert detail.neighbors == ()

    def test_no_fallback_when_neighbors_exist(self, default_dataset):
        detail = CfPredictor(default_dataset).predict_detailed(0, 0)
        assert detail.fallback is None
        assert len(detail.neighbors) > 0

    def test_global_mean_for_user_without_ratings(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 2, (0, 1): 5})
        assert CfPredictor(d).predict_detailed(1, 0) == Prediction(3.5, "global-mean")
        assert CfPredictor(d).predict(1, 0) == 3.5

    def test_cold_start_only_without_any_rating(self):
        with pytest.raises(ColdStartError, match="^cold start: U2 has no ratings"):
            CfPredictor(build_dataset(2, 2, 1)).predict_detailed(1, 0)

    def test_selects_neighbors_once_per_cell(self, default_dataset, monkeypatch):
        predictor = CfPredictor(default_dataset)
        calls = []
        select = socialrec.cf._select

        def counting(at, *args):
            calls.extend(map(tuple, at.tolist()))
            return select(at, *args)

        monkeypatch.setattr(socialrec.cf, "_select", counting)
        cells = [(u, i) for u in range(0, 100, 9) for i in range(10)]
        for u, i in cells:
            predictor.predict_detailed(u, i)
        predictor.predict_many(cells)
        assert calls == cells + cells

    @pytest.mark.parametrize("cfg", [
        CfConfig(),
        CfConfig(neighbor_k=1),
        CfConfig(neighbor_k=5, co_rate_min=3, neighbor_scope="friends-only"),
    ])
    def test_batch_equals_scalar_loop(self, default_dataset, cfg):
        train, _ = split(default_dataset, SplitSpec())
        predictor = CfPredictor(train, cfg)
        cells = [(u, i) for u in range(100) for i in range(10)]
        assert predictor.predict_many(cells) == [
            scalar_prediction(u, i, train.ratings, predictor.cache, cfg, train.graph)
            for u, i in cells]

    @pytest.mark.parametrize("graph_users", [2, 5])
    def test_friends_only_rejects_a_graph_of_other_users(self, graph_users):
        # U4's one friend is U3; a 2-user graph would leave U4 without friends
        # and score (U4, I1) from its own mean with no error
        cells = {(0, 0): 5, (0, 1): 1, (0, 2): 3, (1, 0): 1, (1, 1): 5, (1, 2): 3,
                 (2, 0): 4, (2, 1): 2, (2, 2): 5, (3, 1): 1, (3, 2): 4}
        d = build_dataset(4, 3, 1, edges={(0, 1): 3, (2, 3): 3}, cells=cells)
        friends_only = CfConfig(neighbor_scope="friends-only")
        assert [n for n, _ in CfPredictor(d, friends_only).predict_detailed(3, 0).neighbors] \
            == [2]
        d = dataclasses.replace(d, graph=RelationshipGraph(graph_users, {(0, 1): 3}))
        with pytest.raises(ValueError, match=f"^graph has {graph_users} users but rating "
                                             f"matrix has 4$"):
            CfPredictor(d, friends_only)
        assert CfPredictor(d).predict_detailed(3, 0).neighbors  # all-users scope reads no graph

    def test_deterministic(self, default_dataset):
        a = CfPredictor(default_dataset)
        b = CfPredictor(default_dataset)
        cells = [(u, i) for u in range(0, 100, 17) for i in range(10)]
        assert [a.predict(u, i) for u, i in cells] == \
               [b.predict(u, i) for u, i in cells]


class TestRoundRatingReexport:
    def test_available_from_cf(self):
        assert round_rating(2.5) == 3
