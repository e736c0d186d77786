import dataclasses
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socialrec import (
    DegenerateEvidenceError,
    EmptyTrainingSetError,
    GenConfig,
    Prediction,
    RatingDistribution,
    RelationshipGraph,
    SnrsConfig,
    SnrsPredictor,
    combine,
    generate_dataset,
)
import socialrec.snrs
from socialrec.evaluate import SplitSpec, split
from socialrec.model import TableTooLargeError
from socialrec.snrs import _evidence, _normalise
from conftest import build_dataset, rating_row

UNIFORM = (1 / 6,) * 6


def close(xs, ys, tol=1e-12):
    return all(abs(a - b) <= tol for a, b in zip(xs, ys))


def normalised(weights):
    """The distribution of non-negative weights, each divided by their sum."""
    return RatingDistribution(_normalise(np.array([weights], dtype=float))[0])


class TestRatingDistribution:
    def test_valid(self):
        d = RatingDistribution([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert d[0] == 0.5
        assert list(d) == [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]

    @pytest.mark.parametrize("bad", [
        [0.5, 0.5],                                  # wrong length
        [0.6, 0.1, 0.1, 0.1, 0.1, 0.1],              # sums to 1.1
        [-0.1, 0.3, 0.2, 0.2, 0.2, 0.2],             # negative entry
        [math.nan] * 6,                              # sum check is False for nan
        [math.inf, 0, 0, 0, 0, 0],                   # non-finite entry
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            RatingDistribution(bad)

    def test_immutable(self):
        d = RatingDistribution(UNIFORM)
        with pytest.raises(AttributeError):
            d.probs = UNIFORM

    def test_from_weights_normalizes(self):
        d = _normalise(np.array([[1, 1, 3, 3, 1, 1]], dtype=float))[0]
        assert close(d, [0.1, 0.1, 0.3, 0.3, 0.1, 0.1])

    def test_from_weights_rejects_zero_total(self):
        with pytest.raises(ValueError):
            _normalise(np.zeros((1, 6)))

    @pytest.mark.parametrize("weights", [[1, 1, 1, 1, 1, math.inf], [math.nan] * 6])
    def test_from_weights_rejects_non_finite(self, weights):
        with pytest.raises(ValueError, match="non-finite"):
            _normalise(np.array([weights], dtype=float))

    def test_expected_level_uniform(self):
        assert RatingDistribution(UNIFORM).expected_level() == pytest.approx(2.5)

    def test_expected_level_point_mass(self):
        d = RatingDistribution([0, 0, 0, 0, 1.0, 0])
        assert d.expected_level() == 4.0

    def test_expected_level_two_masses(self):
        d = RatingDistribution([0, 0, 0.5, 0.5, 0, 0])
        assert d.expected_level() == 2.5

    def test_expected_level_restricted(self):
        # uniform over all six, restricted to 1..5 -> mean of 1..5
        d = RatingDistribution(UNIFORM)
        assert d.expected_level((1, 2, 3, 4, 5)) == pytest.approx(3.0)

    def test_expected_level_no_mass(self):
        d = RatingDistribution([1.0, 0, 0, 0, 0, 0])
        with pytest.raises(DegenerateEvidenceError):
            d.expected_level((3, 4))


class TestSnrsConfig:
    @pytest.mark.parametrize("kwargs", [
        {"laplace_alpha": 0},
        {"laplace_alpha": -1},
        {"laplace_alpha": math.nan},
        {"laplace_alpha": math.inf},
        {"laplace_alpha": 1e308},                    # 6 * alpha overflows
        {"friend_min_strength": -1},
        {"friend_min_strength": 1.5},                # would act as 2
        {"friend_min_strength": "1"},                # would raise a bare TypeError
        {"laplace_alpha": "1"},
        {"prediction_levels": ()},
        {"prediction_levels": (4, 7)},
        {"prediction_levels": (1, 1, 2)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SnrsConfig(**kwargs)

    def test_numpy_integer_strength_accepted(self, default_dataset):
        cfg = SnrsConfig(friend_min_strength=np.int64(2))
        assert SnrsPredictor(default_dataset, cfg).predict_many([(0, 0), (5, 3)]) == \
            SnrsPredictor(default_dataset, SnrsConfig(friend_min_strength=2)).predict_many(
                [(0, 0), (5, 3)])

    def test_levels_normalized_to_tuple(self):
        assert SnrsConfig(prediction_levels=[1, 2, 3]).prediction_levels == (1, 2, 3)

    def test_integer_alpha_smooths_as_its_float(self):
        # 255 co-rated items fill a uint8 count, and an int alpha of 1 added
        # to it wrapped to 0, a zero probability in the friend column
        cells = {(0, i): 3 for i in range(255)} | {(1, i): 2 for i in range(255)}
        d = build_dataset(2, 255, 1, edges={(0, 1): 3}, cells=cells)
        assert SnrsConfig(laplace_alpha=1) == SnrsConfig()
        column = SnrsPredictor(d, SnrsConfig(laplace_alpha=1)).friend_tables.column(0, 1, 2)
        assert column == SnrsPredictor(d).friend_tables.column(0, 1, 2)
        assert column[3] == 256 / 261


def history_dataset():
    """One user rated items 0, 1 (category 0) at 2 and item 2 (category 1) at 4;
    item 3 is the unrated target carrying category 0 only."""
    return build_dataset(
        1, 4, 4,
        cells={(0, 0): 2, (0, 1): 2, (0, 2): 4},
        members={(0, 0), (1, 0), (2, 1), (3, 0)},
    )


class TestLearnModels:
    def test_user_prior_counts(self):
        d = build_dataset(1, 3, 1, cells={(0, 0): 2, (0, 1): 2, (0, 2): 4})
        prior = SnrsPredictor(d).priors[0]
        assert close(prior, [1 / 9, 1 / 9, 3 / 9, 1 / 9, 2 / 9, 1 / 9])

    def test_unrated_user_uniform_prior(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 3, (0, 1): 1})
        assert close(SnrsPredictor(d).priors[1], UNIFORM)

    def test_attribute_conditionals(self):
        likelihoods = SnrsPredictor(history_dataset()).likelihoods
        (absent_0, present_0), (absent_1, present_1), *_ = likelihoods[0]
        assert present_0[2] == pytest.approx(3 / 4)   # (2+1)/(2+2)
        assert present_1[2] == pytest.approx(1 / 4)   # (0+1)/(2+2)
        assert present_0[4] == pytest.approx(1 / 3)   # (0+1)/(1+2)
        assert present_1[4] == pytest.approx(2 / 3)   # (1+1)/(1+2)
        assert present_0[5] == pytest.approx(1 / 2)   # no level-5 items
        assert absent_0.tolist() == [1.0 - p for p in present_0.tolist()]
        assert absent_1.tolist() == [1.0 - p for p in present_1.tolist()]

    def test_item_acceptance_counts(self):
        d = build_dataset(3, 1, 1, cells={(0, 0): 1, (1, 0): 1, (2, 0): 2})
        acceptance = SnrsPredictor(d).acceptance
        assert close(acceptance[0], [1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9, 1 / 9])

    def test_unrated_item_uniform(self):
        d = build_dataset(1, 2, 1, cells={(0, 0): 3})
        assert close(SnrsPredictor(d).acceptance[1], UNIFORM)

    def test_friend_table_hand_case(self):
        # co-rated levels (u, v): (2,2), (2,2), (3,2); column at j=2
        d = build_dataset(
            2, 4, 1,
            edges={(0, 1): 4},
            cells={(0, 0): 2, (0, 1): 2, (0, 2): 3,
                   (1, 0): 2, (1, 1): 2, (1, 2): 2, (1, 3): 2},
        )
        tables = SnrsPredictor(d).friend_tables
        column = tables.column(0, 1, 2)
        assert close(column, [1 / 9, 1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9])

    def test_friend_table_no_corated_uniform(self):
        d = build_dataset(2, 2, 1, edges={(0, 1): 3},
                          cells={(0, 0): 1, (1, 1): 4})
        tables = SnrsPredictor(d).friend_tables
        for j in range(6):
            assert close(tables.column(0, 1, j), UNIFORM)

    @pytest.mark.parametrize("level", [-1, 6])
    def test_friend_table_level_outside_rejected(self, level):
        # -1 would otherwise read level 5's column
        d = build_dataset(2, 2, 1, edges={(0, 1): 3}, cells={(0, 0): 1, (1, 1): 4})
        with pytest.raises(ValueError, match=rf"^friend level {level} outside 0\.\.5$"):
            SnrsPredictor(d).friend_tables.column(0, 1, level)

    def test_friend_table_columns_sum_to_one(self, default_dataset):
        tables = SnrsPredictor(default_dataset).friend_tables
        graph = default_dataset.graph
        some_pairs = list(itertools.islice(((u, v) for u in range(graph.n_users)
                                            for v, _ in graph.friends_of(u)), 25))
        for u, v in some_pairs:
            for j in range(6):
                assert abs(sum(tables.column(u, v, j)) - 1.0) < 1e-9

    def test_tables_gated_by_strength(self):
        d = build_dataset(3, 1, 1,
                          edges={(0, 1): 0, (0, 2): 3},
                          cells={(0, 0): 1, (1, 0): 2, (2, 0): 3})
        tables = SnrsPredictor(d, SnrsConfig(friend_min_strength=1)).friend_tables
        assert (0, 1) not in tables
        assert (0, 2) in tables and (2, 0) in tables

    def test_empty_train_rejected(self):
        with pytest.raises(EmptyTrainingSetError, match="empty") as info:
            SnrsPredictor(build_dataset(2, 2, 1))
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("graph_users", [2, 5])
    def test_graph_of_other_users_rejected(self, graph_users):
        # the friend tables are slots of the graph's own index, so a graph
        # without the rating matrix's users cannot serve them
        d = build_dataset(4, 2, 1, cells={(u, i): (u + i) % 6 for u in range(4)
                                          for i in range(2)})
        d = dataclasses.replace(d, graph=RelationshipGraph(graph_users, {(0, 1): 3}))
        with pytest.raises(ValueError, match=f"^graph has {graph_users} users but rating "
                                             f"matrix has 4$"):
            SnrsPredictor(d)


@pytest.fixture(scope="module")
def dense_train():
    """120 users x 16 items on a 0.9-density graph, with a test rectangle held out."""
    dataset = generate_dataset(GenConfig(n_users=120, n_items=16, edge_density=0.9,
                                         rng_seed=5))
    train, _ = split(dataset, SplitSpec(tuple(range(60, 120)), tuple(range(8))))
    return train


def recount_friend_table(train, u, v, alpha):
    """table[j][k] = (#co-rated items with u at k and v at j + alpha) /
    (#co-rated items with v at j + 6 alpha), counted from scratch."""
    row_u, row_v = rating_row(train.ratings, u), rating_row(train.ratings, v)
    common = [i for i in range(train.n_items) if i in row_u and i in row_v]
    joint = Counter((row_v[i], row_u[i]) for i in common)
    given = Counter(row_v[i] for i in common)
    return [tuple((joint[j, k] + alpha) / (given[j] + 6 * alpha) for k in range(6))
            for j in range(6)]


class TestLearnOutOfMemory:
    def test_models_too_large_is_typed(self, monkeypatch):
        # numpy's _ArrayMemoryError is a MemoryError; the first smoothing
        # stands in for any allocation of the learn, so nothing large is made
        def unable(counts, alpha):
            raise MemoryError("Unable to allocate 1.12 GiB")

        monkeypatch.setattr(socialrec.snrs, "_smoothed", unable)
        d = build_dataset(3, 2, 1, cells={(0, 0): 1, (1, 1): 4})
        with pytest.raises(TableTooLargeError, match="^cannot hold the snrs models of 3 users, "
                                                     "2 items and 1 categories in memory: "
                                                     "Unable to allocate 1.12 GiB$"):
            SnrsPredictor(d)


class TestFriendTablesOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("min_strength", [0, 1, 3])
    def test_tables_equal_recount(self, dense_train, alpha, min_strength):
        cfg = SnrsConfig(laplace_alpha=alpha, friend_min_strength=min_strength)
        tables = SnrsPredictor(dense_train, cfg).friend_tables
        expected_pairs = set()
        for (x, y), s in dense_train.graph.edges.items():
            if s >= min_strength:
                expected_pairs |= {(x, y), (y, x)}
        assert tables.n_pairs == len(expected_pairs)
        for u, v in expected_pairs:
            expected = recount_friend_table(dense_train, u, v, alpha)
            assert [tables.column(u, v, j) for j in range(6)] == expected


@st.composite
def lazy_cases(draw):
    """A small dataset whose graph has self-edges, pairs given under either
    orientation and strengths 0-5; a friend threshold of 0-3; cells to
    score, an order to score them in and cuts that group that order; and
    the pairs whose columns are read before scoring."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 5))
    users, items = range(n_users), range(n_items)
    pairs = [(x, y) for x in users for y in users if x <= y]
    chosen = draw(st.dictionaries(st.sampled_from(pairs), st.integers(0, 5)))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = {((y, x) if flip else (x, y)): s
             for ((x, y), s), flip in zip(chosen.items(), flips)}
    ratings = draw(st.dictionaries(st.tuples(st.sampled_from(users), st.sampled_from(items)),
                                   st.integers(0, 5), min_size=1))
    cfg = SnrsConfig(laplace_alpha=draw(st.sampled_from([0.5, 1.0, 2.5])),
                     friend_min_strength=draw(st.integers(0, 3)))
    cells = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(items)),
                          min_size=1, max_size=12))
    order = draw(st.permutations(range(len(cells))))
    cuts = sorted(draw(st.lists(st.integers(0, len(cells)), max_size=3)))
    read_first = draw(st.sets(st.tuples(st.sampled_from(users), st.sampled_from(users))))
    return build_dataset(n_users, n_items, 0, edges, ratings), cfg, cells, order, cuts, \
        read_first


class TestLazyCounting:
    """Each scoring call counts the slots of its own users; no result
    depends on which cells, columns or groups of them were scored first."""

    @settings(max_examples=150, deadline=None)
    @given(lazy_cases())
    def test_results_do_not_depend_on_what_was_counted_first(self, case):
        dataset, cfg, cells, order, cuts, read_first = case
        one_at_a_time = SnrsPredictor(dataset, cfg)
        singles = [one_at_a_time.predict(u, i).hex() for u, i in cells]
        grouped, values = SnrsPredictor(dataset, cfg), {}
        for start, stop in zip([0, *cuts], [*cuts, len(cells)]):
            group = order[start:stop]
            for k, p in zip(group, grouped.predict_many([cells[k] for k in group])):
                values[k] = p.value.hex()
        batch = [p.value.hex() for p in SnrsPredictor(dataset, cfg).predict_many(cells)]
        assert singles == [values[k] for k in range(len(cells))] == batch

        read_before = SnrsPredictor(dataset, cfg)
        tables = read_before.friend_tables
        slots = [(u, v) for u in range(dataset.n_users)
                 for v, _ in dataset.graph.friends_of(u, cfg.friend_min_strength)]
        expected = {(u, v): recount_friend_table(dataset, u, v, cfg.laplace_alpha)
                    for u, v in slots}
        for u, v in read_first & set(expected):
            assert [tables.column(u, v, j) for j in range(6)] == expected[u, v]
        assert [p.value.hex() for p in read_before.predict_many(cells)] == batch
        for predictor in (read_before, grouped, one_at_a_time):
            tables = predictor.friend_tables
            assert tables.n_pairs == len(slots)
            assert {(u, v): [tables.column(u, v, j) for j in range(6)]
                    for u, v in slots} == expected

    def test_scoring_writes_no_attribute(self, dense_train):
        predictor = SnrsPredictor(dense_train)
        tables = predictor.friend_tables

        def arrays():
            return {(id(owner), name): value.copy() for owner in (predictor, tables)
                    for name, value in vars(owner).items() if isinstance(value, np.ndarray)}

        before = arrays()
        assert before
        predictor._score([(u, i) for u in range(60, 90) for i in range(8)])
        u = 70
        v = int(tables.friends[tables.indptr[u]])
        tables.column(u, v, 3)
        predictor.components(u, 3)
        predictor.predict(u, 3)
        after = arrays()
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[key], before[key]) for key in before)


class TestLearnedMemory:
    """The learned arrays retain no more than the earlier dict-and-tuple
    models did at these shapes (0.724 MB and 2.988 MB)."""

    @pytest.mark.parametrize("shape, spec, limit_mb", [
        ({}, SplitSpec(), 0.724),
        (dict(n_users=120, n_items=16, edge_density=0.9),
         SplitSpec(tuple(range(60, 120)), tuple(range(8))), 2.988),
    ], ids=["paper", "social"])
    def test_retained_bytes(self, shape, spec, limit_mb):
        train, _ = split(generate_dataset(GenConfig(rng_seed=7, **shape)), spec)
        tracemalloc.start()
        try:
            predictor = SnrsPredictor(train)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert predictor and retained <= limit_mb * 1e6


def brute_force_user_preference(dataset, u, i, alpha=1.0):
    """Full enumeration of the naive-Bayes posterior, independent of the
    package's counting code; exact when alpha is a Fraction."""
    row = rating_row(dataset.ratings, u)
    n_categories, bits = dataset.n_categories, dataset.categories.dense()
    masses = []
    for k in range(6):
        count_k = sum(1 for r in row.values() if r == k)
        mass = (count_k + alpha) / (len(row) + 6 * alpha)
        for c in range(n_categories):
            ones = sum(1 for item, r in row.items()
                       if r == k and bits[item, c])
            p_one = (ones + alpha) / (count_k + 2 * alpha)
            mass *= p_one if bits[i, c] else 1 - p_one
        masses.append(mass)
    total = sum(masses)
    return [m / total for m in masses]


class TestUserPreference:
    def test_hand_case_argmax_and_values(self):
        d = history_dataset()
        dist, _, _ = SnrsPredictor(d).components(0, 3)
        oracle = brute_force_user_preference(d, 0, 3)
        assert close(dist, oracle)
        assert max(range(6), key=lambda k: dist[k]) == 2

    def test_empty_history_uniform(self):
        d = build_dataset(2, 2, 3, cells={(0, 0): 3, (0, 1): 1},
                          members={(0, 0), (1, 2)})
        dist, _, _ = SnrsPredictor(d).components(1, 0)
        assert close(dist, UNIFORM)

    def test_matches_oracle_on_generated_data(self):
        d = generate_dataset(GenConfig(n_users=12, n_items=6, n_categories=5,
                                       rng_seed=3))
        predictor = SnrsPredictor(d)
        rng = random.Random(0)
        for _ in range(40):
            u, i = rng.randrange(12), rng.randrange(6)
            dist, _, _ = predictor.components(u, i)
            assert close(dist, brute_force_user_preference(d, u, i))

    def test_sums_to_one(self, default_dataset):
        predictor = SnrsPredictor(default_dataset)
        for u, i in [(0, 0), (5, 9), (99, 3)]:
            dist, _, _ = predictor.components(u, i)
            assert abs(sum(dist) - 1.0) < 1e-9


class TestItemAcceptance:
    def test_is_the_smoothed_item_distribution(self):
        d = build_dataset(3, 1, 1, cells={(0, 0): 1, (1, 0): 1, (2, 0): 2})
        dist = SnrsPredictor(d).acceptance[0]
        assert close(dist, [1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9, 1 / 9])


class TestFriendInference:
    def test_no_friend_rated_uniform(self):
        d = build_dataset(2, 2, 1, edges={(0, 1): 3}, cells={(0, 0): 1})
        _, _, dist = SnrsPredictor(d).components(0, 1)
        assert close(dist, UNIFORM)

    def test_no_friends_at_all_uniform(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (1, 1): 4})
        _, _, dist = SnrsPredictor(d).components(0, 1)
        assert close(dist, UNIFORM)

    def test_single_friend_column(self):
        d = build_dataset(
            2, 4, 1,
            edges={(0, 1): 4},
            cells={(0, 0): 2, (0, 1): 2, (0, 2): 3,
                   (1, 0): 2, (1, 1): 2, (1, 2): 2, (1, 3): 2},
        )
        _, _, dist = SnrsPredictor(d).components(0, 3)
        assert close(dist, [1 / 9, 1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9])

    def test_uniform_friends_stay_uniform(self):
        # two friends, neither sharing any co-rated history with user 0
        d = build_dataset(3, 3, 1,
                          edges={(0, 1): 3, (0, 2): 5},
                          cells={(0, 0): 1, (1, 1): 4, (1, 2): 2,
                                 (2, 1): 0, (2, 2): 5})
        _, _, dist = SnrsPredictor(d).components(0, 1)
        assert close(dist, UNIFORM)

    def test_strength_gate(self):
        d = build_dataset(2, 2, 1, edges={(0, 1): 0},
                          cells={(0, 0): 2, (1, 0): 2, (1, 1): 5})
        _, _, dist = SnrsPredictor(d).components(0, 1)
        assert close(dist, UNIFORM)  # strength-0 edge is not friendship


class TestCombine:
    def test_uniform_inputs(self):
        u = RatingDistribution(UNIFORM)
        assert close(combine(u, u, u), UNIFORM)

    def test_hand_case(self):
        pu = RatingDistribution([0.1, 0.1, 0.3, 0.3, 0.1, 0.1])
        pi = RatingDistribution(UNIFORM)
        pff = RatingDistribution([0.1, 0.1, 0.1, 0.1, 0.3, 0.3])
        expected = [1 / 14, 1 / 14, 3 / 14, 3 / 14, 3 / 14, 3 / 14]
        assert close(combine(pu, pi, pff), expected)

    def test_point_mass_dominates(self):
        point = RatingDistribution([0, 0, 0, 0, 1.0, 0])
        other = RatingDistribution([0.2, 0.2, 0.1, 0.1, 0.2, 0.2])
        result = combine(point, other, RatingDistribution(UNIFORM))
        assert result[4] == 1.0
        assert sum(result) == 1.0

    def test_disjoint_point_masses_degenerate(self):
        a = RatingDistribution([1.0, 0, 0, 0, 0, 0])
        b = RatingDistribution([0, 1.0, 0, 0, 0, 0])
        with pytest.raises(DegenerateEvidenceError):
            combine(a, b, RatingDistribution(UNIFORM))

    def test_permutation_symmetry_and_brute_force(self):
        rng = random.Random(8)
        for _ in range(100):
            dists = []
            for _ in range(3):
                weights = [rng.uniform(0.01, 1.0) for _ in range(6)]
                dists.append(normalised(weights))
            a, b, c = dists
            base = combine(a, b, c)
            raw = [a[k] * b[k] * c[k] for k in range(6)]
            total = sum(raw)
            assert close(base, [w / total for w in raw])
            for perm in itertools.permutations((a, b, c)):
                assert close(combine(*perm), base)

    def test_monotone_in_argmax_evidence(self):
        # moving friend-inference mass toward the argmax of pu*pi can only
        # raise the combined mass there
        rng = random.Random(21)
        for _ in range(50):
            pu = normalised([rng.uniform(0.05, 1) for _ in range(6)])
            pi = normalised([rng.uniform(0.05, 1) for _ in range(6)])
            pff = normalised([rng.uniform(0.05, 1) for _ in range(6)])
            k_star = max(range(6), key=lambda k: pu[k] * pi[k])
            delta = rng.uniform(0, 1.0 - pff[k_star])
            shrink = (1.0 - (pff[k_star] + delta)) / (1.0 - pff[k_star])
            boosted = RatingDistribution(
                pff[k] * shrink if k != k_star else pff[k] + delta
                for k in range(6))
            before = combine(pu, pi, pff)[k_star]
            after = combine(pu, pi, boosted)[k_star]
            assert after >= before - 1e-12


class TestPredictSnrs:
    def test_matches_component_pipeline(self, default_dataset):
        predictor = SnrsPredictor(default_dataset)
        for u, i in [(0, 0), (42, 5), (99, 9)]:
            pu, pi, pff = predictor.components(u, i)
            expected = combine(pu, pi, pff).expected_level()
            assert predictor.predict(u, i) == expected
            assert predictor.predict_detailed(u, i) == Prediction(expected, None)

    def test_uniform_evidence_predicts_midpoint(self):
        # isolated unrated user, unrated item: all three factors uniform
        d = build_dataset(2, 2, 2, cells={(1, 1): 3})
        predictor = SnrsPredictor(d)
        assert predictor.predict(0, 0) == pytest.approx(2.5)

    def test_bounds(self, default_dataset):
        predictor = SnrsPredictor(default_dataset)
        rng = random.Random(3)
        for _ in range(100):
            value = predictor.predict(rng.randrange(100), rng.randrange(10))
            assert 0.0 <= value <= 5.0

    def test_restricted_levels(self, default_dataset):
        cfg = SnrsConfig(prediction_levels=(1, 2, 3, 4, 5))
        predictor = SnrsPredictor(default_dataset, cfg)
        rng = random.Random(4)
        for _ in range(50):
            value = predictor.predict(rng.randrange(100), rng.randrange(10))
            assert 1.0 <= value <= 5.0

    def test_positivity_and_normalization(self, default_dataset):
        predictor = SnrsPredictor(default_dataset)
        rng = random.Random(5)
        for _ in range(50):
            u, i = rng.randrange(100), rng.randrange(10)
            for dist in (*predictor.components(u, i),
                         predictor.rating_distribution(u, i)):
                assert abs(sum(dist) - 1.0) < 1e-9
                assert min(dist) > 0.0

    def test_deterministic(self, default_dataset):
        a = SnrsPredictor(default_dataset)
        b = SnrsPredictor(default_dataset)
        cells = [(u, i) for u in range(0, 100, 13) for i in range(10)]
        assert [a.predict(u, i) for u, i in cells] == \
               [b.predict(u, i) for u, i in cells]


def matches_exact(dist, exact):
    """Every level within 1e-9 relative of an exact Fraction distribution."""
    return all(math.isclose(p, float(q), rel_tol=1e-9, abs_tol=1e-300)
               for p, q in zip(dist, exact))


class TestLongProducts:
    """Products over many friends or categories fall below the smallest
    float; the evidence must still normalize to the exact distribution."""

    def star_dataset(self, n_friends):
        # U1 rated I2=3 and I3=1.  Each friend rated I2 and I3 with different
        # levels and I1 like one of them, so half the friends point U1 at 3
        # and half at 1, each by a factor 2/7 against 1/7.
        edges = {(0, v): 3 for v in range(1, n_friends + 1)}
        cells = {(0, 1): 3, (0, 2): 1}
        for v in range(1, n_friends + 1):
            a, b = v % 6, (v + 1) % 6
            cells.update({(v, 1): a, (v, 2): b, (v, 0): a if v % 2 else b})
        return build_dataset(n_friends + 1, 3, 1, edges, cells, {(0, 0)})

    @pytest.mark.parametrize("n_friends", [300, 800, 2000])
    def test_many_friends(self, n_friends):
        d = self.star_dataset(n_friends)
        predictor = SnrsPredictor(d)
        _, _, dist = predictor.components(0, 0)
        weights = [Fraction(1)] * 6
        for v in range(1, n_friends + 1):
            column = recount_friend_table(d, 0, v, Fraction(1))[d.ratings.get(v, 0)]
            weights = [w * p for w, p in zip(weights, column)]
        assert matches_exact(dist, [w / sum(weights) for w in weights])
        assert math.isclose(dist[1], dist[3], rel_tol=1e-12) and dist[1] > 0.49
        assert 0.0 <= predictor.predict(0, 0) <= 5.0

    @pytest.mark.parametrize("n_categories", [1100, 2000])
    def test_many_categories(self, n_categories):
        members = ({(0, c) for c in range(0, n_categories, 2)}
                   | {(1, c) for c in range(0, n_categories, 3)}
                   | {(2, c) for c in range(0, n_categories, 5)})
        d = build_dataset(2, 3, n_categories, edges={(0, 1): 2},
                          cells={(0, 1): 2, (0, 2): 4, (1, 0): 3, (1, 1): 1},
                          members=members)
        predictor = SnrsPredictor(d)
        dist, _, _ = predictor.components(0, 0)
        assert matches_exact(dist, brute_force_user_preference(d, 0, 0, Fraction(1)))
        assert 0.0 <= predictor.predict(0, 0) <= 5.0

    def vanishing_predictor(self):
        # With alpha 1e-20, P(C1 | level k) rounds to 1.0 at every level U1
        # has used, and U1 used all six on C1 items, so an item outside C1
        # leaves no mass at any level.
        d = build_dataset(2, 7, 1, cells={**{(0, k): k for k in range(6)}, (1, 6): 2},
                          members={(k, 0) for k in range(6)})
        return SnrsPredictor(d, SnrsConfig(laplace_alpha=1e-20))

    def test_vanished_evidence_is_typed(self):
        with pytest.raises(DegenerateEvidenceError):
            self.vanishing_predictor().predict(0, 6)

    def test_vanished_evidence_fails_the_batch(self):
        predictor = self.vanishing_predictor()
        assert len(predictor.predict_many([(0, 0), (1, 6)])) == 2
        with pytest.raises(DegenerateEvidenceError):
            predictor.predict_many([(0, 0), (1, 6), (0, 6), (1, 6)])


def per_step_evidence(weights, steps):
    """_evidence with the largest weights read at every step: the reference
    that the guarded loop must equal bit for bit."""
    for step in steps:
        weights = weights * step
        top = weights.max(axis=1)
        low = top < 2.0 ** -500
        if low.any():
            _, exponent = np.frexp(top[low])
            weights[low] = np.ldexp(weights[low], -exponent[:, None])
    return _normalise(weights)


@st.composite
def evidence_cases(draw):
    """A floor, steps whose entries are at it, a few ulps above it, 1.0 or
    anything between, and rows whose largest weight is within a few ulps of
    2**-500 / floor**k.  A row whose steps all sit at the floor then falls
    below 2**-500 at about step k, where the guard's bound is tightest."""
    floor = draw(st.one_of(st.sampled_from([1 / 22, 1 / 56, 1 / 6, 2.0 ** -4]),
                           st.floats(2.0 ** -40, 1 / 6)))
    n_rows, n_steps = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    ulps = st.integers(-4, 4).map(lambda n: 1 + n * 2.0 ** -52)
    entries = draw(st.lists(st.one_of(st.just(floor), st.integers(1, 4).map(
        lambda n: floor * (1 + n * 2.0 ** -52)), st.just(1.0), st.floats(floor, 1.0)),
        min_size=1, max_size=8))
    # mostly the first entry, so that some rows stay at the floor throughout
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        -len(entries), len(entries), size=(n_steps, n_rows, 6)).clip(0)
    steps = np.array(entries)[pick]
    rows = []
    for _ in range(n_rows):
        k = draw(st.integers(0, min(n_steps, int(499 / -math.log2(floor)))))
        top = 2.0 ** -500 / floor ** k * draw(ulps)
        row = [top * u for u in draw(st.lists(st.floats(0, 1), min_size=6, max_size=6))]
        row[draw(st.integers(0, 5))] = top
        rows.append(row)
    return np.array(rows), steps, floor


class TestEvidenceGuard:
    @settings(max_examples=300, deadline=None)
    @given(evidence_cases())
    def test_equals_a_read_at_every_step(self, case):
        weights, steps, floor = case
        got, expected = _evidence(weights, steps, floor), per_step_evidence(weights, steps)
        assert [[p.hex() for p in row] for row in got.tolist()] == \
               [[p.hex() for p in row] for row in expected.tolist()]

    def test_reads_the_largest_weights_only_near_the_threshold(self, monkeypatch):
        # 1/22 shrinks a top by at most 2**-4.46 a step, so 45 steps from
        # 1.0 stay above 2**-500 after the first read
        reads = []
        maximum = np.ndarray.max

        class Counting(np.ndarray):
            def max(self, *args, **kwargs):
                reads.append(1)
                return maximum(np.asarray(self), *args, **kwargs)

        weights = np.ones((3, 6)).view(Counting)
        _evidence(weights, np.full((45, 3, 6), 1 / 22), 1 / 22)
        assert len(reads) == 1
        reads.clear()
        _evidence(weights, np.full((45, 3, 6), 1 / 22))
        assert len(reads) == 45


@st.composite
def batch_cases(draw):
    """A small dataset, a config and a batch of cells.  Users may have no
    ratings, items may be unrated, edges may have strength 0, and the batch
    may repeat cells or be empty."""
    n_users = draw(st.integers(1, 7))
    n_items = draw(st.integers(1, 5))
    n_categories = draw(st.integers(0, 4))
    users, items = range(n_users), range(n_items)
    pairs = [(x, y) for x in users for y in users if x < y]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(0, 5))) if pairs else {}
    cells = draw(st.dictionaries(st.tuples(st.sampled_from(users), st.sampled_from(items)),
                                 st.integers(0, 5), min_size=1))
    members = draw(st.sets(st.tuples(st.sampled_from(items),
                                     st.sampled_from(range(n_categories))))) \
        if n_categories else set()
    cfg = SnrsConfig(laplace_alpha=draw(st.sampled_from([0.5, 1.0, 2.5])),
                     friend_min_strength=draw(st.integers(0, 2)),
                     prediction_levels=draw(st.sampled_from([(0, 1, 2, 3, 4, 5),
                                                             (1, 2, 3, 4, 5), (4, 2)])))
    batch = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(items)),
                          max_size=12))
    return build_dataset(n_users, n_items, n_categories, edges, cells, members), cfg, batch


def scalar_prediction(dataset, cfg, u, i):
    """One cell predicted in plain Python loops, with the same expressions
    and the same order of operations as the array code: the reference that
    its results must equal bit for bit."""
    alpha, ratings, bits = cfg.laplace_alpha, dataset.ratings, dataset.categories.dense()

    def smoothed(counts):
        total = sum(counts)
        return [(n + alpha) / (total + 6 * alpha) for n in counts]

    def product(weights, columns):
        for column in columns:
            weights = [w * p for w, p in zip(weights, column)]
            top = max(weights)
            if top < 2.0 ** -500:
                _, exponent = math.frexp(top)
                weights = [math.ldexp(w, -exponent) for w in weights]
        total = sum(weights)
        return [w / total for w in weights]

    row = rating_row(ratings, u)
    counts = [sum(1 for r in row.values() if r == k) for k in range(6)]
    preference = []
    for c in range(dataset.n_categories):
        ones = [sum(1 for item, r in row.items() if r == k and bits[item, c]) for k in range(6)]
        present = [(ones[k] + alpha) / (counts[k] + 2 * alpha) for k in range(6)]
        preference.append(present if bits[i, c] else [1.0 - p for p in present])
    friends = []
    for v, _ in dataset.graph.friends_of(u, cfg.friend_min_strength):
        j, other = ratings.get(v, i), rating_row(ratings, v)
        if j is not None:
            joint = Counter(r for item, r in row.items() if other.get(item) == j)
            friends.append(smoothed([joint[k] for k in range(6)]))
    pu = product(smoothed(counts), preference)
    pi = smoothed([sum(1 for v in range(dataset.n_users) if ratings.get(v, i) == k)
                   for k in range(6)])
    pff = product([1.0] * 6, friends)
    combined = product([a * b * c for a, b, c in zip(pu, pi, pff)], [])
    levels = cfg.prediction_levels
    return sum(combined[k] * k for k in levels) / sum(combined[k] for k in levels)


class TestPredictMany:
    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_batch_equals_one_cell_calls(self, case):
        dataset, cfg, batch = case
        predictor = SnrsPredictor(dataset, cfg)
        predictions = predictor.predict_many(batch)
        assert [p.value.hex() for p in predictions] == \
               [predictor.predict_detailed(u, i).value.hex() for u, i in batch] == \
               [scalar_prediction(dataset, cfg, u, i).hex() for u, i in batch]
        assert all(p.fallback is None for p in predictions)

    def test_empty_batch(self, default_dataset):
        assert SnrsPredictor(default_dataset).predict_many([]) == []

    def test_batch_equals_one_cell_calls_at_benchmark_shape(self, dense_train):
        predictor = SnrsPredictor(dense_train)
        cells = [(u, i) for u in range(60, 120) for i in range(8)]
        assert predictor.predict_many(cells) == [predictor.predict_detailed(u, i)
                                                 for u, i in cells]
