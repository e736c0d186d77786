import itertools
import random
from collections import Counter

import pytest

from socialrec import (
    DegenerateEvidenceError,
    EmptyTrainingSetError,
    GenConfig,
    RatingDistribution,
    SnrsConfig,
    SnrsPredictor,
    combine,
    friend_inference_prob,
    generate_dataset,
    item_acceptance_prob,
    learn_models,
    predict_snrs,
    user_preference_prob,
)
from socialrec.evaluate import SplitSpec, split
from conftest import build_dataset

UNIFORM = (1 / 6,) * 6


def close(xs, ys, tol=1e-12):
    return all(abs(a - b) <= tol for a, b in zip(xs, ys))


class TestRatingDistribution:
    def test_valid(self):
        d = RatingDistribution([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert d[0] == 0.5
        assert list(d) == [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]

    @pytest.mark.parametrize("bad", [
        [0.5, 0.5],                                  # wrong length
        [0.6, 0.1, 0.1, 0.1, 0.1, 0.1],              # sums to 1.1
        [-0.1, 0.3, 0.2, 0.2, 0.2, 0.2],             # negative entry
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            RatingDistribution(bad)

    def test_immutable(self):
        d = RatingDistribution(UNIFORM)
        with pytest.raises(AttributeError):
            d.probs = UNIFORM

    def test_from_weights_normalizes(self):
        d = RatingDistribution.from_weights([1, 1, 3, 3, 1, 1])
        assert close(d, [0.1, 0.1, 0.3, 0.3, 0.1, 0.1])

    def test_from_weights_rejects_zero_total(self):
        with pytest.raises(ValueError):
            RatingDistribution.from_weights([0] * 6)

    def test_uniform(self):
        assert close(RatingDistribution.uniform(), UNIFORM)

    def test_expected_level_uniform(self):
        assert RatingDistribution.uniform().expected_level() == pytest.approx(2.5)

    def test_expected_level_point_mass(self):
        d = RatingDistribution([0, 0, 0, 0, 1.0, 0])
        assert d.expected_level() == 4.0

    def test_expected_level_two_masses(self):
        d = RatingDistribution([0, 0, 0.5, 0.5, 0, 0])
        assert d.expected_level() == 2.5

    def test_expected_level_restricted(self):
        # uniform over all six, restricted to 1..5 -> mean of 1..5
        d = RatingDistribution.uniform()
        assert d.expected_level((1, 2, 3, 4, 5)) == pytest.approx(3.0)

    def test_expected_level_no_mass(self):
        d = RatingDistribution([1.0, 0, 0, 0, 0, 0])
        with pytest.raises(DegenerateEvidenceError):
            d.expected_level((3, 4))


class TestSnrsConfig:
    @pytest.mark.parametrize("kwargs", [
        {"laplace_alpha": 0},
        {"laplace_alpha": -1},
        {"friend_min_strength": -1},
        {"prediction_levels": ()},
        {"prediction_levels": (4, 7)},
        {"prediction_levels": (1, 1, 2)},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SnrsConfig(**kwargs)

    def test_levels_normalized_to_tuple(self):
        assert SnrsConfig(prediction_levels=[1, 2, 3]).prediction_levels == (1, 2, 3)


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
        preference, _, _ = learn_models(d)
        prior = preference.prior(0)
        assert close(prior, [1 / 9, 1 / 9, 3 / 9, 1 / 9, 2 / 9, 1 / 9])

    def test_unrated_user_uniform_prior(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 3, (0, 1): 1})
        preference, _, _ = learn_models(d)
        assert close(preference.prior(1), UNIFORM)

    def test_attribute_conditionals(self):
        preference, _, _ = learn_models(history_dataset())
        assert preference.attr_prob(0, 0, 2) == pytest.approx(3 / 4)   # (2+1)/(2+2)
        assert preference.attr_prob(0, 1, 2) == pytest.approx(1 / 4)   # (0+1)/(2+2)
        assert preference.attr_prob(0, 0, 4) == pytest.approx(1 / 3)   # (0+1)/(1+2)
        assert preference.attr_prob(0, 1, 4) == pytest.approx(2 / 3)   # (1+1)/(1+2)
        assert preference.attr_prob(0, 0, 5) == pytest.approx(1 / 2)   # no level-5 items

    def test_item_acceptance_counts(self):
        d = build_dataset(3, 1, 1, cells={(0, 0): 1, (1, 0): 1, (2, 0): 2})
        _, acceptance, _ = learn_models(d)
        assert close(acceptance.acceptance(0), [1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9, 1 / 9])

    def test_unrated_item_uniform(self):
        d = build_dataset(1, 2, 1, cells={(0, 0): 3})
        _, acceptance, _ = learn_models(d)
        assert close(acceptance.acceptance(1), UNIFORM)

    def test_friend_table_hand_case(self):
        # co-rated levels (u, v): (2,2), (2,2), (3,2); column at j=2
        d = build_dataset(
            2, 4, 1,
            edges={(0, 1): 4},
            cells={(0, 0): 2, (0, 1): 2, (0, 2): 3,
                   (1, 0): 2, (1, 1): 2, (1, 2): 2, (1, 3): 2},
        )
        _, _, tables = learn_models(d)
        column = tables.column(0, 1, 2)
        assert close(column, [1 / 9, 1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9])

    def test_friend_table_no_corated_uniform(self):
        d = build_dataset(2, 2, 1, edges={(0, 1): 3},
                          cells={(0, 0): 1, (1, 1): 4})
        _, _, tables = learn_models(d)
        for j in range(6):
            assert close(tables.column(0, 1, j), UNIFORM)

    def test_friend_table_columns_sum_to_one(self, default_dataset):
        _, _, tables = learn_models(default_dataset)
        some_pairs = list(itertools.islice(tables.pairs(), 25))
        for u, v in some_pairs:
            for j in range(6):
                assert abs(sum(tables.column(u, v, j)) - 1.0) < 1e-9

    def test_tables_gated_by_strength(self):
        d = build_dataset(3, 1, 1,
                          edges={(0, 1): 0, (0, 2): 3},
                          cells={(0, 0): 1, (1, 0): 2, (2, 0): 3})
        _, _, tables = learn_models(d, SnrsConfig(friend_min_strength=1))
        assert (0, 1) not in tables
        assert (0, 2) in tables and (2, 0) in tables

    def test_empty_train_rejected(self):
        with pytest.raises(EmptyTrainingSetError, match="empty") as info:
            learn_models(build_dataset(2, 2, 1))
        assert isinstance(info.value, ValueError)


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
    row_u, row_v = train.ratings.user_ratings(u), train.ratings.user_ratings(v)
    common = [i for i in range(train.n_items) if i in row_u and i in row_v]
    joint = Counter((row_v[i], row_u[i]) for i in common)
    given = Counter(row_v[i] for i in common)
    return [tuple((joint[j, k] + alpha) / (given[j] + 6 * alpha) for k in range(6))
            for j in range(6)]


class TestFriendTablesOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("min_strength", [0, 1, 3])
    def test_tables_equal_recount(self, dense_train, alpha, min_strength):
        cfg = SnrsConfig(laplace_alpha=alpha, friend_min_strength=min_strength)
        _, _, tables = learn_models(dense_train, cfg)
        expected_pairs = set()
        for (x, y), s in dense_train.graph.edges.items():
            if s >= min_strength:
                expected_pairs |= {(x, y), (y, x)}
        assert set(tables.pairs()) == expected_pairs
        assert tables.n_pairs == len(expected_pairs)
        for u, v in expected_pairs:
            expected = recount_friend_table(dense_train, u, v, alpha)
            assert [tables.column(u, v, j) for j in range(6)] == expected

    def test_equal_columns_shared(self, dense_train):
        _, _, tables = learn_models(dense_train)
        columns = [tables.column(u, v, j) for u, v in tables.pairs() for j in range(6)]
        assert len({id(c) for c in columns}) == len(set(columns)) < len(columns)


def brute_force_user_preference(dataset, u, i, alpha=1.0):
    """Full enumeration of the naive-Bayes posterior, independent of the
    package's counting code."""
    row = dataset.ratings.user_ratings(u)
    n_categories = dataset.n_categories
    masses = []
    for k in range(6):
        count_k = sum(1 for r in row.values() if r == k)
        mass = (count_k + alpha) / (len(row) + 6 * alpha)
        for c in range(n_categories):
            ones = sum(1 for item, r in row.items()
                       if r == k and dataset.categories.bit(item, c))
            p_one = (ones + alpha) / (count_k + 2 * alpha)
            mass *= p_one if dataset.categories.bit(i, c) else 1.0 - p_one
        masses.append(mass)
    total = sum(masses)
    return [m / total for m in masses]


class TestUserPreference:
    def test_hand_case_argmax_and_values(self):
        d = history_dataset()
        preference, _, _ = learn_models(d)
        dist = user_preference_prob(0, 3, preference, d.categories)
        oracle = brute_force_user_preference(d, 0, 3)
        assert close(dist, oracle)
        assert max(range(6), key=lambda k: dist[k]) == 2

    def test_empty_history_uniform(self):
        d = build_dataset(2, 2, 3, cells={(0, 0): 3, (0, 1): 1},
                          members={(0, 0), (1, 2)})
        preference, _, _ = learn_models(d)
        assert close(user_preference_prob(1, 0, preference, d.categories), UNIFORM)

    def test_matches_oracle_on_generated_data(self):
        d = generate_dataset(GenConfig(n_users=12, n_items=6, n_categories=5,
                                       rng_seed=3))
        preference, _, _ = learn_models(d)
        rng = random.Random(0)
        for _ in range(40):
            u, i = rng.randrange(12), rng.randrange(6)
            dist = user_preference_prob(u, i, preference, d.categories)
            assert close(dist, brute_force_user_preference(d, u, i))

    def test_sums_to_one(self, default_dataset):
        preference, _, _ = learn_models(default_dataset)
        for u, i in [(0, 0), (5, 9), (99, 3)]:
            dist = user_preference_prob(u, i, preference, default_dataset.categories)
            assert abs(sum(dist) - 1.0) < 1e-9


class TestItemAcceptance:
    def test_is_the_smoothed_item_distribution(self):
        d = build_dataset(3, 1, 1, cells={(0, 0): 1, (1, 0): 1, (2, 0): 2})
        _, acceptance, _ = learn_models(d)
        dist = item_acceptance_prob(0, acceptance)
        assert close(dist, [1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9, 1 / 9])


class TestFriendInference:
    def friend_setup(self):
        d = build_dataset(
            2, 4, 1,
            edges={(0, 1): 4},
            cells={(0, 0): 2, (0, 1): 2, (0, 2): 3,
                   (1, 0): 2, (1, 1): 2, (1, 2): 2, (1, 3): 2},
        )
        _, _, tables = learn_models(d)
        return d, tables

    def test_no_friend_rated_uniform(self):
        d = build_dataset(2, 2, 1, edges={(0, 1): 3}, cells={(0, 0): 1})
        _, _, tables = learn_models(d)
        dist = friend_inference_prob(0, 1, tables, d.graph, d.ratings)
        assert close(dist, UNIFORM)

    def test_no_friends_at_all_uniform(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (1, 1): 4})
        _, _, tables = learn_models(d)
        assert close(friend_inference_prob(0, 1, tables, d.graph, d.ratings), UNIFORM)

    def test_single_friend_column(self):
        d, tables = self.friend_setup()
        dist = friend_inference_prob(0, 3, tables, d.graph, d.ratings)
        assert close(dist, [1 / 9, 1 / 9, 3 / 9, 2 / 9, 1 / 9, 1 / 9])

    def test_uniform_friends_stay_uniform(self):
        # two friends, neither sharing any co-rated history with user 0
        d = build_dataset(3, 3, 1,
                          edges={(0, 1): 3, (0, 2): 5},
                          cells={(0, 0): 1, (1, 1): 4, (1, 2): 2,
                                 (2, 1): 0, (2, 2): 5})
        _, _, tables = learn_models(d)
        dist = friend_inference_prob(0, 1, tables, d.graph, d.ratings)
        assert close(dist, UNIFORM)

    def test_strength_gate(self):
        d = build_dataset(2, 2, 1, edges={(0, 1): 0},
                          cells={(0, 0): 2, (1, 0): 2, (1, 1): 5})
        _, _, tables = learn_models(d)
        dist = friend_inference_prob(0, 1, tables, d.graph, d.ratings)
        assert close(dist, UNIFORM)  # strength-0 edge is not friendship


class TestCombine:
    def test_uniform_inputs(self):
        u = RatingDistribution.uniform()
        assert close(combine(u, u, u), UNIFORM)

    def test_hand_case(self):
        pu = RatingDistribution([0.1, 0.1, 0.3, 0.3, 0.1, 0.1])
        pi = RatingDistribution.uniform()
        pff = RatingDistribution([0.1, 0.1, 0.1, 0.1, 0.3, 0.3])
        expected = [1 / 14, 1 / 14, 3 / 14, 3 / 14, 3 / 14, 3 / 14]
        assert close(combine(pu, pi, pff), expected)

    def test_point_mass_dominates(self):
        point = RatingDistribution([0, 0, 0, 0, 1.0, 0])
        other = RatingDistribution([0.2, 0.2, 0.1, 0.1, 0.2, 0.2])
        result = combine(point, other, RatingDistribution.uniform())
        assert result[4] == 1.0
        assert sum(result) == 1.0

    def test_disjoint_point_masses_degenerate(self):
        a = RatingDistribution([1.0, 0, 0, 0, 0, 0])
        b = RatingDistribution([0, 1.0, 0, 0, 0, 0])
        with pytest.raises(DegenerateEvidenceError):
            combine(a, b, RatingDistribution.uniform())

    def test_permutation_symmetry_and_brute_force(self):
        rng = random.Random(8)
        for _ in range(100):
            dists = []
            for _ in range(3):
                weights = [rng.uniform(0.01, 1.0) for _ in range(6)]
                dists.append(RatingDistribution.from_weights(weights))
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
            pu = RatingDistribution.from_weights([rng.uniform(0.05, 1) for _ in range(6)])
            pi = RatingDistribution.from_weights([rng.uniform(0.05, 1) for _ in range(6)])
            pff = RatingDistribution.from_weights([rng.uniform(0.05, 1) for _ in range(6)])
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

    def test_free_function_equals_predictor(self, tiny_dataset):
        cfg = SnrsConfig()
        preference, acceptance, tables = learn_models(tiny_dataset, cfg)
        predictor = SnrsPredictor(tiny_dataset, cfg)
        for u in range(3):
            for i in range(2):
                assert predict_snrs(u, i, preference, acceptance, tables,
                                    tiny_dataset.categories, tiny_dataset.graph,
                                    tiny_dataset.ratings, cfg) == predictor.predict(u, i)

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
