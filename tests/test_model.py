import math

import pytest
from hypothesis import given, strategies as st

from socialrec import (
    Dataset,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    category_label,
    check_rating,
    item_label,
    parse_label,
    round_rating,
    user_label,
    validate_dataset,
)
from conftest import build_dataset


class TestLabels:
    def test_formatting(self):
        assert user_label(0) == "U1"
        assert user_label(50) == "U51"
        assert item_label(4) == "I5"
        assert category_label(2) == "C3"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip(self, index):
        assert parse_label(user_label(index), "U") == index
        assert parse_label(item_label(index), "I") == index

    @pytest.mark.parametrize("bad", ["X3", "U0", "U-1", "U", "3", "Ux", "I5 "])
    def test_bad_user_labels(self, bad):
        with pytest.raises(ValueError):
            parse_label(bad, "U")

    def test_whitespace_tolerated(self):
        assert parse_label(" U7 ", "U") == 6


class TestCheckRating:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 4, 5])
    def test_accepts_levels(self, value):
        assert check_rating(value) == value

    @pytest.mark.parametrize("bad", [-1, 6, 100, 2.5, "3", True, None])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_rating(bad)


class TestRoundRating:
    @pytest.mark.parametrize("x,expected", [
        (2.5, 3),      # half rounds away from zero
        (1.5, 2),
        (0.5, 1),
        (2.49, 2),
        (-0.4, 0),     # clamp floor
        (-3.7, 0),
        (5.7, 5),      # clamp ceiling
        (4.5, 5),
        (0.0, 0),
        (3.0, 3),
    ])
    def test_cases(self, x, expected):
        assert round_rating(x) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError):
            round_rating(bad)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_always_a_level(self, x):
        assert round_rating(x) in range(6)

    @given(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    def test_within_half_on_scale(self, x):
        assert abs(round_rating(x) - x) <= 0.5


class TestRelationshipGraph:
    def test_strength_lookup_both_orders(self):
        g = RelationshipGraph(4, {(1, 3): 4})
        assert g.strength(1, 3) == 4
        assert g.strength(3, 1) == 4
        assert g.strength(0, 1) is None

    def test_absent_edge_distinct_from_zero(self):
        g = RelationshipGraph(3, {(0, 1): 0})
        assert g.strength(0, 1) == 0
        assert g.strength(1, 2) is None

    def test_friends_threshold_and_order(self):
        g = RelationshipGraph(5, {(0, 3): 2, (1, 0): 5, (0, 4): 0, (2, 3): 4})
        assert g.friends_of(0) == [(1, 5), (3, 2)]
        assert g.friends_of(0, min_strength=3) == [(1, 5)]
        assert g.friends_of(0, min_strength=0) == [(1, 5), (3, 2), (4, 0)]
        assert g.friends_of(4) == []

    def test_equality_ignores_orientation(self):
        assert RelationshipGraph(3, {(0, 2): 3}) == RelationshipGraph(3, {(2, 0): 3})
        assert RelationshipGraph(3, {(0, 2): 3}) != RelationshipGraph(3, {(0, 2): 4})
        assert RelationshipGraph(3, {}) != RelationshipGraph(4, {})

    def test_negative_user_count_rejected(self):
        with pytest.raises(ValueError):
            RelationshipGraph(-1)

    def test_edges_view_rejects_mutation(self):
        g = RelationshipGraph(3, {(0, 1): 4})
        assert g.friends_of(0) == [(1, 4)]
        with pytest.raises(TypeError):
            g.edges[(1, 2)] = 5
        with pytest.raises(TypeError):
            del g.edges[(0, 1)]
        assert dict(g.edges) == {(0, 1): 4}
        assert g.friends_of(1) == [(0, 4)]

    def test_constructor_copies_edges(self):
        source = {(0, 1): 4}
        g = RelationshipGraph(3, source)
        assert g.friends_of(0) == [(1, 4)]
        source[(0, 2)] = 5
        assert g.friends_of(0) == [(1, 4)]

    def test_both_orientations_listed_per_stored_edge(self):
        g = RelationshipGraph(3, {(0, 1): 3, (1, 0): 2, (2, 1): 5})
        assert g.friends_of(1) == [(0, 2), (0, 3), (2, 5)]
        assert g.friends_of(0, min_strength=3) == [(1, 3)]

    @given(
        st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda pair: pair[0] != pair[1]),
                st.integers(0, 5), max_size=3 * n),
        )),
        st.integers(min_value=0, max_value=5),
    )
    def test_friends_of_matches_edge_scan(self, graph_spec, min_strength):
        n_users, edges = graph_spec
        g = RelationshipGraph(n_users, edges)
        for u in range(n_users):
            expected = sorted(
                [(y, s) for (x, y), s in edges.items() if x == u and s >= min_strength]
                + [(x, s) for (x, y), s in edges.items() if y == u and s >= min_strength])
            assert g.friends_of(u, min_strength) == expected


class TestRatingMatrix:
    def test_set_get(self):
        m = RatingMatrix(2, 3)
        m.set(1, 2, 4)
        assert m.get(1, 2) == 4
        assert m.get(0, 0) is None
        assert (1, 2) in m and (0, 0) not in m

    def test_set_validates(self):
        m = RatingMatrix(2, 2)
        with pytest.raises(ValueError):
            m.set(0, 0, 6)
        with pytest.raises(ValueError):
            m.set(2, 0, 3)
        with pytest.raises(ValueError):
            m.set(0, -1, 3)

    def test_rows_and_columns(self):
        m = RatingMatrix(3, 2, {(0, 0): 1, (0, 1): 5, (2, 0): 3})
        assert m.user_ratings(0) == {0: 1, 1: 5}
        assert m.user_ratings(1) == {}
        assert m.item_ratings(0) == {0: 1, 2: 3}

    def test_index_invalidated_by_set(self):
        m = RatingMatrix(2, 2, {(0, 0): 1})
        assert m.user_ratings(1) == {}
        m.set(1, 1, 2)
        assert m.user_ratings(1) == {1: 2}

    def test_means(self):
        m = RatingMatrix(2, 3, {(0, 0): 1, (0, 1): 3, (0, 2): 5})
        assert m.user_mean(0) == 3.0
        assert m.user_mean(1) is None
        assert m.global_mean() == 3.0
        assert RatingMatrix(1, 1).global_mean() is None

    def test_density_and_copy(self):
        m = RatingMatrix(2, 2, {(0, 0): 1})
        assert m.density == 0.25
        clone = m.copy()
        clone.set(1, 1, 5)
        assert m.get(1, 1) is None

    def test_cells_sorted(self):
        m = RatingMatrix(2, 2, {(1, 1): 1, (0, 1): 2, (1, 0): 3})
        assert list(m.cells()) == [(0, 1, 2), (1, 0, 3), (1, 1, 1)]


class TestItemCategoryMatrix:
    def test_bits(self):
        m = ItemCategoryMatrix(3, 2, {(0, 1), (2, 0)})
        assert m.bit(0, 1) == 1
        assert m.bit(0, 0) == 0
        assert m.categories_of(0) == {1}
        assert m.categories_of(1) == frozenset()

    def test_categories_of_after_add(self):
        m = ItemCategoryMatrix(3, 4, {(0, 1)})
        assert m.categories_of(0) == {1}
        assert m.categories_of(2) == frozenset()
        m.add(2, 3)
        m.add(0, 0)
        m.add(0, 1)
        assert m.categories_of(0) == {0, 1}
        assert m.categories_of(1) == frozenset()
        assert m.categories_of(2) == {3}
        for i in range(3):
            assert m.categories_of(i) == {c for c in range(4) if m.bit(i, c)}

    def test_mapping_with_zero_bits(self):
        m = ItemCategoryMatrix(2, 2, {(0, 0): 1, (0, 1): 0})
        assert m.bit(0, 0) == 1
        assert m.bit(0, 1) == 0
        assert m.n_members == 1

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            ItemCategoryMatrix(2, 2, {(0, 0): 2})

    def test_add_bounds(self):
        m = ItemCategoryMatrix(2, 2)
        with pytest.raises(ValueError):
            m.add(2, 0)


class TestDataset:
    def test_dimensions(self, tiny_dataset):
        assert tiny_dataset.n_users == 3
        assert tiny_dataset.n_items == 2
        assert tiny_dataset.n_categories == 2

    def test_meta_not_compared(self, tiny_dataset):
        other = Dataset(tiny_dataset.graph, tiny_dataset.ratings,
                        tiny_dataset.categories, meta={"anything": 1})
        assert other == tiny_dataset


class TestValidateDataset:
    def test_well_formed(self, tiny_dataset):
        assert validate_dataset(tiny_dataset) == []

    def test_asymmetric_edge(self):
        d = build_dataset(3, 1, 1, edges={(0, 1): 3, (1, 0): 2})
        problems = validate_dataset(d)
        assert len(problems) == 1
        assert "asymmetric" in problems[0]

    def test_symmetric_duplicate_is_fine(self):
        d = build_dataset(3, 1, 1, edges={(0, 1): 3, (1, 0): 3}, cells={(0, 0): 1})
        assert validate_dataset(d) == []

    def test_rating_out_of_range(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 7})
        problems = validate_dataset(d)
        assert len(problems) == 1
        assert "7" in problems[0]

    def test_self_edge(self):
        d = build_dataset(2, 1, 1, edges={(1, 1): 3})
        assert any("self-edge" in p for p in validate_dataset(d))

    def test_edge_out_of_bounds(self):
        d = build_dataset(2, 1, 1, edges={(0, 5): 3})
        assert any("outside" in p for p in validate_dataset(d))

    def test_strength_out_of_range(self):
        d = build_dataset(3, 1, 1, edges={(0, 1): 9})
        assert any("strength" in p for p in validate_dataset(d))

    def test_dimension_mismatch(self):
        d = Dataset(
            graph=RelationshipGraph(3),
            ratings=RatingMatrix(2, 2),
            categories=ItemCategoryMatrix(4, 1),
        )
        problems = validate_dataset(d)
        assert len(problems) == 2

    def test_multiple_violations_collected(self):
        d = build_dataset(3, 2, 1,
                          edges={(0, 1): 3, (1, 0): 2, (2, 2): 1},
                          cells={(0, 0): 6, (1, 1): -1})
        assert len(validate_dataset(d)) == 4

    def test_membership_out_of_bounds(self):
        d = build_dataset(1, 2, 2, members={(5, 0)})
        assert any("membership" in p for p in validate_dataset(d))
