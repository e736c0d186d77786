import dataclasses
import math
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socialrec import (
    CfConfig,
    CfPredictor,
    Dataset,
    GenConfig,
    ItemCategoryMatrix,
    RatingMatrix,
    RelationshipGraph,
    category_label,
    item_label,
    load_dataset,
    parse_label,
    round_rating,
    save_dataset,
    SnrsPredictor,
    friend_weighted_fill_trace,
    user_label,
    validate_dataset,
)
from socialrec import storage
from socialrec.datagen import generate_relationships
from socialrec.model import RATING_MAX, RATING_MIN, TableTooLargeError, _round_ratings
from conftest import build_dataset
from test_datagen import reference_edges


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

    @pytest.mark.parametrize("bad", ["U\u00b2", "U\u0663"])
    def test_non_ascii_digits_are_malformed(self, bad):
        with pytest.raises(ValueError, match="malformed 'U' label"):
            parse_label(bad, "U")

    def test_whitespace_tolerated(self):
        assert parse_label(" U7 ", "U") == 6


class TestCheckRating:
    """validate_dataset is the one check of a rating or strength level: the
    six integers 0..5 pass, anything else (a bool included) is reported."""

    @pytest.mark.parametrize("value", [0, 1, 2, 3, 4, 5])
    def test_accepts_levels(self, value):
        d = build_dataset(2, 1, 1, edges={(0, 1): value}, cells={(0, 0): value})
        assert validate_dataset(d) == []

    @pytest.mark.parametrize("bad", [-1, 6, 100, 2.5, "3", True, None])
    def test_rejects(self, bad):
        d = build_dataset(2, 1, 1, edges={(0, 1): bad}, cells={(0, 0): bad})
        assert validate_dataset(d) == [
            f"edge ('U1', 'U2') strength {bad!r} outside 0..5",
            f"rating (U1, I1) value {bad!r} outside 0..5",
        ]


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


def two_branch_rounding(x: float) -> int:
    """The rounding with a separate branch below 0: half away from zero,
    then clamped to the rating scale."""
    rounded = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    return min(RATING_MAX, max(RATING_MIN, rounded))


HALVES = [0.5, -0.5, 2.5, -2.5]
TWO_BRANCH_EDGES = (HALVES + [math.nextafter(h, d) for h in HALVES for d in (-math.inf, math.inf)]
                    + [1e308, -1e308, -0.0, 0.0, -5e-324, -math.ulp(0.5)])


class TestRoundingAgainstTwoBranches:
    """round_rating and _round_ratings round half up and clamp; below 0 that
    gives what the two-branch formula gives."""

    @pytest.mark.parametrize("x", TWO_BRANCH_EDGES)
    def test_edges(self, x):
        assert round_rating(x) == two_branch_rounding(x)
        assert _round_ratings(np.array([x])).tolist() == [two_branch_rounding(x)]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_any_finite(self, values):
        expected = [two_branch_rounding(x) for x in values]
        assert [round_rating(x) for x in values] == expected
        assert _round_ratings(np.array(values, dtype=np.float64)).tolist() == expected


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

    def test_equal_duplicate_orientations_listed_once(self):
        g = RelationshipGraph(3, {(0, 1): 3, (1, 0): 3, (2, 1): 5})
        assert dict(g.edges) == {(0, 1): 3, (1, 2): 5}
        assert g.n_edges == 2
        assert g.friends_of(1) == [(0, 3), (2, 5)]
        assert g.friends_of(0, min_strength=3) == [(1, 3)]

    def test_friends_of_outside_users_raises(self):
        g = RelationshipGraph(3, {(0, 2): 4})
        for u in (-1, 3):
            with pytest.raises(IndexError, match=f"user index {u} outside 0..2"):
                g.friends_of(u)

    @pytest.mark.parametrize("edge, message", [
        ((0, 7, 3), "edge ('U1', 'U8') references a user outside 0..2"),
        ((1, 2, "3"), "edge ('U2', 'U3') strength '3' outside 0..5"),
        ((0, 1, 9), "edge ('U1', 'U2') strength 9 outside 0..5"),
        ((0, 1, -1), "edge ('U1', 'U2') strength -1 outside 0..5"),
        ((0, 1, True), "edge ('U1', 'U2') strength True outside 0..5"),
    ])
    def test_invalid_edge_is_never_read(self, edge, message):
        # each of these once reached the engines as a numpy IndexError, a
        # TypeError or a scored strength
        x, y, s = edge
        d = build_dataset(3, 2, 1, edges={(0, 2): 4, (x, y): s},
                          cells={(0, 0): 1, (0, 1): 4, (1, 1): 2, (2, 0): 3})
        assert d.graph.invalid == (edge,)
        friends_only = CfConfig(neighbor_scope="friends-only")
        fill = GenConfig(n_users=3, n_items=2, n_categories=1)
        for read in (lambda: d.graph.friends_of(0), lambda: SnrsPredictor(d),
                     lambda: CfPredictor(d, friends_only).predict(1, 0),
                     lambda: friend_weighted_fill_trace(d.graph, d.ratings, fill)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read()
        assert validate_dataset(d) == [message]

    def test_self_edge_of_a_graph_user_is_read_once(self):
        d = build_dataset(3, 1, 1, edges={(1, 1): 4, (1, 2): 3, (0, 2): 9, (2, 2): 2})
        assert d.graph.invalid == ((1, 1, 4), (0, 2, 9), (2, 2, 2))
        with pytest.raises(ValueError, match=r"^edge \('U1', 'U3'\) strength 9"):
            d.graph.friends_of(1)
        d = build_dataset(3, 1, 1, edges={(1, 1): 4, (1, 2): 3})
        assert d.graph.invalid == ((1, 1, 4),)
        assert d.graph.friends_of(1) == [(1, 4), (2, 3)]
        assert validate_dataset(d) == ["self-edge on U2"]

    @pytest.mark.parametrize("edges, message", [
        ({(7, 7): 3}, "self-edge on U8"),
        ({(1, 1): 6}, "self-edge on U2"),
        ({(0, 2.5): 3}, "edge ('U1', 'U3.5') references a user outside 0..2"),
    ])
    def test_edge_the_index_cannot_hold_is_refused(self, edges, message):
        # a user must be a plain int of the graph, as a strength must be a plain int level;
        # the user 2.5 once passed validate_dataset and reached friends_of as a neighbour
        d = build_dataset(3, 1, 1, edges=edges)
        assert validate_dataset(d) == [message]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            d.graph.strength(0, 1)

    @pytest.mark.parametrize("edges, invalid, message", [
        ({("a", "b"): 3}, ("a", "b", 3), """edge ("'a'", "'b'") references a user outside 0..2"""),
        ({(1, "b"): 3}, (1, "b", 3), """edge ('U2', "'b'") references a user outside 0..2"""),
        ({("a", "a"): 3}, ("a", "a", 3), "self-edge on 'a'"),
    ])
    def test_user_that_is_not_a_number_is_reported(self, edges, invalid, message):
        # a str user once raised a bare TypeError from user_label at construction
        d = build_dataset(3, 1, 1, edges={(0, 2): 4, **edges})
        assert d.graph.invalid == (invalid,)
        assert validate_dataset(d) == [message]
        if invalid[0] != invalid[1]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                d.graph.friends_of(0)

    def test_index_beyond_its_sort_key_is_too_large(self):
        # user * n_users + neighbour stays within int64 up to 3 037 000 499 users
        with pytest.raises(TableTooLargeError, match="friendship index of 3037000500 users"):
            RelationshipGraph(3_037_000_500, {(0, 1): 3}).friends_of(0)

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
            st.just(n),
            # keys are unordered pairs; the flip picks the orientation passed in
            st.dictionaries(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda pair: pair[0] < pair[1]),
                st.tuples(st.integers(0, 5), st.booleans()), max_size=3 * n),
        )),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_friends_of_matches_edge_scan(self, graph_spec, edge_density, seed):
        n_users, spec = graph_spec
        g = RelationshipGraph(n_users, {((y, x) if flip else (x, y)): s
                                        for (x, y), (s, flip) in spec.items()})
        canonical = [(pair, s) for pair, (s, _) in spec.items()]
        assert_reads_edges(g, n_users, canonical)
        # the array paths: the generator, and a bulk load of a saved file
        cfg = GenConfig(n_users=n_users, edge_density=edge_density, rng_seed=seed)
        assert_reads_edges(generate_relationships(cfg), n_users,
                           list(reference_edges(cfg).items()))
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(build_dataset(n_users, 0, 0, edges=dict(canonical)), tmp)
            with mock.patch.object(storage, "_read_rows", side_effect=shape_rows_only):
                loaded = load_dataset(tmp)
        assert_reads_edges(loaded.graph, n_users, sorted(canonical))


def shape_rows_only(name, text, read_rows=storage._read_rows):
    """storage._read_rows for shape.csv, the one file always walked."""
    assert name == "shape.csv", f"{name} was walked row by row"
    return read_rows(name, text)


def assert_reads_edges(g, n_users, items):
    """``g`` holds the (low, high) ``items`` in their order, and every
    reader agrees with a scan of them."""
    canonical = dict(items)
    assert list(g.edges.items()) == items
    assert g.n_edges == len(items)
    assert g == RelationshipGraph(n_users, canonical)
    for x in range(n_users):
        for y in range(n_users):
            assert g.strength(x, y) == canonical.get((min(x, y), max(x, y)))
    for min_strength in range(7):
        for u in range(n_users):
            expected = sorted(
                [(y, s) for (x, y), s in items if x == u and s >= min_strength]
                + [(x, s) for (x, y), s in items if y == u and s >= min_strength])
            assert g.friends_of(u, min_strength) == expected


class TestRatingMatrix:
    def test_get(self):
        m = RatingMatrix(2, 3, {(1, 2): 4})
        assert m.get(1, 2) == 4
        assert m.get(0, 0) is None

    def test_fixed_at_construction(self):
        cells = {(0, 0): 1}
        m = RatingMatrix(2, 2, cells)
        assert m.user_mean(1) is None
        cells[(1, 1)] = 2
        assert m.get(1, 1) is None
        assert m.user_mean(1) is None
        assert m.n_rated == 1

    def test_rows_and_columns(self):
        m = RatingMatrix(3, 2, {(0, 0): 1, (0, 1): 5, (2, 0): 3})
        assert m.dense()[0].tolist() == [1, 5]
        assert m.dense()[1].tolist() == [-1, -1]
        assert m.dense()[:, 0].tolist() == [1, -1, 3]

    def test_means(self):
        m = RatingMatrix(2, 3, {(0, 0): 1, (0, 1): 3, (0, 2): 5})
        assert m.user_mean(0) == 3.0
        assert m.user_mean(1) is None
        assert m.global_mean() == 3.0
        assert RatingMatrix(1, 1).global_mean() is None

    @pytest.mark.parametrize("user", [-1, 2])
    def test_user_mean_rejects_users_out_of_range(self, user):
        with pytest.raises(IndexError, match=f"user index {user} outside 0..1"):
            RatingMatrix(2, 3, {(1, 0): 4}).user_mean(user)

    def test_mean_is_row_sum_over_row_length(self):
        m = RatingMatrix(1, 3, {(0, 0): 1, (0, 1): 2, (0, 2): 2})
        assert m.user_mean(0) == 5 / 3

    def test_density(self):
        m = RatingMatrix(2, 2, {(0, 0): 1})
        assert m.density == 0.25

    def test_cells_sorted(self):
        m = RatingMatrix(2, 2, {(1, 1): 1, (0, 1): 2, (1, 0): 3})
        assert list(m.cells()) == [(0, 1, 2), (1, 0, 3), (1, 1, 1)]

    def test_dense(self):
        m = RatingMatrix(2, 3, {(0, 1): 4, (1, 2): 0})
        assert m.dense().tolist() == [[-1, 4, -1], [-1, -1, 0]]
        assert m.dense() is m.dense() and not m.dense().flags.writeable
        assert RatingMatrix(2, 0).dense().shape == (2, 0)

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (2, 0), (0, 3)])
    def test_dense_rejects_cells_out_of_bounds(self, cell):
        with pytest.raises(ValueError):
            RatingMatrix(2, 3, {cell: 1}).dense()


    @pytest.mark.parametrize("cell, value, message", [
        ((1, 0), 7, "rating (U2, I1) value 7 outside 0..5"),
        ((1, 0), "3", "rating (U2, I1) value '3' outside 0..5"),
        ((1, 0), 3.7, "rating (U2, I1) value 3.7 outside 0..5"),
        ((1, 0), True, "rating (U2, I1) value True outside 0..5"),
        ((1, 0), 300, "rating (U2, I1) value 300 outside 0..5"),
        ((2, 0), 3, "rating cell (U3, I1) out of bounds for 2x2 matrix"),
    ])
    def test_invalid_entry_is_never_scored(self, cell, value, message):
        # each of these once reached the engines as a coerced number or a
        # numpy error unrelated to the cell
        d = build_dataset(2, 2, 1, edges={(0, 1): 3},
                          cells={(0, 0): 1, (0, 1): 4, (1, 1): 2, cell: value})
        assert d.ratings.invalid == ((*cell, value),)
        for read in (d.ratings.dense, lambda: CfPredictor(d), lambda: SnrsPredictor(d)):
            with pytest.raises(ValueError, match=re.escape(message)):
                read()
        assert validate_dataset(d) == [message]

    @pytest.mark.parametrize("cells, invalid, message", [
        ({(0.5, 1): 3}, ((0.5, 1, 3),), "rating cell (U1.5, I2) out of bounds for 3x2 matrix"),
        ({(2, 1.0): 3}, ((2, 1.0, 3),), "rating cell (U3, I2.0) out of bounds for 3x2 matrix"),
        ({("a", 1): 3, (9, 0): 2}, ((9, 0, 2), ("a", 1, 3)),
         "rating cell (U10, I1) out of bounds for 3x2 matrix"),
        ({(1, "b"): 3}, ((1, "b", 3),), "rating cell (U2, 'b') out of bounds for 3x2 matrix"),
        ({(True, 1): 3}, ((True, 1, 3),), "rating cell (U2, I2) out of bounds for 3x2 matrix"),
    ])
    def test_coordinate_that_is_not_an_int_is_kept_invalid(self, cells, invalid, message):
        # (0.5, 1) was once truncated to (U1, I2) and stored without a word,
        # and a str coordinate raised a bare TypeError
        m = RatingMatrix(3, 2, {(0, 0): 4, **cells})
        assert m.invalid == invalid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            m.dense()
        d = Dataset(graph=RelationshipGraph(3), ratings=m, categories=ItemCategoryMatrix(2, 1))
        assert validate_dataset(d)[0] == message
        assert len(validate_dataset(d)) == len(invalid)

    @pytest.mark.parametrize("array", [np.full((2, 3), 6), np.full((2, 3), -2),
                                       np.full((3, 2), 1), np.full((2, 3), 1.0)])
    def test_array_form_must_fit(self, array):
        with pytest.raises(ValueError, match="expected a"):
            RatingMatrix(2, 3, array)


LEVELS = st.integers(0, 5)


@st.composite
def equal_forms(draw):
    """A rating map and member pairs with the equal arrays, each of some
    integer dtype."""
    n_users, n_items, n_categories = (draw(st.integers(0, 5)) for _ in range(3))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, n_users - 1),
                                           st.integers(0, n_items - 1)), LEVELS)
                 if n_users and n_items else st.just({}))
    members = draw(st.sets(st.tuples(st.integers(0, n_items - 1),
                                     st.integers(0, n_categories - 1)))
                   if n_items and n_categories else st.just(set()))
    grid = np.full((n_users, n_items), -1,
                   dtype=draw(st.sampled_from([np.int8, np.int16, np.int64])))
    bits = np.zeros((n_items, n_categories),
                    dtype=draw(st.sampled_from([np.uint8, np.int32, np.int64])))
    for (u, i), r in cells.items():
        grid[u, i] = r
    for i, c in members:
        bits[i, c] = 1
    return n_users, n_items, n_categories, cells, members, grid, bits


class TestTableForms:
    """Each table is read the same whether it was built from its map or
    pairs or from its array."""

    @pytest.mark.parametrize("table, dims", [(RatingMatrix, ("n_users", "n_items")),
                                             (ItemCategoryMatrix, ("n_items", "n_categories"))])
    def test_dimensions_are_counts_held_as_ints(self, table, dims):
        # an int16 300 would wrap in n_users * n_items
        m = table(np.int16(300), np.int16(300))
        assert [type(getattr(m, name)) for name in dims] == [int, int]
        assert m == table(300, 300)
        for at, name in enumerate(dims):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got -1$"):
                table(*[-1 if k == at else 3 for k in range(2)])

    @settings(max_examples=80, deadline=None)
    @given(forms=equal_forms())
    def test_every_reader_agrees(self, forms):
        n_users, n_items, n_categories, cells, members, grid, bits = forms
        from_map = RatingMatrix(n_users, n_items, cells)
        from_array = RatingMatrix(n_users, n_items, grid)
        expected = sorted((u, i, r) for (u, i), r in cells.items())
        mean = sum(cells.values()) / len(cells) if cells else None
        for m in (from_map, from_array):
            assert m.invalid == ()
            assert [m.get(u, i) for u in range(-1, n_users + 1)
                    for i in range(-1, n_items + 1)] == [
                cells.get((u, i)) for u in range(-1, n_users + 1)
                for i in range(-1, n_items + 1)]
            assert list(m.cells()) == expected
            assert m.n_rated == len(cells)
            assert (m.global_mean() is None) == (mean is None)
            if mean is not None:
                assert float.hex(m.global_mean()) == float.hex(mean)
            assert m.dense().tolist() == grid.tolist()
        assert np.array_equal(from_map.means(), from_array.means(), equal_nan=True)
        assert from_map == from_array
        assert repr(from_map) == repr(from_array)

        pairs = ItemCategoryMatrix(n_items, n_categories, members)
        array = ItemCategoryMatrix(n_items, n_categories, bits)
        for m in (pairs, array):
            assert m.invalid == ()
            assert list(m.members()) == sorted(members)
            assert m.n_members == len(members)
            assert m.dense().tolist() == bits.tolist()
        assert pairs == array
        assert repr(pairs) == repr(array)


class TestItemCategoryMatrix:
    def test_bits(self):
        m = ItemCategoryMatrix(3, 2, {(0, 1), (2, 0)})
        assert m.dense()[0, 1] == 1
        assert m.dense()[0, 0] == 0
        assert m.n_members == 2

    def test_built_from_any_pair_iterable(self):
        m = ItemCategoryMatrix(2, 3, iter([(1, 2), (0, 0), (1, 2)]))
        assert m.n_members == 2
        assert list(m.members()) == [(0, 0), (1, 2)]
        assert m == ItemCategoryMatrix(2, 3, [(0, 0), (1, 2)])
        assert ItemCategoryMatrix(2, 3).n_members == 0

    def test_dense(self):
        m = ItemCategoryMatrix(3, 2, {(0, 1), (2, 0)})
        assert m.dense().tolist() == [[0, 1], [0, 0], [1, 0]]
        assert m.dense() is m.dense() and not m.dense().flags.writeable
        assert ItemCategoryMatrix(2, 0).dense().shape == (2, 0)

    def test_coordinate_that_is_not_an_int_is_kept_invalid(self):
        # (1.7, 0) was once truncated to (I2, C1) and stored without a word
        m = ItemCategoryMatrix(2, 2, {(1.7, 0), (0, "c"), (0, 1)})
        assert m.invalid == ((0, "c"), (1.7, 0))
        with pytest.raises(ValueError, match=r"^membership \(I1, 'c'\) out of bounds for 2x2"):
            m.dense()
        d = Dataset(graph=RelationshipGraph(3), ratings=RatingMatrix(3, 2), categories=m)
        assert validate_dataset(d) == ["membership (I1, 'c') out of bounds for 2x2 matrix",
                                       "membership (I2.7, C1) out of bounds for 2x2 matrix"]


class TestDataset:
    def test_dimensions(self, tiny_dataset):
        assert tiny_dataset.n_users == 3
        assert tiny_dataset.n_items == 2
        assert tiny_dataset.n_categories == 2

    def test_meta_not_compared(self, tiny_dataset):
        other = Dataset(tiny_dataset.graph, tiny_dataset.ratings,
                        tiny_dataset.categories, meta={"anything": 1})
        assert other == tiny_dataset

    def test_frozen(self, tiny_dataset):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_dataset.ratings = RatingMatrix(3, 2)


class TestValidateDataset:
    def test_well_formed(self, tiny_dataset):
        assert validate_dataset(tiny_dataset) == []

    def test_asymmetric_edge(self):
        with pytest.raises(ValueError, match="conflicting strengths for pair U1/U2"):
            build_dataset(3, 1, 1, edges={(0, 1): 3, (1, 0): 2})

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

    def test_rating_cell_out_of_bounds(self):
        d = build_dataset(2, 2, 1, cells={(2, 0): 3, (0, -1): 3})
        problems = validate_dataset(d)
        assert len(problems) == 2
        assert all("out of bounds" in p for p in problems)

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
                          edges={(0, 1): 9, (2, 2): 1},
                          cells={(0, 0): 6, (1, 1): -1})
        assert len(validate_dataset(d)) == 4

    def test_membership_out_of_bounds(self):
        d = build_dataset(1, 2, 2, members={(5, 0)})
        assert any("membership" in p for p in validate_dataset(d))

    def test_messages_in_full(self):
        d = build_dataset(3, 2, 1, edges={(0, 1): 9, (2, 2): 1, (0, 5): 3},
                          cells={(0, 0): 6, (4, 1): 2, (2, -1): 7, (1, 1): 3},
                          members={(0, 0), (3, 1)})
        assert validate_dataset(d) == [
            "edge ('U1', 'U2') strength 9 outside 0..5",
            "self-edge on U3",
            "edge ('U1', 'U6') references a user outside 0..2",
            "rating (U1, I1) value 6 outside 0..5",
            "rating cell (U3, I0) out of bounds for 3x2 matrix",
            "rating (U3, I0) value 7 outside 0..5",
            "rating cell (U5, I2) out of bounds for 3x2 matrix",
            "membership (I4, C2) out of bounds for 2x1 matrix",
        ]


def reference_problems(dataset, cells, members):
    """validate_dataset's messages from one loop per table over the entries
    as given: the edge loop that validate_dataset ran before the graph kept
    its invalid edges, then the rating cells and the memberships in index
    order."""
    graph, ratings, categories = dataset.graph, dataset.ratings, dataset.categories
    problems = []
    if graph.n_users != ratings.n_users:
        problems.append(f"graph has {graph.n_users} users but rating matrix has "
                        f"{ratings.n_users}")
    if ratings.n_items != categories.n_items:
        problems.append(f"rating matrix has {ratings.n_items} items but category "
                        f"matrix has {categories.n_items}")
    for (x, y), s in graph.edges.items():
        if x == y:
            problems.append(f"self-edge on {user_label(x)}")
        elif not (0 <= x < graph.n_users and 0 <= y < graph.n_users):
            problems.append(f"edge {(user_label(x), user_label(y))} references a user "
                            f"outside 0..{graph.n_users - 1}")
        elif not (type(s) is int and 0 <= s <= 5):
            problems.append(f"edge {(user_label(x), user_label(y))} strength {s!r} outside "
                            f"0..5")
    for (u, i), r in sorted(cells.items()):
        if not (0 <= u < ratings.n_users and 0 <= i < ratings.n_items):
            problems.append(f"rating cell ({user_label(u)}, {item_label(i)}) out of bounds "
                            f"for {ratings.n_users}x{ratings.n_items} matrix")
        if not (type(r) is int and 0 <= r <= 5):
            problems.append(f"rating ({user_label(u)}, {item_label(i)}) value {r!r} outside "
                            f"0..5")
    for i, c in sorted(members):
        if not (0 <= i < categories.n_items and 0 <= c < categories.n_categories):
            problems.append(f"membership ({item_label(i)}, {category_label(c)}) out of "
                            f"bounds for {categories.n_items}x{categories.n_categories} matrix")
    return problems


@st.composite
def mixed_tables(draw):
    """Small tables whose entries mix valid ones with self-edges, users,
    cells and pairs outside the shape, and values that are not levels; the
    graph may have one user more than the rating matrix."""
    n_users, n_items, n_categories = (draw(st.integers(0, 4)) for _ in range(3))
    values = st.integers(-1, 9)
    if draw(st.booleans()):  # a value that is not an int makes its graph column an object array
        values |= st.sampled_from(["3", True, 2.5])
    graph_users = n_users + draw(st.integers(0, 1))
    user, item = st.integers(-1, graph_users + 1), st.integers(-1, n_items + 1)
    chosen = draw(st.dictionaries(st.tuples(user, user).map(lambda pair: tuple(sorted(pair))),
                                  values, max_size=20))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = {((y, x) if flip else (x, y)): s
             for ((x, y), s), flip in zip(chosen.items(), flips)}
    cells = draw(st.dictionaries(st.tuples(user, item), values, max_size=30))
    members = draw(st.sets(st.tuples(item, st.integers(-1, n_categories + 1)), max_size=30))
    dataset = Dataset(graph=RelationshipGraph(graph_users, edges),
                      ratings=RatingMatrix(n_users, n_items, cells),
                      categories=ItemCategoryMatrix(n_items + draw(st.integers(0, 1)),
                                                    n_categories, members))
    return dataset, cells, members


class TestValidateDatasetOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=mixed_tables())
    def test_matches_one_loop_per_table(self, case):
        dataset, cells, members = case
        assert validate_dataset(dataset) == reference_problems(dataset, cells, members)
