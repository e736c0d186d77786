import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from socialrec import (
    DataFormatError,
    DatasetValidationError,
    GenConfig,
    generate_dataset,
    load_dataset,
    run_comparison,
    save_dataset,
)
from socialrec import storage
from socialrec.evaluate import SplitSpec
from socialrec.model import category_label, item_label, user_label
from conftest import build_dataset
from test_golden import DENSE_SHAPE

FILES = ["relationships.csv", "ratings.csv", "categories.csv", "shape.csv"]


def read_all(directory):
    return {name: (Path(directory) / name).read_bytes() for name in FILES}


def write_dir(directory, relationships=None, ratings=None, categories=None):
    """Write a dataset directory from raw CSV text (defaults are header-only)."""
    directory.mkdir(parents=True, exist_ok=True)
    contents = {
        "relationships.csv": relationships or "user_a,user_b,strength\n",
        "ratings.csv": ratings or "user,item,rating\n",
        "categories.csv": categories or "item,category\n",
    }
    for name, text in contents.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


class TestRoundTrip:
    def test_tiny(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == tiny_dataset

    def test_generated(self, default_dataset, tmp_path):
        save_dataset(default_dataset, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded == default_dataset
        assert loaded.ratings.n_rated == 1000

    def test_shape_file_keeps_dims_in_no_row(self, tmp_path):
        # the last user/item/category appear in no row; shape.csv keeps them
        d = build_dataset(4, 3, 2, edges={(0, 1): 2}, cells={(0, 0): 3})
        save_dataset(d, tmp_path / "d")
        assert (tmp_path / "d" / "shape.csv").read_text() == \
            "n_users,n_items,n_categories\n4,3,2\n"
        assert load_dataset(tmp_path / "d") == d

    @pytest.mark.parametrize("shape, seed", [*[("default", s) for s in range(10)],
                                             *[("dense", s) for s in range(10)],
                                             ("default", 61007)])
    def test_generated_datasets_and_comparisons(self, shape, seed, tmp_path):
        # seed 61007 puts no item in C10; without shape.csv it reloads with 9
        if shape == "default":
            d, spec = generate_dataset(GenConfig(rng_seed=seed)), SplitSpec()
        else:
            d = generate_dataset(GenConfig(rng_seed=seed, **DENSE_SHAPE))
            spec = SplitSpec(tuple(range(60, 120)), tuple(range(8)))
        save_dataset(d, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded == d
        assert run_comparison(loaded, spec) == run_comparison(d, spec)

    def test_inferred_dims_cover_mentioned_indices(self, tmp_path):
        d = build_dataset(3, 2, 1, edges={(0, 2): 1}, cells={(1, 1): 4},
                          members={(0, 0)})
        save_dataset(d, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == d


class TestSaveDeterminism:
    def test_byte_identical(self, default_dataset, tmp_path):
        save_dataset(default_dataset, tmp_path / "a")
        save_dataset(default_dataset, tmp_path / "b")
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_rows_sorted_with_lf_endings(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "d")
        text = (tmp_path / "d" / "ratings.csv").read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "user,item,rating"
        assert lines[1:] == ["U1,I1,1", "U1,I2,3", "U2,I1,2", "U2,I2,4",
                             "U3,I1,0", "U3,I2,5"]

    def test_canonical_pair_order(self, tmp_path):
        d = build_dataset(3, 1, 1, edges={(2, 0): 4, (1, 0): 1}, cells={(0, 0): 2})
        save_dataset(d, tmp_path / "d")
        lines = (tmp_path / "d" / "relationships.csv").read_text().splitlines()
        assert lines[1:] == ["U1,U2,1", "U1,U3,4"]

    def test_empty_dataset_headers_only(self, tmp_path):
        save_dataset(build_dataset(0, 0, 0), tmp_path / "d")
        assert (tmp_path / "d" / "relationships.csv").read_text() == "user_a,user_b,strength\n"
        assert (tmp_path / "d" / "ratings.csv").read_text() == "user,item,rating\n"
        assert (tmp_path / "d" / "categories.csv").read_text() == "item,category\n"
        assert (tmp_path / "d" / "shape.csv").read_text() == \
            "n_users,n_items,n_categories\n0,0,0\n"

    def test_refuses_invalid(self, tmp_path):
        bad = build_dataset(3, 1, 1, edges={(0, 1): 9})
        with pytest.raises(ValueError, match="refusing to save"):
            save_dataset(bad, tmp_path / "d")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_files_equal_a_row_by_row_writer(self, data):
        n_users = data.draw(st.integers(min_value=0, max_value=12))
        n_items = data.draw(st.integers(min_value=0, max_value=11))
        n_categories = data.draw(st.integers(min_value=0, max_value=11))
        pairs = [(x, y) for x in range(n_users) for y in range(x + 1, n_users)]
        spec = data.draw(st.lists(st.tuples(st.sampled_from(pairs), LEVELS, st.booleans()),
                                  unique_by=lambda edge: edge[0])) if pairs else []
        cells = [(u, i) for u in range(n_users) for i in range(n_items)]
        bits = [(i, c) for i in range(n_items) for c in range(n_categories)]
        # mappings in draw order: unsorted, and each edge in either orientation
        dataset = build_dataset(
            n_users, n_items, n_categories,
            edges={((y, x) if flip else (x, y)): s for (x, y), s, flip in spec},
            cells=dict(data.draw(st.lists(st.tuples(st.sampled_from(cells), LEVELS),
                                          unique_by=lambda cell: cell[0]))) if cells else {},
            members=data.draw(st.lists(st.sampled_from(bits), unique=True)) if bits else [])
        tables = {
            "relationships.csv": (["user_a", "user_b", "strength"],
                                  [(user_label(a), user_label(b), s)
                                   for (a, b), s in sorted(dataset.graph.edges.items())]),
            "ratings.csv": (["user", "item", "rating"],
                            [(user_label(u), item_label(i), r)
                             for u, i, r in dataset.ratings.cells()]),
            "categories.csv": (["item", "category"],
                               [(item_label(i), category_label(c))
                                for i, c in dataset.categories.members()]),
            "shape.csv": (["n_users", "n_items", "n_categories"],
                          [(n_users, n_items, n_categories)]),
        }
        expected = {}
        for name, (header, rows) in tables.items():
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
            expected[name] = buffer.getvalue().encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(dataset, tmp)
            assert read_all(tmp) == expected


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        directory = write_dir(tmp_path / "d")
        (directory / "ratings.csv").unlink()
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert err.value.file == "ratings.csv"
        assert "not found" in err.value.reason

    def test_rating_out_of_range_names_line(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              ratings="user,item,rating\nU1,I1,3\nU2,I5,9\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert err.value.file == "ratings.csv"
        assert err.value.line == 3
        assert "9" in err.value.reason
        assert "ratings.csv:3" in str(err.value)

    @pytest.mark.parametrize("label", ["U\u0663", "U\u00b2"])
    def test_non_ascii_digit_label_names_line(self, tmp_path, label):
        directory = write_dir(tmp_path / "d",
                              ratings=f"user,item,rating\nU1,I1,3\n{label},I1,4\n")
        with pytest.raises(DataFormatError, match="malformed 'U' label") as err:
            load_dataset(directory)
        assert err.value.file == "ratings.csv"
        assert err.value.line == 3

    @pytest.mark.parametrize("table, row, reason", [
        ("relationships", "U2,U3,\u0663", "strength '\u0663' is not an integer"),
        ("ratings", "U2,I1,+4", "rating '+4' is not an integer"),
        ("ratings", "U2,I1,\u0665", "rating '\u0665' is not an integer"),
        ("ratings", "U2,I1,4.0", "rating '4.0' is not an integer"),
        ("ratings", "U2,I1, -1", "rating -1 outside 0..5"),
    ])
    def test_level_not_in_ascii_digits_names_line(self, tmp_path, table, row, reason):
        header = {"relationships": "user_a,user_b,strength", "ratings": "user,item,rating"}
        first = {"relationships": "U1,U2,3", "ratings": "U1,I1,3"}
        directory = write_dir(tmp_path / "d",
                              **{table: f"{header[table]}\n{first[table]}\n{row}\n"})
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert (err.value.file, err.value.line) == (f"{table}.csv", 3)
        assert err.value.reason == reason

    def test_levels_and_counts_may_carry_whitespace(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              relationships="user_a,user_b,strength\nU1,U2, 3\t\n",
                              ratings="user,item,rating\nU1,I1, 04 \n")
        (directory / "shape.csv").write_text("n_users,n_items,n_categories\n 2,1\t, 0\n")
        loaded = load_dataset(directory)
        assert loaded.graph.strength(0, 1) == 3
        assert loaded.ratings.get(0, 0) == 4
        assert (loaded.n_users, loaded.n_items, loaded.n_categories) == (2, 1, 0)

    def test_conflicting_pair_strengths(self, tmp_path):
        directory = write_dir(
            tmp_path / "d",
            relationships="user_a,user_b,strength\nU1,U2,3\nU2,U1,4\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert "conflicting" in err.value.reason
        assert err.value.line == 3

    def test_duplicate_pair_same_strength(self, tmp_path):
        directory = write_dir(
            tmp_path / "d",
            relationships="user_a,user_b,strength\nU1,U2,3\nU2,U1,3\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert "duplicate" in err.value.reason

    def test_self_edge_row(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              relationships="user_a,user_b,strength\nU3,U3,1\n")
        with pytest.raises(DataFormatError, match="self-edge"):
            load_dataset(directory)

    def test_bad_header(self, tmp_path):
        directory = write_dir(tmp_path / "d", ratings="user,item,score\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(directory)

    def test_wrong_field_count(self, tmp_path):
        directory = write_dir(tmp_path / "d", ratings="user,item,rating\nU1,I1\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert err.value.line == 2

    def test_bad_label(self, tmp_path):
        directory = write_dir(tmp_path / "d", ratings="user,item,rating\nX1,I1,3\n")
        with pytest.raises(DataFormatError, match="label"):
            load_dataset(directory)

    def test_non_integer_value(self, tmp_path):
        directory = write_dir(tmp_path / "d", ratings="user,item,rating\nU1,I1,two\n")
        with pytest.raises(DataFormatError, match="not an integer"):
            load_dataset(directory)

    def test_duplicate_rating_row(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              ratings="user,item,rating\nU1,I1,3\nU1,I1,3\n")
        with pytest.raises(DataFormatError, match="duplicate rating"):
            load_dataset(directory)

    def test_duplicate_category_row(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              categories="item,category\nI1,C2\nI1,C2\n")
        with pytest.raises(DataFormatError, match="duplicate membership"):
            load_dataset(directory)

    def test_undecodable_file_names_line(self, tmp_path):
        directory = write_dir(tmp_path / "d")
        (directory / "ratings.csv").write_bytes(b"user,item,rating\nU1,I1,3\nU2,I\xff1,2\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert err.value.file == "ratings.csv"
        assert err.value.line == 3
        assert "UTF-8" in err.value.reason

    def test_oversized_field_names_line(self, tmp_path):
        field = "9" * (csv.field_size_limit() + 1)
        directory = write_dir(tmp_path / "d",
                              ratings=f"user,item,rating\nU1,I1,3\nU2,I1,{field}\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert err.value.file == "ratings.csv"
        assert err.value.line == 3
        assert "field limit" in err.value.reason

    @pytest.mark.parametrize("text, line, reason", [
        ("n_users,n_items,n_categories\n4,3,x\n", 2, "n_categories 'x' is not an integer"),
        ("n_users,n_items,n_categories\n4,-1,2\n", 2, "n_items -1 is negative"),
        ("n_users,n_items,n_categories\n4,3\n", 2, "expected 3 fields, got 2"),
        ("n_users,n_items,n_categories\n", 2, "expected one row of counts, got 0"),
        ("n_users,n_items,n_categories\n4,3,2\n4,3,2\n", 3,
         "expected one row of counts, got 2"),
        ("n_users,n_items\n4,3\n", 1, "expected header"),
        ("n_users,n_items,n_categories\n2_0,1,1\n", 2, "n_users '2_0' is not an integer"),
        ("n_users,n_items,n_categories\n4,+1,2\n", 2, "n_items '+1' is not an integer"),
        ("n_users,n_items,n_categories\n4,3,\u0663\n", 2,
         "n_categories '\u0663' is not an integer"),
        ("n_users,n_items,n_categories\n4, -1 ,2\n", 2, "n_items -1 is negative"),
    ])
    def test_malformed_shape_file_names_line(self, text, line, reason, tmp_path):
        directory = write_dir(tmp_path / "d")
        (directory / "shape.csv").write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert (err.value.file, err.value.line) == ("shape.csv", line)
        assert err.value.reason.startswith(reason)

    def test_shape_smaller_than_data_fails_validation(self, tmp_path):
        d = build_dataset(4, 2, 1, cells={(3, 0): 2, (0, 1): 1})
        save_dataset(d, tmp_path / "d")
        (tmp_path / "d" / "shape.csv").write_text("n_users,n_items,n_categories\n2,2,1\n",
                                                 encoding="utf-8")
        with pytest.raises(DatasetValidationError, match="out of bounds"):
            load_dataset(tmp_path / "d")


class TestLoadSemantics:
    @pytest.mark.parametrize("relationships, ratings, categories", [
        # rows swapped and pairs reversed
        ("U3,U1,1\nU2,U1,3\n", "U3,I2,4\nU1,I1,2\n", "I2,C2\nI1,C1\n"),
        # rows swapped, pairs as saved
        ("U1,U3,1\nU1,U2,3\n", "U3,I2,4\nU1,I1,2\n", "I2,C2\nI1,C1\n"),
        # rows as saved, pairs reversed
        ("U2,U1,3\nU3,U1,1\n", "U1,I1,2\nU3,I2,4\n", "I1,C1\nI2,C2\n"),
    ])
    def test_row_order_does_not_matter(self, relationships, ratings, categories, tmp_path):
        # only save_dataset's row order parses in bulk; the rest is walked
        a = write_dir(tmp_path / "a",
                      relationships="user_a,user_b,strength\nU1,U2,3\nU1,U3,1\n",
                      ratings="user,item,rating\nU1,I1,2\nU3,I2,4\n",
                      categories="item,category\nI1,C1\nI2,C2\n")
        b = write_dir(tmp_path / "b",
                      relationships="user_a,user_b,strength\n" + relationships,
                      ratings="user,item,rating\n" + ratings,
                      categories="item,category\n" + categories)
        assert load_dataset(a) == load_dataset(b)

    def test_reversed_orientation_accepted(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              relationships="user_a,user_b,strength\nU5,U2,4\n")
        loaded = load_dataset(directory)
        assert loaded.graph.strength(1, 4) == 4

    def test_strength_zero_kept(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              relationships="user_a,user_b,strength\nU1,U2,0\n")
        loaded = load_dataset(directory)
        assert loaded.graph.strength(0, 1) == 0

    def test_gen_save_load_chain(self, tmp_path):
        cfg = GenConfig(n_users=12, n_items=4, n_categories=3,
                        edge_density=0.4, rng_seed=5)
        d = generate_dataset(cfg)
        save_dataset(d, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == d


TABLES = ["relationships.csv", "ratings.csv", "categories.csv"]
LEVELS = st.integers(min_value=0, max_value=5)


def _with_zero(field):
    return field[0] + "0" + field[1:] if field[:1].isalpha() else "0" + field


def _conflicting(fields):
    if len(fields) == 3 and fields[2].isdigit():
        return [fields, fields[:2] + [str((int(fields[2]) + 1) % 6)]]
    return [fields, fields]


def _replaced(fields, f, value):
    return [fields[:f] + [value] + fields[f + 1:]]


# Each edit takes one row's fields and a field index, and returns the rows
# that replace it.
ROW_EDITS = {
    "whitespace": lambda fields, f: _replaced(fields, f, f" {fields[f]}\t"),
    "leading_zero": lambda fields, f: _replaced(fields, f, _with_zero(fields[f])),
    "quoted": lambda fields, f: _replaced(fields, f, f'"{fields[f]}"'),
    "cr_on_one_row": lambda fields, f: [fields[:-1] + [fields[-1] + "\r"]],
    "reversed": lambda fields, f: [[fields[1], fields[0], *fields[2:]]],
    "duplicate": lambda fields, f: [fields, fields],
    "conflicting": lambda fields, f: _conflicting(fields),
    "self_edge": lambda fields, f: [[fields[0], fields[0], *fields[2:]]],
    "level_6": lambda fields, f: [fields[:-1] + ["6"]],
    "label_zero": lambda fields, f: [[fields[0][0] + "0", *fields[1:]]],
    "label_18_digits": lambda fields, f: [[fields[0][0] + "9" * 18, *fields[1:]]],
    "label_19_digits": lambda fields, f: [[fields[0][0] + "9" * 19, *fields[1:]]],
}
TEXT_EDITS = {
    "shuffled": lambda header, rows, draw: [header, *draw(st.permutations(rows)), ""],
    "crlf": lambda header, rows, draw: ["\r\n".join([header, *rows, ""])],
    "no_final_newline": lambda header, rows, draw: [header, *rows],
    "blank_line": lambda header, rows, draw: [header, *rows, "", ""],
    "header_only": lambda header, rows, draw: [header, ""],
    "empty_file": lambda header, rows, draw: [""],
}


def mutate(text, kind, draw):
    """One edit of a table file's text; a row edit on a file without rows
    leaves it as it is."""
    header, *lines = text.split("\n")
    if kind in TEXT_EDITS:
        return "\n".join(TEXT_EDITS[kind](header, [row for row in lines if row], draw))
    filled = [r for r, row in enumerate(lines) if row]
    if filled:
        r = draw(st.sampled_from(filled))
        fields = lines[r].split(",")
        f = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        lines[r:r + 1] = [",".join(row) for row in ROW_EDITS[kind](fields, f)]
    return "\n".join([header, *lines])


@st.composite
def small_datasets(draw):
    n_users = draw(st.integers(min_value=0, max_value=6))
    n_items = draw(st.integers(min_value=0, max_value=4))
    n_categories = draw(st.integers(min_value=0, max_value=3))
    pairs = [(x, y) for x in range(n_users) for y in range(x + 1, n_users)]
    cells = [(u, i) for u in range(n_users) for i in range(n_items)]
    bits = [(i, c) for i in range(n_items) for c in range(n_categories)]
    return build_dataset(
        n_users, n_items, n_categories,
        edges=draw(st.dictionaries(st.sampled_from(pairs), LEVELS)) if pairs else {},
        cells=draw(st.dictionaries(st.sampled_from(cells), LEVELS)) if cells else {},
        members=draw(st.sets(st.sampled_from(bits))) if bits else set())


def load_outcome(directory):
    """What load_dataset gives: the dataset with the iteration order of its
    edges, or the exception's type and message."""
    try:
        d = load_dataset(directory)
    except Exception as exc:
        return type(exc), str(exc)
    return d, list(d.graph.edges.items())


class TestBulkParse:
    """Files in save_dataset's own form parse in bulk; any other text goes
    through the csv row walk.  The two must give the same outcome."""

    @pytest.mark.parametrize("kind", [None, *ROW_EDITS, *TEXT_EDITS])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_row_walk(self, kind, data):
        dataset = data.draw(small_datasets())
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            save_dataset(dataset, directory)
            edits = [] if kind is None else [(data.draw(st.sampled_from(TABLES)), kind)]
            edits += data.draw(st.lists(st.tuples(st.sampled_from(TABLES),
                                                  st.sampled_from([*ROW_EDITS, *TEXT_EDITS])),
                                        max_size=2))
            for name, edit in edits:
                path = directory / name
                path.write_bytes(mutate(path.read_bytes().decode("utf-8"), edit,
                                        data.draw).encode("utf-8"))
            if data.draw(st.booleans()):
                (directory / "shape.csv").unlink()
            bulk = load_outcome(directory)
            with mock.patch.object(storage, "_bulk_rows", lambda name, text: None):
                walk = load_outcome(directory)
        assert bulk == walk

    def test_saved_tables_skip_the_row_walk(self, default_dataset, tmp_path):
        save_dataset(default_dataset, tmp_path / "d")
        (tmp_path / "d" / "shape.csv").unlink()  # the one file always walked
        with mock.patch.object(storage, "_read_rows", side_effect=AssertionError):
            loaded = load_dataset(tmp_path / "d")
        assert loaded == default_dataset
        assert list(loaded.graph.edges) == sorted(default_dataset.graph.edges)

    def test_unsorted_rows_keep_file_order(self, tmp_path):
        directory = write_dir(tmp_path / "d",
                              relationships="user_a,user_b,strength\nU3,U1,1\nU2,U1,3\n",
                              ratings="user,item,rating\nU2,I1,4\nU1,I2,2\nU1,I1,5\n")
        loaded = load_dataset(directory)
        assert list(loaded.graph.edges.items()) == [((0, 2), 1), ((0, 1), 3)]
