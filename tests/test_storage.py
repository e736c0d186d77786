import csv
from pathlib import Path

import pytest

from socialrec import (
    DataFormatError,
    DatasetValidationError,
    GenConfig,
    generate_dataset,
    load_dataset,
    run_comparison,
    save_dataset,
)
from socialrec.evaluate import SplitSpec
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

    def test_sparse_with_explicit_dims(self, tmp_path):
        d = build_dataset(4, 3, 2, edges={(0, 1): 2}, cells={(0, 0): 3})
        save_dataset(d, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d", n_users=4, n_items=3, n_categories=2)
        assert loaded == d

    def test_shape_file_keeps_dims_in_no_row(self, tmp_path):
        # the last user/item/category appear in no row; shape.csv keeps them
        d = build_dataset(4, 3, 2, edges={(0, 1): 2}, cells={(0, 0): 3})
        save_dataset(d, tmp_path / "d")
        assert (tmp_path / "d" / "shape.csv").read_text() == \
            "n_users,n_items,n_categories\n4,3,2\n"
        assert load_dataset(tmp_path / "d") == d

    def test_explicit_dims_win_over_shape_file(self, tmp_path):
        save_dataset(build_dataset(2, 1, 1, cells={(0, 0): 3}), tmp_path / "d")
        loaded = load_dataset(tmp_path / "d", n_users=5, n_categories=3)
        assert (loaded.n_users, loaded.n_items, loaded.n_categories) == (5, 1, 3)

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
    ])
    def test_malformed_shape_file_names_line(self, text, line, reason, tmp_path):
        directory = write_dir(tmp_path / "d")
        (directory / "shape.csv").write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_dataset(directory)
        assert (err.value.file, err.value.line) == ("shape.csv", line)
        assert err.value.reason.startswith(reason)

    def test_explicit_dims_smaller_than_data_fail_validation(self, tmp_path):
        d = build_dataset(4, 2, 1, cells={(3, 0): 2, (0, 1): 1})
        save_dataset(d, tmp_path / "d")
        with pytest.raises(DatasetValidationError, match="out of bounds"):
            load_dataset(tmp_path / "d", n_users=2)


class TestLoadSemantics:
    def test_row_order_does_not_matter(self, tmp_path):
        a = write_dir(tmp_path / "a",
                      relationships="user_a,user_b,strength\nU1,U2,3\nU1,U3,1\n",
                      ratings="user,item,rating\nU1,I1,2\nU3,I2,4\n",
                      categories="item,category\nI1,C1\nI2,C2\n")
        b = write_dir(tmp_path / "b",
                      relationships="user_a,user_b,strength\nU3,U1,1\nU2,U1,3\n",
                      ratings="user,item,rating\nU3,I2,4\nU1,I1,2\n",
                      categories="item,category\nI2,C2\nI1,C1\n")
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
        loaded = load_dataset(tmp_path / "d",
                              n_users=12, n_items=4, n_categories=3)
        assert loaded == d
