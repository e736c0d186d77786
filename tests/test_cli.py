import csv
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from socialrec import save_dataset
from socialrec.cli import main
from conftest import build_dataset

FILES = ["relationships.csv", "ratings.csv", "categories.csv"]


@pytest.fixture
def runner():
    return CliRunner()


def gen_args(out, **overrides):
    flags = {"users": 20, "items": 5, "categories": 4, "seed": 3}
    flags.update(overrides)
    args = ["gen"]
    for key, value in flags.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args + ["--out", str(out)]


@pytest.fixture
def small_data(runner, tmp_path):
    out = tmp_path / "data"
    result = runner.invoke(main, gen_args(out))
    assert result.exit_code == 0, result.output
    return out


class TestGen:
    def test_writes_dataset_and_summary(self, runner, tmp_path):
        out = tmp_path / "d"
        result = runner.invoke(main, gen_args(out))
        assert result.exit_code == 0
        assert "20 users, 5 items, 4 categories" in result.output
        for name in FILES:
            assert (out / name).is_file()
        rating_lines = (out / "ratings.csv").read_text().splitlines()
        assert len(rating_lines) == 1 + 20 * 5

    def test_rerun_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, gen_args(a)).exit_code == 0
        assert runner.invoke(main, gen_args(b)).exit_code == 0
        for name in FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, gen_args(a, seed=1)).exit_code == 0
        assert runner.invoke(main, gen_args(b, seed=2)).exit_code == 0
        assert (a / "ratings.csv").read_bytes() != (b / "ratings.csv").read_bytes()

    def test_zero_users_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, gen_args(tmp_path / "d", users=0))
        assert result.exit_code == 2

    def test_bad_density_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, gen_args(tmp_path / "d", edge_density=0.0))
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--users", "1000000"], "the 499999500000 user pairs of 1000000 users"),
        (["--users", "3000000000"], "the 4499999998500000000 user pairs of 3000000000 users"),
        (["--items", "10000000000000"], "a 10000000000000x10 table"),
    ], ids=["4-TB-draw", "beyond-any-array", "category-table"])
    def test_unallocatable_size_is_one_line_error(self, runner, tmp_path, flags, message):
        # each request fails at once, so nothing is allocated
        result = runner.invoke(main, ["gen", *flags, "--out", str(tmp_path / "d")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith(f"Error: cannot hold {message} in memory: ")

    def test_default_size_writes_1000_rating_rows(self, runner, tmp_path):
        out = tmp_path / "full"
        result = runner.invoke(main, ["gen", "--seed", "42", "--out", str(out)])
        assert result.exit_code == 0
        assert len((out / "ratings.csv").read_text().splitlines()) == 1 + 1000


class TestPredict:
    def test_cf_and_snrs_print_prediction(self, runner, small_data):
        for method in ("cf", "snrs"):
            result = runner.invoke(main, ["predict", "--data", str(small_data),
                                          "--method", method,
                                          "--user", "U3", "--item", "I2"])
            assert result.exit_code == 0, result.output
            assert f"{method} U3 x I2:" in result.output
            assert "rounded" in result.output

    def test_snrs_uniform_evidence_prints_midpoint(self, runner, tmp_path):
        d = build_dataset(2, 2, 2, cells={(1, 1): 3})
        save_dataset(d, tmp_path / "d")
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "snrs",
                                      "--user", "U1", "--item", "I1"])
        assert result.exit_code == 0, result.output
        assert "2.5000" in result.output

    def test_unknown_method_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "foo",
                                      "--user", "U1", "--item", "I1"])
        assert result.exit_code == 2

    def test_unknown_label_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "cf",
                                      "--user", "U99", "--item", "I1"])
        assert result.exit_code == 2
        assert "U99" in result.output

    @pytest.mark.parametrize("label", ["U\u0663", "U\u00b2"])
    def test_non_ascii_digit_label_usage_error(self, runner, small_data, label):
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "cf", "--user", label, "--item", "I1"])
        assert result.exit_code == 2, result.output
        assert "malformed 'U' label" in result.output

    def test_malformed_label_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "cf",
                                      "--user", "X1", "--item", "I1"])
        assert result.exit_code == 2

    def test_user_mean_fallback_marker(self, runner, tmp_path):
        # nobody else rated I3, so CF falls back to U1's mean
        d = build_dataset(2, 3, 1,
                          cells={(0, 0): 2, (0, 1): 4, (0, 2): 3, (1, 0): 5})
        save_dataset(d, tmp_path / "d")
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "cf",
                                      "--user", "U1", "--item", "I3"])
        assert result.exit_code == 0, result.output
        assert "3.0000" in result.output  # mean of remaining ratings 2 and 4
        assert "[fallback: user-mean]" in result.output

    def test_global_mean_fallback_marker(self, runner, tmp_path):
        # U2 is connected but has no ratings at all
        d = build_dataset(2, 2, 1, edges={(0, 1): 2},
                          cells={(0, 0): 2, (0, 1): 4})
        save_dataset(d, tmp_path / "d")
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "cf",
                                      "--user", "U2", "--item", "I1"])
        assert result.exit_code == 0, result.output
        assert "[fallback: global-mean]" in result.output

    def test_cold_start_without_any_data_fails(self, runner, tmp_path):
        # no ratings anywhere: no user mean and no global mean to fall back on
        d = build_dataset(2, 1, 1, edges={(0, 1): 2}, members={(0, 0)})
        save_dataset(d, tmp_path / "d")
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "cf",
                                      "--user", "U2", "--item", "I1"])
        assert result.exit_code == 1
        assert "cold start" in result.output

    def test_vanished_evidence_is_one_line_error(self, runner, tmp_path):
        # alpha 1e-20 rounds P(C1 | level) to 1.0 at all six levels U1 used
        d = build_dataset(2, 7, 1, cells={**{(0, k): k for k in range(6)}, (1, 6): 2},
                          members={(k, 0) for k in range(6)})
        save_dataset(d, tmp_path / "d")
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "snrs", "--user", "U1", "--item", "I7",
                                      "--alpha", "1e-20"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: evidence vanished at every level (weights sum to 0.0)"]

    def test_engine_tuning_flags(self, runner, small_data):
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "cf", "--user", "U3",
                                      "--item", "I2", "--scope", "friends-only",
                                      "--neighbor-k", "5"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "snrs", "--user", "U3",
                                      "--item", "I2", "--levels", "1-5",
                                      "--alpha", "0.5"])
        assert result.exit_code == 0, result.output

    def test_bad_levels_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["predict", "--data", str(small_data),
                                      "--method", "snrs", "--user", "U3",
                                      "--item", "I2", "--levels", "4-9"])
        assert result.exit_code == 2


class TestEval:
    def test_single_method_run(self, runner, small_data, tmp_path):
        out = tmp_path / "rep"
        result = runner.invoke(main, ["eval", "--data", str(small_data),
                                      "--method", "cf",
                                      "--test-users", "11-20",
                                      "--test-items", "I1-I2",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "cf" in result.output and "snrs" not in result.output
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[1].startswith("cf,20,")


class TestCompare:
    def test_summary_and_csvs(self, runner, small_data, tmp_path):
        out = tmp_path / "rep"
        args = ["compare", "--data", str(small_data),
                "--test-users", "11-20", "--test-items", "I1-I2",
                "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "cf" in result.output and "snrs" in result.output
        detail = (out / "detail.csv").read_text().splitlines()
        assert len(detail) == 1 + 2 * 20
        assert (out / "summary.csv").is_file()

    def test_rerun_byte_identical(self, runner, small_data, tmp_path):
        outputs = []
        for stem in ("a", "b"):
            out = tmp_path / stem
            args = ["compare", "--data", str(small_data),
                    "--test-users", "11-20", "--test-items", "I1-I2",
                    "--out", str(out)]
            assert runner.invoke(main, args).exit_code == 0
            outputs.append((out / "detail.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_default_flags_give_250_observations(self, runner, tmp_path):
        data = tmp_path / "full"
        assert runner.invoke(main, ["gen", "--seed", "1",
                                    "--out", str(data)]).exit_code == 0
        result = runner.invoke(main, ["compare", "--data", str(data)])
        assert result.exit_code == 0, result.output
        assert result.output.count("250") == 2

    def test_empty_test_items_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["compare", "--data", str(small_data),
                                      "--test-items", ","])
        assert result.exit_code == 2

    def test_backwards_range_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["compare", "--data", str(small_data),
                                      "--test-users", "11-20",
                                      "--test-items", "I5-I2"])
        assert result.exit_code == 2

    def test_out_of_bounds_test_user_usage_error(self, runner, small_data):
        result = runner.invoke(main, ["compare", "--data", str(small_data),
                                      "--test-users", "90-95",
                                      "--test-items", "I1-I2"])
        assert result.exit_code == 2

    def test_missing_test_cell_fails_naming_it(self, runner, tmp_path):
        d = build_dataset(3, 2, 1,
                          cells={(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4,
                                 (2, 0): 5})  # (U3, I2) missing
        save_dataset(d, tmp_path / "d")
        result = runner.invoke(main, ["compare", "--data", str(tmp_path / "d"),
                                      "--test-users", "3", "--test-items", "1-2"])
        assert result.exit_code == 1
        assert "(U3, I2)" in result.output

    def test_unallocatable_shape_is_one_line_error(self, runner, tmp_path):
        # a valid shape.csv far larger than its rows: the 9 TiB rating array
        # fails at malloc, so nothing is allocated
        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
        save_dataset(d, tmp_path / "d")
        (tmp_path / "d" / "shape.csv").write_text(
            "n_users,n_items,n_categories\n1000000000000,10,10\n")
        result = runner.invoke(main, ["compare", "--data", str(tmp_path / "d"),
                                      "--test-users", "1", "--test-items", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith("Error: cannot hold a 1000000000000x10 table in memory")

    def test_label_beyond_int64_is_one_line_error(self, runner, tmp_path):
        # the space keeps the file off the bulk parser; the row walk reads the
        # label as a Python int that no int64 holds
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "relationships.csv").write_text(
            "user_a,user_b,strength\nU1, U100000000000000000000000,3\n")
        (directory / "ratings.csv").write_text("user,item,rating\n")
        (directory / "categories.csv").write_text("item,category\n")
        (directory / "shape.csv").write_text("n_users,n_items,n_categories\n2,1,1\n")
        result = runner.invoke(main, ["compare", "--data", str(directory)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines() == [
            "Error: edge ('U1', 'U100000000000000000000000') references a user outside 0..1"]

    def test_snrs_models_out_of_memory_is_one_line_error(self, runner, tmp_path,
                                                         monkeypatch):
        # the snrs models of a shape such as 20 000 000 users fail at an
        # allocation; the stand-in fails as numpy would, allocating nothing
        def unable(counts, alpha):
            raise MemoryError("Unable to allocate 915. MiB")

        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
        save_dataset(d, tmp_path / "d")
        monkeypatch.setattr("socialrec.snrs._smoothed", unable)
        result = runner.invoke(main, ["eval", "--data", str(tmp_path / "d"), "--method", "snrs",
                                      "--test-users", "1", "--test-items", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines() == [
            "Error: cannot hold the snrs models of 2 users, 2 items and 1 categories in "
            "memory: Unable to allocate 915. MiB"]

    def test_snrs_friend_counts_out_of_memory_is_one_line_error(self, runner, tmp_path,
                                                                monkeypatch):
        # the friend counts (36 bytes per slot) fail at their allocation;
        # the stand-in refuses only that shape, allocating nothing
        empty = np.empty

        def unable(shape, *args, **kwargs):
            if np.ndim(shape) and tuple(shape)[1:] == (6, 6):
                raise MemoryError("Unable to allocate 85.9 MiB")
            return empty(shape, *args, **kwargs)

        d = build_dataset(2, 2, 1, edges={(0, 1): 3},
                          cells={(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
        save_dataset(d, tmp_path / "d")
        monkeypatch.setattr(np, "empty", unable)
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "snrs", "--user", "U1", "--item", "I1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines() == [
            "Error: cannot hold the snrs models of 2 users, 2 items and 1 categories in "
            "memory: Unable to allocate 85.9 MiB"]

    def test_shape_beyond_any_array_is_one_line_error(self, runner, tmp_path):
        # numpy refuses this size with a ValueError, not a MemoryError
        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
        save_dataset(d, tmp_path / "d")
        (tmp_path / "d" / "shape.csv").write_text(
            "n_users,n_items,n_categories\n100000000000000000000,10,10\n")
        result = runner.invoke(main, ["compare", "--data", str(tmp_path / "d"),
                                      "--test-users", "1", "--test-items", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines() == [
            "Error: cannot hold a 100000000000000000000x10 table in memory: "
            "Maximum allowed dimension exceeded"]

    def test_corrupt_data_fails_with_location(self, runner, tmp_path):
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "relationships.csv").write_text("user_a,user_b,strength\n")
        (directory / "ratings.csv").write_text("user,item,rating\nU1,I1,9\n")
        (directory / "categories.csv").write_text("item,category\n")
        result = runner.invoke(main, ["compare", "--data", str(directory)])
        assert result.exit_code == 1
        assert "ratings.csv:2" in result.output


    @pytest.mark.parametrize("ratings", [
        b"user,item,rating\nU1,I1,3\nU2,I\xff1,2\n",
        b"user,item,rating\nU1,I1,3\nU2,I1," + b"9" * (csv.field_size_limit() + 1) + b"\n",
    ], ids=["undecodable", "oversized-field"])
    def test_unreadable_data_is_one_line_error(self, runner, tmp_path, ratings):
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "relationships.csv").write_text("user_a,user_b,strength\n")
        (directory / "ratings.csv").write_bytes(ratings)
        (directory / "categories.csv").write_text("item,category\n")
        result = runner.invoke(main, ["compare", "--data", str(directory)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ratings.csv:3:"), result.output

    @pytest.mark.parametrize("command", [["eval", "--method", "snrs"], ["compare"]],
                             ids=["eval", "compare"])
    def test_unwritable_out_is_one_line_error(self, runner, small_data, tmp_path, command):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        result = runner.invoke(main, [*command, "--data", str(small_data),
                                      "--test-users", "11-20", "--test-items", "I1-I2",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and errors[0].startswith(f"Error: cannot write {out}: ")


class TestHugeRanges:
    """Each range's end is checked against its bound before the range is
    expanded, so a range of 10**12 numbers is a usage error, not an attempt
    to build a list of 10**12 ints."""

    @pytest.mark.parametrize("command", ["compare", "eval"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--test-users", "U1-U999999999999", "test user U21 outside dataset (20 users)"),
        ("--test-users", "U15-U30", "test user U21 outside dataset (20 users)"),
        ("--test-users", "3,25-999999999999,1", "test user U25 outside dataset (20 users)"),
        ("--test-items", "I1-I999999999999", "test item I6 outside dataset (5 items)"),
        ("--levels", "0-999999999999",
         "prediction levels must be within 0..5, got '0-999999999999'"),
        ("--levels", "5-3", "empty rating level range '5-3'"),
        ("--levels", "1,5-3", "empty rating level range '5-3'"),
    ])
    def test_usage_error(self, runner, small_data, command, flag, value, message):
        args = [command, "--data", str(small_data), "--test-users", "11-20",
                "--test-items", "I1-I2", flag, value]
        result = runner.invoke(main, args + (["--method", "cf"] if command == "eval" else []))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines()[-1] == f"Error: {message}"


class TestEmptyTrainingSet:
    """Holding out every rated cell leaves nothing to train on: a clean
    one-line error, never a traceback."""

    @pytest.fixture
    def all_held_out(self, tmp_path):
        d = build_dataset(4, 2, 1, edges={(0, 1): 3, (2, 3): 4},
                          cells={(u, i): (u + i) % 6 for u in range(4) for i in range(2)},
                          members={(0, 0)})
        save_dataset(d, tmp_path / "d")
        return ["--data", str(tmp_path / "d"), "--test-users", "1-4", "--test-items", "1-2"]

    @pytest.mark.parametrize("command", [
        ["eval", "--method", "snrs"],
        ["eval", "--method", "cf"],
        ["compare"],
    ])
    def test_split_without_training_ratings(self, runner, all_held_out, command):
        result = runner.invoke(main, command + all_held_out)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), result.output

    def test_snrs_predict_without_other_ratings(self, runner, tmp_path):
        save_dataset(build_dataset(1, 1, 1, cells={(0, 0): 3}), tmp_path / "d")
        result = runner.invoke(main, ["predict", "--data", str(tmp_path / "d"),
                                      "--method", "snrs", "--user", "U1", "--item", "I1"])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: empty training set: no ratings to learn from"]


class TestNonFiniteFloatFlags:
    """inf, nan and an alpha whose 6 * alpha overflows are usage errors:
    exit 2 with one Error: line, never a traceback."""

    @pytest.mark.parametrize("command, flag, value", [
        (command, "--alpha", value)
        for command in ("predict", "eval", "compare")
        for value in ("inf", "nan", "1e308")
    ] + [
        ("gen", flag, value)
        for flag in ("--edge-density", "--seed-fraction")
        for value in ("nan", "inf", "-nan")
    ])
    def test_usage_error(self, runner, small_data, tmp_path, command, flag, value):
        args = {"gen": ["--out", str(tmp_path / "out")],
                "predict": ["--data", str(small_data), "--method", "snrs",
                            "--user", "U3", "--item", "I2"],
                "eval": ["--data", str(small_data), "--method", "snrs",
                         "--test-users", "11-20", "--test-items", "I1-I2"],
                "compare": ["--data", str(small_data),
                            "--test-users", "11-20", "--test-items", "I1-I2"]}[command]
        result = runner.invoke(main, [command, *args, flag, value])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and flag.lstrip("-")[:5] in errors[0], result.output

    def test_finite_alpha_still_runs(self, runner, small_data):
        result = runner.invoke(main, ["predict", "--data", str(small_data), "--method", "snrs",
                                      "--user", "U3", "--item", "I2", "--alpha", "1e300"])
        assert result.exit_code == 0, result.output


class TestNonAsciiDigits:
    """Digits outside ASCII, which str.isdigit accepts but int() may not,
    are usage errors: exit 2 with one Error: line, never a traceback."""

    @pytest.mark.parametrize("flag, value", [
        ("--test-users", "U\u00b2"),
        ("--test-users", "\u00b2"),
        ("--test-users", "1-\u00b2"),
        ("--test-users", "\u0663"),
        ("--test-items", "I\u00b9-I2"),
        ("--levels", "\u00b2"),
        ("--levels", "0-\u00b2"),
        ("--levels", "\u0663"),
    ])
    def test_usage_error(self, runner, small_data, flag, value):
        result = runner.invoke(main, ["compare", "--data", str(small_data),
                                      "--test-users", "11-20", "--test-items", "I1-I2",
                                      flag, value])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, result.output


class TestConfigFile:
    def test_file_overrides_builtin_and_flag_overrides_file(self, runner, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("users=7\nitems=3\nseed=11  # inline comment\n")
        a = tmp_path / "a"
        result = runner.invoke(main, ["--config", str(config), "gen",
                                      "--out", str(a)])
        assert result.exit_code == 0, result.output
        assert "7 users, 3 items" in result.output

        b = tmp_path / "b"
        result = runner.invoke(main, ["--config", str(config), "gen",
                                      "--users", "9", "--out", str(b)])
        assert result.exit_code == 0
        assert "9 users, 3 items" in result.output

    def test_malformed_config_line(self, runner, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("users 7\n")
        result = runner.invoke(main, ["--config", str(config), "gen",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_undecodable_config_usage_error(self, runner, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_bytes(b"users=7\n\xff\n")
        result = runner.invoke(main, ["--config", str(config), "gen",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "defaults.cfg" in result.output

    def test_unknown_keys_ignored(self, runner, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("nonsense=42\nusers=6\n")
        result = runner.invoke(main, ["--config", str(config), "gen",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 0
        assert "6 users" in result.output


class TestHelp:
    def test_group_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("gen", "predict", "eval", "compare"):
            assert command in result.output

    @pytest.mark.parametrize("command", ["gen", "predict", "eval", "compare"])
    def test_subcommand_help(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert "--help" in result.output
