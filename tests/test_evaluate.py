import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from socialrec import (
    EvaluationReport,
    MissingCellError,
    RatingMatrix,
    SplitSpec,
    accuracy,
    evaluate_method,
    item_label,
    mae,
    round_rating,
    run_comparison,
    split,
    train_predictor,
    user_label,
    write_detail_csv,
    write_summary_csv,
)
from socialrec import evaluate
from socialrec.evaluate import DETAIL_HEADER, CellRecord
from conftest import build_dataset, constant_dataset
import reference_grids as grids


@st.composite
def rating_list_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    a = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return a, b


class TestSplitSpec:
    def test_defaults(self):
        spec = SplitSpec()
        assert spec.test_users == tuple(range(50, 100))
        assert spec.test_items == (0, 1, 2, 3, 4)
        assert len(spec.test_users) * len(spec.test_items) == 250

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(test_users=(1, 1))
        with pytest.raises(ValueError):
            SplitSpec(test_items=(0, 0))


class TestSplit:
    def test_empty_items_is_identity(self, default_dataset):
        train, test = split(default_dataset, SplitSpec(test_items=()))
        assert test == []
        assert train == default_dataset

    def test_default_yields_250_cells(self, default_dataset):
        _, test = split(default_dataset, SplitSpec())
        assert len(test) == 250

    def test_partition_identity(self, default_dataset):
        train, test = split(default_dataset, SplitSpec())
        cells = {(u, i): r for u, i, r in train.ratings.cells()}
        for u, i, r in test:
            assert train.ratings.get(u, i) is None
            cells[u, i] = r
        rebuilt = RatingMatrix(train.ratings.n_users, train.ratings.n_items, cells)
        assert rebuilt == default_dataset.ratings

    def test_sorted_by_user_then_item(self, default_dataset):
        _, test = split(default_dataset, SplitSpec())
        keys = [(u, i) for u, i, _ in test]
        assert keys == sorted(keys)

    def test_graph_and_categories_untouched(self, default_dataset):
        train, _ = split(default_dataset, SplitSpec())
        assert train.graph is default_dataset.graph
        assert train.categories is default_dataset.categories

    def test_missing_cell_error_names_cell(self):
        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (0, 1): 2, (1, 0): 3})
        with pytest.raises(MissingCellError, match=r"\(U2, I2\)"):
            split(d, SplitSpec(test_users=(1,), test_items=(0, 1)))
        # an unsorted spec still names the first unrated cell in (user, item) order
        d = build_dataset(2, 2, 1, cells={(0, 0): 1, (1, 1): 2})
        with pytest.raises(MissingCellError, match=r"\(U1, I2\)"):
            split(d, SplitSpec(test_users=(1, 0), test_items=(0, 1)))

    @pytest.mark.parametrize("spec", [SplitSpec(test_users=(), test_items=()),
                                      SplitSpec(test_users=()),
                                      SplitSpec(test_users=(5, 9), test_items=())])
    def test_empty_spec_is_identity(self, default_dataset, spec):
        train, test = split(default_dataset, spec)
        assert test == []
        assert train == default_dataset

    def test_unsorted_spec_equals_sorted(self, default_dataset):
        unsorted = split(default_dataset, SplitSpec(test_users=(99, 50, 72, 51),
                                                    test_items=(4, 0, 2)))
        assert unsorted == split(default_dataset, SplitSpec(test_users=(50, 51, 72, 99),
                                                            test_items=(0, 2, 4)))
        assert [cell[:2] for cell in unsorted[1]] == [
            (u, i) for u in (50, 51, 72, 99) for i in (0, 2, 4)]

    def test_missing_cell_named_in_user_item_order(self):
        # in the spec's own order (U3, I2) comes first; in (user, item) order
        # (U1, I3) does, behind a rated (U1, I2)
        d = build_dataset(3, 3, 1, cells={(u, i): 3 for u in range(3) for i in range(3)
                                          if (u, i) not in {(2, 1), (0, 2)}})
        with pytest.raises(MissingCellError, match=r"\(U1, I3\)"):
            split(d, SplitSpec(test_users=(2, 0), test_items=(2, 1)))

    def test_out_of_bounds_spec(self, tiny_dataset):
        with pytest.raises(ValueError, match="user index"):
            split(tiny_dataset, SplitSpec(test_users=(5,), test_items=(0,)))
        with pytest.raises(ValueError, match="item index"):
            split(tiny_dataset, SplitSpec(test_users=(0,), test_items=(9,)))


class TestMetrics:
    def test_identical_lists(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0
        assert accuracy([1, 2, 3], [1, 2, 3]) == 100.0

    def test_reference_grid_cf(self):
        pred = grids.flatten(grids.CF_RECOMMENDED)
        actual = grids.flatten(grids.CF_ACTUAL)
        assert abs(mae(pred, actual) - grids.CF_EXPECTED_MAE) < 1e-9
        assert abs(accuracy(pred, actual) - grids.CF_EXPECTED_ACCURACY) < 1e-9

    def test_reference_grid_snrs(self):
        pred = grids.flatten(grids.SNRS_RECOMMENDED)
        actual = grids.flatten(grids.SNRS_ACTUAL)
        assert abs(mae(pred, actual) - grids.SNRS_EXPECTED_MAE) < 1e-9
        assert abs(accuracy(pred, actual) - grids.SNRS_EXPECTED_ACCURACY) < 1e-9

    @pytest.mark.parametrize("metric", [mae, accuracy])
    def test_length_mismatch(self, metric):
        with pytest.raises(ValueError):
            metric([1, 2], [1])

    @pytest.mark.parametrize("metric", [mae, accuracy])
    def test_empty(self, metric):
        with pytest.raises(ValueError):
            metric([], [])

    @given(st.one_of(st.lists(st.floats(-10, 10), min_size=1, max_size=60),
                     st.lists(st.integers(-1, 6), min_size=1, max_size=60)), st.data())
    def test_equal_a_python_sum(self, pred, data):
        """The array sums keep the bits of the built-in sum over the cells."""
        actual = data.draw(st.lists(st.integers(0, 5), min_size=len(pred), max_size=len(pred)))
        expected_mae = sum(abs(p - a) for p, a in zip(pred, actual)) / len(pred)
        expected_accuracy = 100.0 * sum(1 for p, a in zip(pred, actual) if p == a) / len(pred)
        assert type(mae(pred, actual)) is type(accuracy(pred, actual)) is float
        assert mae(pred, actual).hex() == expected_mae.hex()
        assert accuracy(pred, actual).hex() == expected_accuracy.hex()

    @given(rating_list_pairs())
    def test_identities(self, pair):
        a, b = pair
        m = mae(a, b)
        acc = accuracy(a, b)
        assert m == mae(b, a)
        assert acc == accuracy(b, a)
        assert 0.0 <= m <= 5.0
        assert 0.0 <= acc <= 100.0
        assert (m == 0.0) == (a == b)
        assert (acc == 100.0) == (a == b)


# exact halves k + 0.5 for k in -8..8, their float neighbours, values that
# round across 0 and 5, and any finite float
rounding_inputs = st.one_of(
    st.integers(-8, 8).map(lambda k: k + 0.5),
    st.integers(-8, 8).map(lambda k: math.nextafter(k + 0.5, -math.inf)),
    st.sampled_from([0.49999999999999994, -0.49999999999999994, -0.5, -0.0, 5.5, 1e300]),
    st.floats(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestRoundRatings:
    """The report's array rounding equals round_rating, the scalar
    reference, element by element."""

    @given(st.lists(rounding_inputs, max_size=20))
    def test_equals_round_rating(self, values):
        got = evaluate._round_ratings(np.array(values, dtype=np.float64)).tolist()
        assert got == [round_rating(x) for x in values]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_round_ratings_error(self, bad):
        with pytest.raises(ValueError) as expected:
            round_rating(bad)
        with pytest.raises(ValueError) as got:
            evaluate._round_ratings(np.array([2.5, bad, math.nan]))
        assert str(got.value) == str(expected.value)


class TestEvaluationReport:
    def test_self_consistency(self, default_dataset):
        report = evaluate_method(default_dataset, SplitSpec(), "cf")
        assert report.mae_rounded == mae(report.pred_rounded, report.actuals)
        assert report.mae_real == mae(report.pred_real, report.actuals)
        assert report.accuracy_percent == accuracy(report.pred_rounded, report.actuals)
        assert report.n_observations == len(report.actuals) == 250


class TestRunComparison:
    def test_constant_signal(self):
        d = constant_dataset()
        for items in [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]:
            cf_report, snrs_report = run_comparison(d, SplitSpec(test_items=items))
            for report in (cf_report, snrs_report):
                assert report.mae_rounded == 0.0
                assert report.accuracy_percent == 100.0

    def test_default_observation_count(self, default_dataset):
        cf_report, snrs_report = run_comparison(default_dataset)
        assert cf_report.n_observations == 250
        assert snrs_report.n_observations == 250

    def test_deterministic(self, default_dataset):
        first = run_comparison(default_dataset)
        second = run_comparison(default_dataset)
        assert first == second

    def test_splits_once_and_matches_evaluate_method(self, default_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "split",
                            lambda *args: calls.append(args) or split(*args))
        reports = run_comparison(default_dataset)
        assert len(calls) == 1
        assert reports == tuple(evaluate_method(default_dataset, SplitSpec(), method)
                                for method in ("cf", "snrs"))

    def test_methods_labelled(self, default_dataset):
        cf_report, snrs_report = run_comparison(default_dataset)
        assert cf_report.method == "cf"
        assert snrs_report.method == "snrs"

    def test_cold_start_fallback_accounting(self):
        # user 2's only rating is the held-out cell, so CF must fall back
        d = build_dataset(3, 2, 1,
                          cells={(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4,
                                 (2, 0): 5})
        spec = SplitSpec(test_users=(2,), test_items=(0,))
        cf_report, snrs_report = run_comparison(d, spec)
        assert cf_report.n_fallback == 1
        assert cf_report.fallbacks == ("global-mean",)
        assert cf_report.pred_real[0] == pytest.approx(2.5)  # mean of train
        assert snrs_report.n_fallback == 0

    def test_unknown_method(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate_method(tiny_dataset, SplitSpec(test_users=(0,), test_items=(0,)),
                            "svd")


class TestCellsOutsideTrainingShape:
    """Both engines reject a cell outside the training matrix, naming the
    cell and the shape, rather than answering from a fallback or a wrapped
    index."""

    @pytest.mark.parametrize("method", ["cf", "snrs"])
    @pytest.mark.parametrize("cell", [(100, 0), (0, 10), (-1, 0), (0, -1)])
    def test_rejected(self, default_dataset, method, cell):
        predictor = train_predictor(method, default_dataset)
        message = rf"cell \({cell[0]}, {cell[1]}\) outside the 100x10 rating matrix"
        with pytest.raises(ValueError, match=message):
            predictor.predict_detailed(*cell)
        with pytest.raises(ValueError, match=message):
            predictor.predict_many([(0, 0), cell, (99, 9)])

    @pytest.mark.parametrize("method", ["cf", "snrs"])
    @pytest.mark.parametrize("cell, message", [
        ((0.9, 1), r"cell \(0\.9, 1\) has an index that is not an integer"),
        (("3", 1), r"cell \('3', 1\) has an index that is not an integer"),
        ((2 ** 70, 1), rf"cell \({2 ** 70}, 1\) outside the 100x10 rating matrix"),
    ], ids=["float", "string", "beyond-int64"])
    def test_non_integer_or_oversized_index_rejected(self, default_dataset, method, cell,
                                                      message):
        # a cast to intp would make these (0, 1), (3, 1) or a bare OverflowError
        predictor = train_predictor(method, default_dataset)
        with pytest.raises(ValueError, match=message):
            predictor.predict_detailed(*cell)
        with pytest.raises(ValueError, match=message):
            predictor.predict_many([(0, 0), cell, (99, 9)])
        assert predictor.predict_many([]) == []


class TestReportCsv:
    def test_headers_and_determinism(self, default_dataset, tmp_path):
        reports = run_comparison(default_dataset)
        for stem in ("a", "b"):
            write_detail_csv(reports, tmp_path / f"detail_{stem}.csv")
            write_summary_csv(reports, tmp_path / f"summary_{stem}.csv")
        detail = (tmp_path / "detail_a.csv").read_text(encoding="utf-8")
        summary = (tmp_path / "summary_a.csv").read_text(encoding="utf-8")
        assert detail.splitlines()[0] == "method,user,item,actual,pred_real,pred_rounded"
        assert summary.splitlines()[0] == "method,n,mae_rounded,mae_real,accuracy_percent"
        assert len(detail.splitlines()) == 1 + 500
        assert len(summary.splitlines()) == 1 + 2
        assert (tmp_path / "detail_a.csv").read_bytes() == \
               (tmp_path / "detail_b.csv").read_bytes()
        assert (tmp_path / "summary_a.csv").read_bytes() == \
               (tmp_path / "summary_b.csv").read_bytes()

    def test_detail_rows_use_labels(self, default_dataset, tmp_path):
        reports = run_comparison(default_dataset)
        write_detail_csv(reports, tmp_path / "detail.csv")
        first_row = (tmp_path / "detail.csv").read_text().splitlines()[1]
        assert first_row.startswith("cf,U51,I1,")

    def test_detail_bytes_equal_a_row_by_row_writer(self, tmp_path):
        """The detail file equals csv.writer fed one row per record, quoting
        a method name that holds a comma or a quote."""
        values = [1e-05, 0.30000000000000004, -0.5, 5.000000000000001]
        records = [CellRecord(u, i, 3, v, round_rating(v), None)
                   for (u, i), v in zip([(0, 0), (0, 11), (9, 2), (12, 0)], values)]
        reports = [EvaluationReport.from_records(method, records)
                   for method in ("cf", 'a,b "c"')]
        write_detail_csv(reports, tmp_path / "detail.csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["method", "user", "item", "actual", "pred_real", "pred_rounded"])
        for report in reports:
            for r in records:
                writer.writerow([report.method, user_label(r.user), item_label(r.item),
                                 r.actual, repr(r.pred_real), r.pred_rounded])
        assert (tmp_path / "detail.csv").read_bytes() == expected.getvalue().encode()
        assert '"a,b ""c""",U13,I1,3,5.000000000000001,5\n' in expected.getvalue()

    @pytest.mark.parametrize("method", ["", " ", "a\nb", "a\rb", "a\r\n", "é;\t"])
    def test_detail_quotes_a_method_as_csv_does_in_a_row(self, method, tmp_path):
        """The method prefix is quoted as a row of the file would quote it:
        an empty method stays bare, a line break is quoted."""
        report = EvaluationReport(method, (0, 0, 9), (1, 0, 1), (3, 0, 5),
                                  (2.5, float("nan"), -0.0), (3, 0, 0), (None,) * 3)
        write_detail_csv([report], tmp_path / "detail.csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(DETAIL_HEADER)
        writer.writerows([method, user_label(u), item_label(i), a, repr(p), r]
                         for u, i, a, p, r in zip(report.users, report.items, report.actuals,
                                                  report.pred_real, report.pred_rounded))
        assert (tmp_path / "detail.csv").read_bytes() == expected.getvalue().encode()
