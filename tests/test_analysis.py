"""Tests for the analysis/reporting helpers."""

from repro.analysis import ascii_plot, shape_report


class TestAsciiPlot:
    def test_renders_markers_and_legend(self):
        out = ascii_plot([1.0, 2.0, 3.0], {"pdr": [0.9, 0.8, 0.7]})
        assert "o=pdr" in out
        assert "o" in out.splitlines()[0] or any(
            "o" in line for line in out.splitlines()
        )

    def test_multiple_series_distinct_markers(self):
        out = ascii_plot([1, 2], {"a": [1.0, 2.0], "b": [2.0, 1.0]})
        assert "o=a" in out and "x=b" in out

    def test_handles_nan_and_inf(self):
        out = ascii_plot([1, 2, 3], {"a": [1.0, float("nan"), float("inf")]})
        assert "1.000" in out

    def test_all_non_finite(self):
        out = ascii_plot([1], {"a": [float("nan")]})
        assert "no finite data" in out

    def test_flat_series(self):
        out = ascii_plot([1, 2], {"a": [5.0, 5.0]})
        assert "5.000" in out

    def test_labels(self):
        out = ascii_plot([1, 2], {"a": [1, 2]}, y_label="pdr", x_label="velocity")
        assert out.startswith("pdr")
        assert "velocity" in out


class TestReport:
    def test_shape_report_pass_fail(self):
        out = shape_report({"trend holds": True, "winner right": False})
        assert "[PASS] trend holds" in out
        assert "[FAIL] winner right" in out
