import csv
import decimal
import io
import json
import math

from conftest import coord, make_snapshot, sweep_vectors
from hypothesis import given
from hypothesis import strategies as st

from icmetrics.metrics import METRIC_FIELDS, METRIC_ORDER
from icmetrics.model import MetricVector
from icmetrics.pipeline import ProjectSeries, ReleasePoint, summarize_project
from icmetrics.report import (
    COMBINED_HEADER,
    PER_PROJECT_HEADER,
    SERIES_HEADER,
    SUMMARIES_HEADER,
    emit_combined_table,
    emit_metrics_jsonl,
    emit_per_project_table,
    emit_series_csv,
    emit_summaries_table,
    format_correlation,
    format_p,
    render_combined_human,
    render_summaries_human,
    series_filename,
)
from icmetrics.stats import CorrelationResult

NAN = float("nan")


def _point(name, wmc_deps, bugs, version, timestamp, **kwargs):
    snapshot = make_snapshot(name, deps=[f"d{i}" for i in range(wmc_deps)],
                             version=version, timestamp=timestamp, bugs=bugs, **kwargs)
    return ReleasePoint(version, timestamp, bugs, sweep_vectors([snapshot])[snapshot.coordinate])


def _toy_series(name="p"):
    return ProjectSeries(
        coordinate=coord(name),
        releases=tuple(
            _point(name, wmc, bugs, f"{i}.0", 100 * (i + 1))
            for i, (wmc, bugs) in enumerate([(1, 3), (2, 1), (3, 4), (2, 2)])
        ),
    )


class TestNumberFormats:
    def test_p_format_examples(self):
        assert format_p(1.0) == "1.00e0"
        assert format_p(0.0248) == "2.48e-2"
        assert format_p(0.0) == "0.00e0"
        assert format_p(2.15e-17) == "2.15e-17"
        assert format_p(0.060) == "6.00e-2"
        assert format_p(5e-324) == "4.94e-324"
        assert format_p(1e-323) == "9.88e-324"
        assert format_p(3e-322) == "3.01e-322"

    def test_p_format_mantissa_carry(self):
        assert format_p(0.9999) == "1.00e0"
        assert format_p(0.09996) == "1.00e-1"

    @given(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                     st.floats(min_value=5e-324, max_value=2.3e-308)))
    def test_p_format_is_the_decimal_value_rounded_to_3_digits(self, p):
        if p == 0.0:
            assert format_p(p) == "0.00e0"
            return
        rounded = decimal.Context(prec=3, rounding=decimal.ROUND_HALF_EVEN).plus(decimal.Decimal(p))
        digits = (rounded.as_tuple().digits + (0, 0))[:3]
        assert format_p(p) == f"{digits[0]}.{digits[1]}{digits[2]}e{rounded.adjusted()}"

    def test_correlation_format(self):
        assert format_correlation(NAN) == "nan"
        assert format_correlation(9 / math.sqrt(84)) == "0.982"
        assert format_correlation(-0.0897) == "-0.0897"
        assert format_correlation(0.598) == "0.598"

    def test_formats_reparse_within_one_format_ulp(self):
        for value in [0.5981234, -0.08971111, 0.0189456, 1.0, -0.999999]:
            printed = float(format_correlation(value))
            step = 10.0 ** (math.floor(math.log10(abs(value))) - 3)
            assert abs(printed - value) <= step
        for value in [2.1534e-17, 0.02481, 0.99999, 0.060123]:
            printed = float(format_p(value))
            step = 10.0 ** (math.floor(math.log10(value)) - 2)
            assert abs(printed - value) <= step


class TestCombinedTable:
    def test_empty_results_emit_header_only(self):
        assert emit_combined_table([]) == COMBINED_HEADER + "\n"

    def test_nan_row_uses_the_convention(self):
        table = emit_combined_table([CorrelationResult("IC-DIT", NAN, 1.0, 12)])
        assert table.splitlines()[1] == "IC-DIT,nan,1.00e0,12"

    def test_subnormal_p_row_is_written(self):
        # p_two_tailed(0.7233, 2000) is 1e-323, a subnormal p.
        table = emit_combined_table([CorrelationResult("IC-RFC", 0.7233, 1e-323, 2000)])
        assert table.splitlines()[1] == "IC-RFC,0.7233,9.88e-324,2000"

    def test_rows_keep_the_given_order(self):
        # The pipeline yields METRIC_ORDER; the emitters only keep the order
        # they are given, here one that is not METRIC_ORDER.
        results = [
            CorrelationResult("LOC", 0.439, 2.027e-31, 1000),
            CorrelationResult("IC-NOC", -0.0897, 0.060, 1000),
            CorrelationResult("IC-RFC", 0.598, 2.15e-17, 1000),
        ]
        lines = emit_combined_table(results).splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["LOC", "IC-NOC", "IC-RFC"]
        assert lines[2] == "IC-NOC,-0.0897,6.00e-2,1000"
        assert lines[3] == "IC-RFC,0.598,2.15e-17,1000"
        per_project = emit_per_project_table([("g:a", results)]).splitlines()
        assert [line.split(",")[1] for line in per_project[1:]] == ["LOC", "IC-NOC", "IC-RFC"]
        human = render_combined_human(results).splitlines()
        assert [line.split()[0] for line in human[2:]] == ["LOC", "IC-NOC", "IC-RFC"]


class TestPerProjectTable:
    def test_rows_grouped_by_project(self):
        table = emit_per_project_table([
            ("g:a", [CorrelationResult("IC-WMC", 0.5, 0.02, 10)]),
            ("g:b", [CorrelationResult("IC-WMC", NAN, 1.0, 10)]),
        ])
        lines = table.splitlines()
        assert lines[0] == PER_PROJECT_HEADER
        assert lines[1] == "g:a,IC-WMC,0.5,2.00e-2,10"
        assert lines[2] == "g:b,IC-WMC,nan,1.00e0,10"


class TestSummariesTable:
    def test_absent_medians_become_empty_cells(self):
        summary = summarize_project(_toy_series())
        lines = emit_summaries_table([summary]).splitlines()
        assert lines[0] == SUMMARIES_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "org.fixture:p"
        assert cells[1] == "4" and cells[2] == "10"
        assert float(cells[3]) == summary.activity  # repr round-trips exactly
        assert cells[4] == "2.0"  # median wmc of 1,2,3,2
        assert cells[8] == "" and cells[9] == "" and cells[10] == ""  # rfc/lcom1/loc absent


class TestSeriesCsv:
    def test_series_rows_and_empty_cells(self):
        series = _toy_series()
        lines = emit_series_csv(series).splitlines()
        assert lines[0] == SERIES_HEADER
        assert lines[1] == "0.0,100,3,1,1,0,0,,,"
        assert len(lines) == 5

    def test_cells_holding_a_comma_quote_or_line_end_are_quoted(self):
        labels = ["1,0", '1"0', "1\r0", "1\n0", "1\r\n0", "1 0"]
        series = ProjectSeries(coord("p"), tuple(_point("p", 1, 3, label, 100) for label in labels))
        text = emit_series_csv(series)
        cells = ['"1,0"', '"1""0"', '"1\r0"', '"1\n0"', '"1\r\n0"', "1 0"]
        assert text == SERIES_HEADER + "\n" + "".join(f"{cell},100,3,1,1,0,0,,,\n" for cell in cells)
        records = list(csv.reader(io.StringIO(text, newline="")))
        assert [record[0] for record in records[1:]] == labels
        assert {len(record) for record in records} == {len(SERIES_HEADER.split(","))}

    def test_series_filename(self):
        assert series_filename(_toy_series()) == "series_org.fixture_p.csv"


class TestMetricsJsonl:
    def test_sorted_and_nulls(self):
        series = _toy_series()
        text = emit_metrics_jsonl([series])
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["version"] for r in records] == ["0.0", "1.0", "2.0", "3.0"]
        assert records[0]["project"] == "org.fixture:p"
        assert records[0]["wmc"] == 1
        assert records[0]["rfc"] is None
        assert records[0]["lcom1"] is None

    def test_emission_is_repeatable(self):
        series = _toy_series()
        assert emit_metrics_jsonl([series]) == emit_metrics_jsonl([series])

    def test_empty_input(self):
        assert emit_metrics_jsonl([]) == ""


class TestHumanRendering:
    def test_combined_rounds_to_two_decimals(self):
        text = render_combined_human([CorrelationResult("IC-RFC", 0.59812, 2.15e-17, 998)])
        assert "0.60" in text
        assert "0.00" in text  # tiny p rounds down at presentation precision

    def test_nan_renders_as_nan(self):
        text = render_combined_human([CorrelationResult("IC-DIT", NAN, 1.0, 5)])
        assert "nan" in text

    def test_summaries_table_alignment_smoke(self):
        summary = summarize_project(_toy_series())
        text = render_summaries_human([summary])
        header, ruler, row = text.splitlines()
        assert header.startswith("Project")
        assert set(ruler) <= {"-", " "}
        assert row.startswith("org.fixture:p")


class TestMetricCatalogue:
    def test_catalogue_follows_the_vector_fields(self):
        assert list(METRIC_FIELDS.values()) == list(MetricVector._fields)

    def test_catalogue_names_are_the_correlation_rows(self):
        assert set(METRIC_FIELDS) == set(METRIC_ORDER)
        assert len(METRIC_FIELDS) == len(METRIC_ORDER)

    def test_headers_are_the_published_strings(self):
        assert COMBINED_HEADER == "metric,correlation,p_value,n"
        assert PER_PROJECT_HEADER == "project,metric,correlation,p_value,n"
        assert SUMMARIES_HEADER == (
            "project,n_releases,n_bugs,activity,median_wmc,median_dit,median_noc,"
            "median_cbo,median_rfc,median_lcom1,median_loc"
        )
        assert SERIES_HEADER == "version,timestamp,bugs_fixed,wmc,dit,noc,cbo,rfc,lcom1,loc"
