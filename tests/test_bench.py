"""Tests for the benchmark harness and the paper-style reporting."""

import pytest

from repro.bench.harness import (
    best_of,
    compare_systems,
    run_direct,
    run_sql,
    time_call,
)
from repro.bench.reporting import (
    format_table,
    perf_table_text,
    similarity_table_text,
)
from repro.core.simlist import SimilarityList
from repro.htl import parse
from repro.workloads.casablanca import man_woman_list, moving_train_list
from repro.workloads.synthetic import perf_workload


class TestHarness:
    def test_time_call_returns_result(self):
        sim = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        measurement = time_call(lambda: sim, repeat=2)
        assert measurement.result is sim
        assert measurement.seconds >= 0.0

    def test_best_of_runs_repeat_times_and_returns_last_result(self):
        calls = []
        seconds, result = best_of(lambda: calls.append(1) or len(calls), 3)
        assert calls == [1, 1, 1]
        assert result == 3
        assert seconds >= 0.0

    def test_best_of_runs_at_least_once(self):
        seconds, result = best_of(lambda: "x", 0)
        assert result == "x"
        assert seconds >= 0.0

    def test_run_direct(self):
        lists = {
            "Man-Woman": man_woman_list(),
            "Moving-Train": moving_train_list(),
        }
        formula = parse(
            "atomic('Man-Woman') and eventually atomic('Moving-Train')"
        )
        measurement = run_direct(formula, lists)
        assert measurement.result.actual_at(1) == pytest.approx(12.382)

    def test_run_sql_matches_direct(self):
        lists = {
            "Man-Woman": man_woman_list(),
            "Moving-Train": moving_train_list(),
        }
        formula = parse(
            "atomic('Man-Woman') and eventually atomic('Moving-Train')"
        )
        direct = run_direct(formula, lists)
        sql = run_sql(formula, lists, n_segments=50)
        assert direct.result == sql.result

    def test_compare_systems(self):
        workload = perf_workload(500)
        row = compare_systems("$P1 until $P2", workload.lists, 500)
        assert row.results_equal
        assert row.size == 500
        assert row.speedup > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("A", "Blong"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_similarity_table_layout(self):
        text = similarity_table_text(man_woman_list(), "Table 2. Man-Woman")
        assert text.splitlines()[0] == "Table 2. Man-Woman"
        assert "Start-id" in text
        assert "2.595" in text

    def test_ranked_ordering(self):
        text = similarity_table_text(man_woman_list(), ranked=True)
        assert text.index("6.26") < text.index("2.595")

    def test_trailing_zeros_trimmed(self):
        sim = SimilarityList.from_entries([((1, 1), 2.5)], 5.0)
        text = similarity_table_text(sim)
        assert "2.5" in text
        assert "2.500" not in text

    def test_perf_table(self):
        text = perf_table_text(
            "Table 5", [(10_000, 0.0015, 0.031), (50_000, 0.0075, 0.19)]
        )
        assert text.splitlines()[0] == "Table 5"
        assert "0.0015" in text
        assert "SQL-based" in text
