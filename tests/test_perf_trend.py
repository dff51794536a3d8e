"""Tests for the CI perf-trend delta renderer (benchmarks/perf_trend.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_trend", ROOT / "benchmarks" / "perf_trend.py"
)
perf_trend = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("perf_trend", perf_trend)
_spec.loader.exec_module(perf_trend)


def _record(scenario: str, *, seconds=None, events_per_second=None) -> dict:
    return {
        "schema": "repro-timings/1",
        "scenario": scenario,
        "tier": "smoke",
        "workers": 2,
        "units": [],
        "totals": {
            "units": 1,
            "worker_seconds": seconds,
            "events": 100,
            "events_per_second": events_per_second,
        },
    }


def _write(directory: pathlib.Path, record: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"TIMINGS_{record['scenario']}.json"
    path.write_text(json.dumps(record))


class TestCompare:
    def test_regression_beyond_threshold_warns(self):
        current = {"fig2": _record("fig2", seconds=2.0)}
        previous = {"fig2": _record("fig2", seconds=1.0)}
        lines, warnings = perf_trend.compare(current, previous, threshold=0.30)
        assert len(warnings) == 1
        assert "fig2" in warnings[0]
        assert any("regression" in line for line in lines)

    def test_small_delta_is_ok(self):
        current = {"fig2": _record("fig2", seconds=1.1)}
        previous = {"fig2": _record("fig2", seconds=1.0)}
        lines, warnings = perf_trend.compare(current, previous, threshold=0.30)
        assert warnings == []
        assert any("| fig2 |" in line and "| ok |" in line for line in lines)

    def test_improvement_is_flagged_not_warned(self):
        current = {"fig2": _record("fig2", seconds=0.5)}
        previous = {"fig2": _record("fig2", seconds=1.0)}
        lines, warnings = perf_trend.compare(current, previous, threshold=0.30)
        assert warnings == []
        assert any("improvement" in line for line in lines)

    def test_events_per_second_trends_inverted(self):
        """For kernel microbenchmarks, *lower* events/s is the regression."""
        current = {"kernel": _record("kernel", events_per_second=1_000_000)}
        previous = {"kernel": _record("kernel", events_per_second=2_000_000)}
        _, warnings = perf_trend.compare(current, previous, threshold=0.30)
        assert len(warnings) == 1
        current = {"kernel": _record("kernel", events_per_second=3_000_000)}
        _, warnings = perf_trend.compare(current, previous, threshold=0.30)
        assert warnings == []

    def test_new_and_retired_scenarios_listed(self):
        current = {"fresh": _record("fresh", seconds=1.0)}
        previous = {"gone": _record("gone", seconds=1.0)}
        lines, warnings = perf_trend.compare(current, previous, threshold=0.30)
        assert warnings == []
        assert any("| fresh |" in line and "new" in line for line in lines)
        assert any("| gone |" in line and "retired" in line for line in lines)

    def test_no_previous_renders_current_only(self):
        current = {"fig2": _record("fig2", seconds=1.0)}
        lines, warnings = perf_trend.compare(current, {}, threshold=0.30)
        assert warnings == []
        assert any("| fig2 |" in line for line in lines)


class TestMedianWindow:
    """The baseline is the median of the last k runs, not the single
    previous run — one noisy hosted-runner sample must not flip status."""

    def test_single_outlier_in_history_does_not_mask_regression(self):
        # Median of (1.0, 1.0, 9.0) is 1.0: the slow outlier run does not
        # drag the baseline up, so a genuinely slow current run still warns.
        history = [
            {"fig2": _record("fig2", seconds=1.0)},
            {"fig2": _record("fig2", seconds=9.0)},
            {"fig2": _record("fig2", seconds=1.0)},
        ]
        current = {"fig2": _record("fig2", seconds=2.0)}
        _, warnings = perf_trend.compare(current, history, threshold=0.30)
        assert len(warnings) == 1

    def test_single_fast_outlier_does_not_fake_regression(self):
        # Against the single previous run (0.4s) this would warn; against
        # the median (1.0s) it is steady state.
        history = [
            {"fig2": _record("fig2", seconds=0.4)},
            {"fig2": _record("fig2", seconds=1.0)},
            {"fig2": _record("fig2", seconds=1.0)},
        ]
        current = {"fig2": _record("fig2", seconds=1.1)}
        lines, warnings = perf_trend.compare(current, history, threshold=0.30)
        assert warnings == []
        assert any("| fig2 |" in line and "| ok |" in line for line in lines)

    def test_window_size_rendered_in_header(self):
        history = [
            {"fig2": _record("fig2", seconds=1.0)},
            {"fig2": _record("fig2", seconds=1.0)},
        ]
        current = {"fig2": _record("fig2", seconds=1.0)}
        lines, _ = perf_trend.compare(current, history, threshold=0.30)
        assert any("median of last 2 runs" in line for line in lines)

    def test_scenario_missing_from_some_history_runs(self):
        # The median only aggregates runs that actually measured the
        # scenario; a sparse history still yields a baseline.
        history = [
            {"fig2": _record("fig2", seconds=1.0)},
            {"other": _record("other", seconds=3.0)},
            {"fig2": _record("fig2", seconds=2.0)},
        ]
        current = {"fig2": _record("fig2", seconds=1.5)}
        _, warnings = perf_trend.compare(current, history, threshold=0.30)
        assert warnings == []  # median(1.0, 2.0) = 1.5

    def test_record_dropped_from_the_current_run_retires_quietly(self):
        # A timing record the history carries but the current run no
        # longer writes (a deleted microbench probe) is retired, not a
        # regression, and the sparklines still render the survivors.
        history = [
            {
                "kernel_microbench": _record("kernel_microbench", events_per_second=9e5),
                "kernel_probe": _record("kernel_probe", events_per_second=3e5),
            }
            for _ in range(3)
        ]
        current = {"kernel_microbench": _record("kernel_microbench", events_per_second=9e5)}
        lines, warnings = perf_trend.compare(current, history, threshold=0.30)
        assert warnings == []
        assert any("| kernel_probe |" in line and "retired" in line for line in lines)
        sparks = perf_trend.sparkline_section(history, current)
        assert any("| kernel_microbench |" in line for line in sparks)

    def test_metric_kind_change_restarts_baseline(self):
        history = [
            {"kernel": _record("kernel", seconds=2.0)},
            {"kernel": _record("kernel", seconds=2.0)},
        ]
        current = {"kernel": _record("kernel", events_per_second=1_000_000)}
        lines, warnings = perf_trend.compare(current, history, threshold=0.30)
        assert warnings == []
        assert any("| kernel |" in line and "metric changed" in line for line in lines)

    def test_main_accepts_repeated_previous_dirs(self, tmp_path, capsys):
        current = tmp_path / "cur"
        _write(current, _record("fig2", seconds=1.0))
        dirs = []
        for index, seconds in enumerate((0.9, 1.0, 1.1)):
            directory = tmp_path / f"prev{index}"
            _write(directory, _record("fig2", seconds=seconds))
            dirs.append(directory)
        argv = ["--current", str(current)]
        for directory in dirs:
            argv += ["--previous", str(directory)]
        assert perf_trend.main(argv) == 0
        out = capsys.readouterr().out
        assert "median of last 3 runs" in out
        assert "::warning" not in out


class TestLoadTimingsDir:
    def test_loads_only_timings_schema(self, tmp_path):
        _write(tmp_path, _record("fig2", seconds=1.0))
        (tmp_path / "TIMINGS_broken.json").write_text("{not json")
        (tmp_path / "TIMINGS_other.json").write_text(json.dumps({"schema": "x"}))
        (tmp_path / "BENCH_fig2.json").write_text(json.dumps({"schema": "repro-bench/1"}))
        records = perf_trend.load_timings_dir(tmp_path)
        assert sorted(records) == ["fig2"]

    def test_main_soft_fails_and_writes_summary(self, tmp_path, capsys):
        current = tmp_path / "cur"
        previous = tmp_path / "prev"
        _write(current, _record("fig2", seconds=5.0))
        _write(previous, _record("fig2", seconds=1.0))
        summary = tmp_path / "summary.md"
        code = perf_trend.main(
            [
                "--current", str(current),
                "--previous", str(previous),
                "--summary", str(summary),
            ]
        )
        assert code == 0  # regressions warn, never fail
        out = capsys.readouterr().out
        assert "::warning" in out
        assert "Perf trend" in summary.read_text()

    def test_main_requires_current_timings(self, tmp_path):
        assert perf_trend.main(["--current", str(tmp_path / "empty")]) == 1


class TestCommittedHistory:
    """The perf_history.jsonl spine: record lines, reload as the median
    window, survive junk, and outrank --previous artifact directories."""

    def _history(self, tmp_path, runs):
        path = tmp_path / "perf_history.jsonl"
        for current in runs:
            perf_trend.append_history(path, perf_trend.history_record(current))
        return path

    def test_record_and_reload_round_trip(self, tmp_path):
        current = {
            "fig2": _record("fig2", seconds=2.5),
            "kernel": _record("kernel", events_per_second=1_500_000.0),
        }
        path = self._history(tmp_path, [current])
        runs = perf_trend.load_history(path)
        assert len(runs) == 1
        assert perf_trend._metric(runs[0]["fig2"]) == (2.5, "seconds")
        assert perf_trend._metric(runs[0]["kernel"]) == (1_500_000.0, "events/s")

    def test_record_carries_sha_and_run_id(self, tmp_path):
        path = tmp_path / "perf_history.jsonl"
        record = perf_trend.history_record(
            {"fig2": _record("fig2", seconds=1.0)}, sha="abc123", run_id=42
        )
        perf_trend.append_history(path, record)
        line = json.loads(path.read_text())
        assert line["schema"] == perf_trend.HISTORY_SCHEMA
        assert line["sha"] == "abc123"
        assert line["run_id"] == "42"

    def test_window_keeps_only_trailing_entries(self, tmp_path):
        runs = [{"fig2": _record("fig2", seconds=float(i))} for i in range(1, 9)]
        path = self._history(tmp_path, runs)
        window = perf_trend.load_history(path, window=3)
        assert [perf_trend._metric(run["fig2"])[0] for run in window] == [6.0, 7.0, 8.0]

    def test_junk_lines_are_skipped(self, tmp_path, capsys):
        path = self._history(tmp_path, [{"fig2": _record("fig2", seconds=1.0)}])
        with path.open("a") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"schema": "something-else"}) + "\n")
            handle.write("\n")
        runs = perf_trend.load_history(path)
        assert len(runs) == 1
        err = capsys.readouterr().err
        assert "skipping" in err

    def test_missing_file_yields_empty_window(self, tmp_path):
        assert perf_trend.load_history(tmp_path / "absent.jsonl") == []

    def test_main_prefers_history_over_previous_dirs(self, tmp_path, capsys):
        current_dir = tmp_path / "cur"
        _write(current_dir, _record("fig2", seconds=2.0))
        # The artifact dir says 2.0s (no regression); the committed
        # history says 1.0s (regression) — history must win.
        previous = tmp_path / "prev"
        _write(previous, _record("fig2", seconds=2.0))
        history = self._history(
            tmp_path,
            [{"fig2": _record("fig2", seconds=1.0)} for _ in range(3)],
        )
        assert perf_trend.main(
            [
                "--current", str(current_dir),
                "--previous", str(previous),
                "--history", str(history),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "::warning" in out
        assert "median of last 3 runs" in out

    def test_main_falls_back_to_previous_when_history_empty(self, tmp_path, capsys):
        current_dir = tmp_path / "cur"
        _write(current_dir, _record("fig2", seconds=1.0))
        previous = tmp_path / "prev"
        _write(previous, _record("fig2", seconds=1.0))
        empty = tmp_path / "perf_history.jsonl"
        empty.write_text("")
        assert perf_trend.main(
            [
                "--current", str(current_dir),
                "--previous", str(previous),
                "--history", str(empty),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "median of last 1 run" in out

    def test_sparkline_normalizes_to_the_glyph_ramp(self):
        spark = perf_trend._spark([1.0, 2.0, 3.0])
        assert len(spark) == 3
        assert spark[0] == perf_trend.SPARK_CHARS[0]
        assert spark[-1] == perf_trend.SPARK_CHARS[-1]
        # A flat series renders flat, not divide-by-zero.
        assert perf_trend._spark([2.0, 2.0]) == perf_trend.SPARK_CHARS[0] * 2

    def test_sparkline_section_renders_history_plus_current(self):
        history = [
            {"fig2": _record("fig2", seconds=float(i))} for i in range(1, 4)
        ]
        current = {"fig2": _record("fig2", seconds=4.0)}
        lines = perf_trend.sparkline_section(history, current)
        assert any("| fig2 |" in line for line in lines)
        row = next(line for line in lines if "| fig2 |" in line)
        assert "4.00s" in row  # current lands at the right edge
        assert "1.00s" in row and "4.00s" in row  # range column

    def test_sparkline_section_skips_single_samples_and_kind_changes(self):
        history = [{"kernel": _record("kernel", seconds=2.0)}]
        current = {
            "kernel": _record("kernel", events_per_second=1_000_000),
            "lonely": _record("lonely", seconds=1.0),
        }
        # kernel's lone events/s sample and lonely's single run are both
        # one-dot non-trends: nothing renders, the section collapses.
        assert perf_trend.sparkline_section(history, current) == []

    def test_sparkline_limit_keeps_newest_entries(self):
        history = [
            {"fig2": _record("fig2", seconds=float(i))} for i in range(1, 11)
        ]
        current = {"fig2": _record("fig2", seconds=11.0)}
        lines = perf_trend.sparkline_section(history, current, limit=4)
        row = next(line for line in lines if "| fig2 |" in line)
        spark = row.split("`")[1]
        assert len(spark) == 5  # 4 history entries + current
        assert "7.00s" in row  # the oldest surviving entry

    def test_main_sparklines_flag_renders_section(self, tmp_path, capsys):
        current_dir = tmp_path / "cur"
        _write(current_dir, _record("fig2", seconds=1.0))
        history = self._history(
            tmp_path,
            [{"fig2": _record("fig2", seconds=float(i))} for i in (1, 2)],
        )
        assert perf_trend.main(
            [
                "--current", str(current_dir),
                "--history", str(history),
                "--sparklines",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Per-scenario history" in out
        assert any(ch in out for ch in perf_trend.SPARK_CHARS)

    def test_main_record_history_appends(self, tmp_path):
        current_dir = tmp_path / "cur"
        _write(current_dir, _record("fig2", seconds=1.25))
        path = tmp_path / "perf_history.jsonl"
        for _ in range(2):
            assert perf_trend.main(
                [
                    "--current", str(current_dir),
                    "--record-history", str(path),
                    "--sha", "deadbeef",
                ]
            ) == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert all(line["scenarios"]["fig2"]["value"] == 1.25 for line in lines)
