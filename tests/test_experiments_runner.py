"""Orchestrator tests: registry completeness, parallel-vs-serial
determinism of the JSON artifacts, and `repro bench` CLI handling."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.common.errors import ConfigurationError
from repro.experiments.params import ExperimentParams
from repro.experiments.registry import (
    REGISTRY,
    TIER_NAMES,
    RunContext,
    ScenarioSpec,
    TierConfig,
    get_scenario,
    register,
    scenario_ids,
)
from repro.experiments.reporting import (
    ARTIFACT_SCHEMA,
    encode_artifact,
    json_safe,
    load_artifact,
    write_artifact,
)
from repro.experiments.runner import (
    build_units,
    replicate_seed,
    run_scenarios,
    write_artifacts,
)

#: Cheap but structurally different scenarios for runner-level tests.
FAST_IDS = ("fig1_hyparview_reference", "fig1c_failure50")
#: Tiny override so runner tests stay in the sub-second range per cell.
TINY = dict(n=32, messages=2)


class TestRegistry:
    def test_every_scenario_resolves_and_has_all_tiers(self):
        assert len(REGISTRY) >= 15
        for scenario_id in scenario_ids():
            spec = get_scenario(scenario_id)
            assert spec.id == scenario_id
            for tier in TIER_NAMES:
                config = spec.tier(tier)
                assert config.n >= 2
            assert callable(spec.run)
            assert callable(spec.render)

    def test_tier_ordering_smoke_is_cheapest(self):
        for scenario_id in scenario_ids():
            spec = get_scenario(scenario_id)
            assert spec.tier("smoke").n < spec.tier("paper").n
            assert spec.tier("paper").paper_params

    def test_unknown_scenario_raises_with_catalogue(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("not_a_scenario")

    def test_unknown_tier_raises(self):
        spec = get_scenario("fig2_reliability")
        with pytest.raises(ConfigurationError, match="no 'nope' tier"):
            spec.tier("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("fig2_reliability")
        with pytest.raises(ConfigurationError, match="duplicate"):
            register(spec)

    def test_every_scenario_smoke_runs(self):
        """Every registry entry executes end-to-end at a tiny scale and
        produces a JSON-encodable, render-able, check-passing result."""
        runs = run_scenarios(scenario_ids(), "smoke", workers=1, **TINY)
        for scenario_id, run in runs.items():
            assert run.replicates, scenario_id
            text = run.render()
            assert text.strip(), scenario_id
            run.check()  # sanity invariants hold at any scale
            json.loads(encode_artifact(run.artifact()))


class TestRunContext:
    def test_scaled_params_from_config(self):
        context = RunContext(
            scenario_id="x", tier="smoke",
            config=TierConfig(n=50, stabilization_cycles=7),
            replicate=0, seed=123,
        )
        params = context.params()
        assert params.n == 50
        assert params.seed == 123
        assert params.stabilization_cycles == 7

    def test_paper_params_flag(self):
        context = RunContext(
            scenario_id="x", tier="paper",
            config=TierConfig(n=10_000, paper_params=True),
            replicate=0, seed=9,
        )
        params = context.params()
        assert params == ExperimentParams.paper(n=10_000, seed=9)

    def test_extra_options_reach_the_run(self):
        config = TierConfig(n=50, extra={"fractions": (0.3,)})
        context = RunContext("x", "smoke", config, 0, 1)
        assert context.option("fractions", None) == (0.3,)
        assert context.option("absent", "default") == "default"


class TestSeedDerivation:
    def test_replicate_seeds_are_deterministic(self):
        a = replicate_seed(42, "fig2_reliability", 0)
        b = replicate_seed(42, "fig2_reliability", 0)
        assert a == b

    def test_replicate_seeds_are_distinct_across_cells(self):
        seeds = {
            replicate_seed(root, scenario, replicate)
            for root in (1, 2)
            for scenario in ("fig2_reliability", "churn")
            for replicate in range(3)
        }
        assert len(seeds) == 12

    def test_units_carry_per_replicate_seeds(self):
        units = build_units(["churn"], "smoke", root_seed=7, replicates=3, cells=False)
        assert [unit.replicate for unit in units] == [0, 1, 2]
        resolved = [unit.resolve()[1] for unit in units]
        assert len({context.seed for context in resolved}) == 3

    def test_cell_units_share_their_replicate_seed(self):
        # churn decomposes into one cell per protocol; every cell of one
        # replicate must observe the replicate's seed (the monolithic run
        # and the sharded cells see identical randomness).
        units = build_units(["churn"], "smoke", root_seed=7, replicates=2)
        assert [unit.replicate for unit in units] == [0, 0, 1, 1]
        assert all(unit.cell is not None for unit in units)
        seeds = {}
        for unit in units:
            seeds.setdefault(unit.replicate, set()).add(unit.resolve()[1].seed)
        assert all(len(per_replicate) == 1 for per_replicate in seeds.values())
        assert seeds[0] != seeds[1]


class TestParallelDeterminism:
    def test_parallel_equals_serial_byte_for_byte(self, tmp_path):
        serial = run_scenarios(FAST_IDS, "smoke", workers=1, replicates=2, **TINY)
        parallel = run_scenarios(FAST_IDS, "smoke", workers=2, replicates=2, **TINY)
        serial_paths = write_artifacts(serial, tmp_path / "serial")
        parallel_paths = write_artifacts(parallel, tmp_path / "parallel")
        assert [p.name for p in serial_paths] == [p.name for p in parallel_paths]
        for a, b in zip(serial_paths, parallel_paths):
            assert a.read_bytes() == b.read_bytes()

    def test_replicates_differ_but_are_reproducible(self):
        first = run_scenarios(["fig1c_failure50"], "smoke", workers=1, replicates=2, **TINY)
        again = run_scenarios(["fig1c_failure50"], "smoke", workers=1, replicates=2, **TINY)
        run = first["fig1c_failure50"]
        assert run.replicates[0]["seed"] != run.replicates[1]["seed"]
        assert encode_artifact(run.artifact()) == encode_artifact(
            again["fig1c_failure50"].artifact()
        )

    def test_root_seed_changes_results(self):
        a = run_scenarios(["fig1c_failure50"], "smoke", workers=1, root_seed=1, **TINY)
        b = run_scenarios(["fig1c_failure50"], "smoke", workers=1, root_seed=2, **TINY)
        assert (
            a["fig1c_failure50"].replicates[0]["seed"]
            != b["fig1c_failure50"].replicates[0]["seed"]
        )

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_scenarios(FAST_IDS, "smoke", workers=0)


class TestArtifacts:
    def test_round_trip_and_schema_guard(self, tmp_path):
        runs = run_scenarios(["fig1_hyparview_reference"], "smoke", workers=1, **TINY)
        path = write_artifact(tmp_path, runs["fig1_hyparview_reference"].artifact())
        assert path.name == "BENCH_fig1_hyparview_reference.json"
        loaded = load_artifact(path)
        assert loaded["schema"] == ARTIFACT_SCHEMA
        assert loaded["scenario"] == "fig1_hyparview_reference"
        assert loaded["config"]["n"] == TINY["n"]

        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text('{"schema": "other/9", "scenario": "bogus"}')
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_artifact(bogus)

    def test_json_safe_conversions(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Point:
            x: int
            series: tuple

        converted = json_safe({1: Point(3, (1.0, float("nan"))), "s": {2, 1}})
        assert converted == {"1": {"x": 3, "series": [1.0, None]}, "s": [1, 2]}

    def test_artifact_contains_no_timestamps(self):
        runs = run_scenarios(["fig1_hyparview_reference"], "smoke", workers=1, **TINY)
        text = encode_artifact(runs["fig1_hyparview_reference"].artifact())
        for forbidden in ("time", "date", "duration", "elapsed", "host"):
            assert forbidden not in text.lower()


class TestBenchCli:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.tier == "smoke"
        assert args.workers == 1
        assert args.scenario is None
        assert args.seed == 42

    def test_tier_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--tier", "huge"])

    def test_scenario_is_repeatable(self):
        args = build_parser().parse_args(
            ["bench", "--scenario", "churn", "--scenario", "overhead"]
        )
        assert args.scenario == ["churn", "overhead"]

    def test_list_prints_catalogue(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario_id in scenario_ids():
            assert scenario_id in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["bench", "--scenario", "nope", "--no-artifacts"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "Traceback" not in err

    def test_bench_run_writes_artifacts(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "--tier", "smoke",
                "--workers", "2",
                "--scenario", "fig1_hyparview_reference",
                "--scenario", "fig1c_failure50",
                "--n", "32",
                "--messages", "2",
                "--check",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "===== fig1_hyparview_reference =====" in out
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "BENCH_fig1_hyparview_reference.json",
            "BENCH_fig1c_failure50.json",
            # Wall-clock records ride along, in separate files, so the
            # BENCH_* family stays deterministic.
            "TIMINGS_fig1_hyparview_reference.json",
            "TIMINGS_fig1c_failure50.json",
        ]

    def test_cell_and_cache_flags(self, capsys, tmp_path):
        """--cells off / --no-snapshot-cache run the same scenarios and
        write byte-identical artifacts (the determinism contract)."""
        base_args = [
            "bench", "--scenario", "fig2_reliability",
            "--n", "32", "--messages", "2",
        ]
        assert main(base_args + ["--out", str(tmp_path / "a")]) == 0
        assert main(base_args + ["--cells", "off", "--out", str(tmp_path / "b")]) == 0
        assert main(base_args + ["--no-snapshot-cache", "--out", str(tmp_path / "c")]) == 0
        name = "BENCH_fig2_reliability.json"
        reference = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == reference
        assert (tmp_path / "c" / name).read_bytes() == reference

    def test_profile_mode(self, capsys):
        assert main(
            ["bench", "--profile", "--scenario", "fig1_hyparview_reference",
             "--n", "32", "--messages", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "profiling fig1_hyparview_reference" in out
        assert "cumulative" in out

    def test_no_artifacts_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["bench", "--scenario", "fig1_hyparview_reference",
             "--n", "32", "--messages", "2", "--no-artifacts"]
        ) == 0
        assert not (tmp_path / "benchmarks").exists()
