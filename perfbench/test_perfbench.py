"""Tests of the benchmark itself (run: ``python -m pytest perfbench -q``).

The simulator tests call the workload functions directly at small system
sizes and check that the fingerprint is a pure function of the seed:
identical across rounds, across processes and with the tracer installed,
so the tracer only observes.  The live and packaging tests run the
command itself.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from report import Checks, load_spec  # noqa: E402
from run import trace_sim  # noqa: E402
from simload import SCALED, WORKLOADS, end_to_end, run_round, set_up  # noqa: E402
from spans import Tracer, install_live, install_sim  # noqa: E402

SMALL_N = {"fig2-hyparview": 64, "brb-sampled": 48}

#: Prints the fingerprint of one small round, in a fresh interpreter.
FINGERPRINT_SCRIPT = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
from report import Checks
from simload import WORKLOADS, run_round, set_up
workload = WORKLOADS[{workload!r}]
checks = Checks()
setup = set_up(workload, {seed}, {n}, checks)
print(run_round(workload, setup.blob, checks).fingerprint)
assert checks.failed == 0, checks.failures
"""


def _small_round(workload_name: str, seed: int):
    workload = WORKLOADS[workload_name]
    checks = Checks()
    setup = set_up(workload, seed, SMALL_N[workload_name], checks)
    result = run_round(workload, setup.blob, checks)
    assert checks.failed == 0, checks.failures
    return setup, result


def _fingerprint_in_subprocess(workload_name: str, seed: int) -> str:
    script = FINGERPRINT_SCRIPT.format(here=str(HERE), src=str(HERE.parent / "src"),
                                       workload=workload_name, seed=seed,
                                       n=SMALL_N[workload_name])
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.strip()


def _run(workload: str, seed: int, trace: int, seconds: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SMALL_N))
def test_fingerprint_repeats_across_rounds_and_processes(workload):
    setup, first = _small_round(workload, seed=3)
    checks = Checks()
    second = run_round(WORKLOADS[workload], setup.blob, checks)
    assert checks.failed == 0
    assert second.fingerprint == first.fingerprint
    assert _fingerprint_in_subprocess(workload, seed=3) == first.fingerprint


@pytest.mark.parametrize("workload", sorted(SMALL_N))
def test_tracing_leaves_the_simulation_unchanged(workload):
    untraced_setup, untraced = _small_round(workload, seed=3)
    tracer = Tracer()
    patches = install_sim(tracer)
    try:
        traced_setup, traced = _small_round(workload, seed=3)
    finally:
        patches.undo()
    assert traced_setup.blob == untraced_setup.blob
    assert traced.fingerprint == untraced.fingerprint
    assert tracer.calls["sim.engine/run"] > 0


def test_fingerprint_depends_on_the_seed():
    _setup, first = _small_round("fig2-hyparview", seed=3)
    _setup, other = _small_round("fig2-hyparview", seed=4)
    assert first.fingerprint != other.fingerprint


@pytest.mark.parametrize("workload", sorted(SMALL_N))
def test_sim_metrics_match_the_spec(workload):
    spec = load_spec()
    setup, result = _small_round(workload, seed=5)
    metrics = end_to_end([result], setup.total_s, 1.0, 1.0)
    assert set(metrics) == {metric["name"] for metric in spec["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
    # A host twice as slow as the reference halves the scaled timings.
    slow = end_to_end([result], setup.total_s, 1.0, 2.0)
    for name, value in metrics.items():
        if name == "bcast_per_s":
            assert slow[name] == pytest.approx(2 * value)
        elif name in SCALED:
            assert slow[name] == pytest.approx(value / 2)
        else:
            assert slow[name] == value
    checks = Checks()
    layer_metrics, operations, _notes = trace_sim(
        WORKLOADS[workload], 5, SMALL_N[workload], 0.1, checks)
    assert checks.failed == 0, checks.failures
    assert operations >= 1
    assert set(layer_metrics) == {metric["name"] for metric in spec["per_layer"]}


def test_live_pubsub_short_run_is_correct():
    for trace in (0, 1):
        result = _run("live-pubsub", seed=2, trace=trace, seconds="0.5")
        assert result["correct"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        if trace:
            assert result["metrics"]["runtime.transport.frames_sent"]["value"] > 0


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live-pubsub", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_times_partition_the_outer_span():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer.timed("b/inner", inner)
    start = time.perf_counter()
    tracer.timed("a/outer", outer)()
    wall = time.perf_counter() - start
    assert tracer.calls == {"a/outer": 1, "b/inner": 1}
    assert tracer.self_s["b/inner"] >= 0.01
    assert tracer.self_s["a/outer"] >= 0.01
    assert sum(tracer.self_s.values()) == pytest.approx(wall, abs=1e-3)
    assert tracer.spans[0][3] == "a/outer"  # the inner span's parent


def test_reset_forgets_the_kept_spans():
    tracer = Tracer()
    tracer.timed("a/outer", lambda: None)()
    tracer.reset()
    tracer.timed("b/inner", lambda: None)()
    assert [span[0] for span in tracer.spans] == ["b/inner"]
    assert tracer.spans_total == 1


@pytest.mark.parametrize("install", [install_sim, install_live])
def test_patches_undo_restores_every_attribute(install):
    from repro.common.ids import NodeId
    from repro.runtime import transport
    from repro.sim.network import Network

    before = (NodeId.__hash__, Network.send, transport.json, transport.encode_message)
    install(Tracer()).undo()
    assert (NodeId.__hash__, Network.send, transport.json, transport.encode_message) == before
