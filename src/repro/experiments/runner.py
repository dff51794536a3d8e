"""Parallel experiment orchestrator.

Shards work across worker processes and aggregates results into versioned
JSON artifacts.  The schedulable atom is a :class:`WorkUnit`:

* for scenarios with a **cell decomposition** (grid sweeps — see
  :mod:`repro.experiments.registry`), one unit is one ``(scenario,
  replicate, cell)`` — e.g. one (protocol, failure-fraction) pair of
  Figure 2 — so a single replicate's grid fans out over every worker;
* for monolithic scenarios, one unit is one ``(scenario, replicate)``.

Each replicate derives its root seed from the sweep seed via
:meth:`SeedSequence.derive_seed`; all cells of a replicate share that seed,
and a cell's result depends only on ``(root_seed, scenario_id, tier,
replicate, overrides, cell key)`` — never on scheduling, worker identity or
cache state.  A run with ``--workers 8`` therefore produces byte-identical
artifacts to a serial run, with or without cells or the snapshot cache,
which is asserted in CI.

Workers keep a per-process :class:`~repro.experiments.snapshots.
SnapshotCache` of frozen stabilised base overlays, so a worker that
executes many cells of one protocol stabilises the base once and
rehydrates per cell with a single ``pickle.loads`` — the dominant cost at
paper scale.  To make that cache effective, the pool's scheduling atom is
an **affinity chunk**: a run of consecutive cells sharing one stabilised
base (e.g. every fraction of one protocol in a Figure 2 replicate).
Chunks are dispatched dynamically, so heterogeneous scenarios still
balance; when there are fewer chunks than workers, chunks are split so no
worker idles.  Each base is then stabilised once per worker that touches
it — usually once per sweep — restoring the session-wide sharing the old
ScenarioCache provided, but across process boundaries.

Per-unit and per-scenario wall-clock (plus kernel events/s, sampled from
the engine's process-wide fired-event counter) is reported to the progress
stream and persisted as ``TIMINGS_<scenario>.json`` — a separate,
openly non-deterministic artifact family that CI uploads and trends
across commits.  Timings never enter the ``BENCH_*`` artifacts, which
must stay deterministic.

The multiprocessing entry point (:func:`_execute_unit`) is a module-level
function resolving scenarios by id from the registry, so it works under
both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from ..common.errors import ConfigurationError
from ..common.rng import SeedSequence
from ..obs.context import activate_collector, deactivate_collector
from ..obs.trace import DisseminationTrace, TraceCollector
from ..sim.engine import events_fired_total
from .registry import (
    CellKey,
    RunContext,
    ScenarioSpec,
    TierConfig,
    get_scenario,
)
from .reporting import (
    ARTIFACT_SCHEMA,
    TIMINGS_SCHEMA,
    format_timings,
    metrics_artifact,
    trace_artifact,
    write_artifact,
    write_metrics_file,
    write_timings_file,
    write_trace_file,
)
from .snapshots import SnapshotCache

#: Default root seed of a sweep (matches the experiment default).
DEFAULT_ROOT_SEED = 42

#: Per-worker-process cache of frozen stabilised overlays, created lazily
#: on first use inside each worker (and shared by serial in-process runs).
_WORKER_SNAPSHOTS: Optional[SnapshotCache] = None


def _worker_snapshots() -> SnapshotCache:
    global _WORKER_SNAPSHOTS
    if _WORKER_SNAPSHOTS is None:
        _WORKER_SNAPSHOTS = SnapshotCache()
    return _WORKER_SNAPSHOTS


_EMPTY_CACHE_STATS = {
    "entries": 0, "hits": 0, "misses": 0, "evictions": 0, "cached_bytes": 0,
}


def _cache_stats() -> dict:
    """This process's snapshot-cache counters (zeros when never used)."""
    if _WORKER_SNAPSHOTS is None:
        return dict(_EMPTY_CACHE_STATS)
    return _WORKER_SNAPSHOTS.stats()


def _cache_delta(before: dict, after: dict) -> dict:
    """Counter growth across one chunk, plus the cache's current size.

    Counters are deltas (summable across chunks and workers without double
    counting); ``entries`` / ``cached_bytes`` are the absolute cache size
    after the chunk, aggregated as a per-worker peak.
    """
    return {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "evictions": after["evictions"] - before["evictions"],
        "entries": after["entries"],
        "cached_bytes": after["cached_bytes"],
    }


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One schedulable atom: a whole replicate, or one cell of it.

    Everything a worker needs travels in this (picklable) record; the
    scenario's code is resolved from the registry inside the worker.
    """

    scenario_id: str
    tier: str
    replicate: int
    root_seed: int
    n: Optional[int] = None
    messages: Optional[int] = None
    #: ``None`` runs the whole replicate; otherwise one cell key from the
    #: scenario's ``cells`` enumeration.
    cell: Optional[CellKey] = None
    #: whether the executing worker may serve stabilised bases from its
    #: snapshot cache (results are identical either way; this is purely
    #: a speed/memory knob).
    snapshot_cache: bool = True
    #: Collect a dissemination trace while the unit runs.  Never part of
    #: the BENCH artifact: trace output travels in ``UnitOutcome.trace``
    #: and lands in the separate ``TRACE_*``/``METRICS_*`` files.
    trace: bool = False

    def resolve(
        self, snapshots: Optional[SnapshotCache] = None
    ) -> tuple[ScenarioSpec, RunContext]:
        spec = get_scenario(self.scenario_id)
        config = _apply_overrides(spec.tier(self.tier), self.n, self.messages)
        seed = replicate_seed(self.root_seed, self.scenario_id, self.replicate)
        context = RunContext(
            scenario_id=self.scenario_id,
            tier=self.tier,
            config=config,
            replicate=self.replicate,
            seed=seed,
            snapshots=snapshots,
        )
        return spec, context

    def describe(self) -> str:
        label = f"{self.scenario_id} replicate {self.replicate}"
        if self.cell is not None:
            label += f" cell {_cell_label(self.cell)}"
        return label


def _cell_label(cell: CellKey) -> str:
    return "/".join(str(part) for part in cell)


def replicate_seed(root_seed: int, scenario_id: str, replicate: int) -> int:
    """The deterministic seed of one replicate (scheduling-independent).

    Cells of one replicate share the seed: the monolithic run and the
    sharded cells must observe identical randomness.
    """
    return SeedSequence(root_seed).derive_seed(
        f"bench/{scenario_id}/replicate/{replicate}"
    )


def _apply_overrides(
    config: TierConfig, n: Optional[int], messages: Optional[int]
) -> TierConfig:
    if n is not None:
        config = replace(config, n=n, paper_params=False)
    if messages is not None:
        config = replace(config, messages=messages)
    return config


@dataclass(frozen=True, slots=True)
class UnitOutcome:
    """What a worker sends back for one unit.

    ``elapsed`` and ``events`` are observability only (logged and written
    to ``TIMINGS_*.json``, never into ``BENCH_*``): artifacts are
    assembled exclusively from ``result`` and the deterministic keys.
    ``events`` counts simulation-kernel events fired while the unit ran
    in its worker — elapsed and events together give per-unit kernel
    throughput.
    """

    scenario_id: str
    replicate: int
    cell: Optional[CellKey]
    seed: int
    result: dict
    elapsed: float
    events: int = 0
    #: JSON-safe trace segments collected while the unit ran (``None``
    #: unless the unit asked for tracing); assembled into ``TRACE_*``
    #: artifacts by the orchestrator, never into ``BENCH_*``.
    trace: Optional[list] = None


def _affinity_key(unit: WorkUnit) -> tuple:
    """Units with equal keys reuse one stabilised base (cache affinity).

    The first cell component is the protocol for grid scenarios — the
    component that selects the base overlay.  Scenarios whose cells all
    share one base (fanout sweeps) declare ``cell_affinity`` in their spec
    to collapse the whole replicate into one chunk.
    """
    if unit.cell is None:
        return (unit.scenario_id, unit.replicate, None)
    spec = get_scenario(unit.scenario_id)
    if spec.cell_affinity is not None:
        return (unit.scenario_id, unit.replicate, spec.cell_affinity(unit.cell))
    return (unit.scenario_id, unit.replicate, unit.cell[0])


def build_chunks(units: Sequence[WorkUnit], workers: int) -> list[list[WorkUnit]]:
    """Partition units into the pool's scheduling atoms.

    Consecutive units sharing an affinity key form one chunk, executed
    serially by one worker against one cached base.  If that yields fewer
    chunks than workers (a single-grid sweep on a wide pool), chunks are
    split evenly — extra base stabilisations, but no idle workers.
    """
    chunks: list[list[WorkUnit]] = []
    previous: Optional[tuple] = None
    for unit in units:
        key = _affinity_key(unit)
        if previous is not None and key == previous:
            chunks[-1].append(unit)
        else:
            chunks.append([unit])
        previous = key
    pieces = -(-workers // len(chunks)) if 0 < len(chunks) < workers else 1
    if pieces > 1:
        split: list[list[WorkUnit]] = []
        for chunk in chunks:
            size = -(-len(chunk) // pieces)  # ceil division
            split.extend(chunk[i:i + size] for i in range(0, len(chunk), size))
        chunks = split
    return chunks


def _execute_chunk(chunk: list[WorkUnit]) -> tuple[list[UnitOutcome], dict]:
    """Worker entry point for one affinity chunk (units run in order).

    Returns the outcomes plus the chunk's snapshot-cache stats delta, so
    the orchestrator can surface cache behaviour (hits/misses/bytes) in
    the stderr timing summary without the cache leaving its worker.
    """
    before = _cache_stats()
    outcomes = [_execute_unit(unit) for unit in chunk]
    return outcomes, _cache_delta(before, _cache_stats())


def _execute_unit(unit: WorkUnit) -> UnitOutcome:
    """Worker entry point: run one unit, return its keyed result."""
    started = time.perf_counter()
    events_before = events_fired_total()
    snapshots = _worker_snapshots() if unit.snapshot_cache else None
    spec, context = unit.resolve(snapshots)
    collector = TraceCollector() if unit.trace else None
    if collector is not None:
        activate_collector(collector)
    try:
        if unit.cell is None:
            result = spec.run(context)
        else:
            assert spec.run_cell is not None  # build_units only emits cells for celled specs
            result = spec.run_cell(context, unit.cell)
    finally:
        if collector is not None:
            deactivate_collector()
    return UnitOutcome(
        scenario_id=unit.scenario_id,
        replicate=unit.replicate,
        cell=unit.cell,
        seed=context.seed,
        result=result,
        elapsed=time.perf_counter() - started,
        events=events_fired_total() - events_before,
        trace=collector.export() if collector is not None else None,
    )


@dataclass(frozen=True, slots=True)
class ScenarioRun:
    """Aggregated outcome of one scenario at one tier."""

    spec: ScenarioSpec
    tier: str
    config: TierConfig
    root_seed: int
    #: per-replicate ``{"replicate", "seed", "result"}`` records, in order.
    replicates: tuple[dict, ...]

    def first_result(self) -> dict:
        return self.replicates[0]["result"]

    def artifact(self) -> dict:
        """The versioned JSON artifact for this run.

        Deliberately contains no timestamps, durations or host identity:
        the artifact is a pure function of ``(root_seed, scenario, tier,
        overrides)``, so parallel and serial runs encode identically and
        CI can diff artifacts across commits.
        """
        return {
            "schema": ARTIFACT_SCHEMA,
            "scenario": self.spec.id,
            "group": self.spec.group,
            "title": self.spec.title,
            "tier": self.tier,
            "root_seed": self.root_seed,
            "config": {
                "n": self.config.n,
                "messages": self.config.messages,
                "replicates": self.config.replicates,
                "stabilization_cycles": self.config.stabilization_cycles,
                "paper_params": self.config.paper_params,
                "extra": dict(self.config.extra),
            },
            "replicates": list(self.replicates),
        }

    def render(self) -> str:
        return self.spec.render(self.first_result(), self.config.n)

    def check(self) -> None:
        if self.spec.check is None:
            return
        for record in self.replicates:
            self.spec.check(record["result"], self.config.n)


@dataclass
class SweepTimings:
    """Wall-clock accounting for one orchestrator sweep.

    Collected from :class:`UnitOutcome`; deliberately kept outside
    :class:`ScenarioRun` so nothing timing-shaped can leak into ``BENCH_*``
    artifacts.  Serialised separately as ``TIMINGS_<scenario>.json`` via
    :func:`write_timings_artifacts` for the CI perf-trend job.
    """

    #: scenario id -> summed worker-seconds over its units.
    scenario_seconds: dict[str, float] = field(default_factory=dict)
    #: scenario id -> unit count.
    scenario_units: dict[str, int] = field(default_factory=dict)
    #: scenario id -> summed kernel events fired over its units.
    scenario_events: dict[str, int] = field(default_factory=dict)
    #: scenario id -> per-unit records, in completion order.
    unit_records: dict[str, list[dict]] = field(default_factory=dict)
    #: snapshot-cache behaviour summed over chunks: hit/miss/eviction
    #: counters plus per-worker peak entries/bytes (logs only, never in
    #: BENCH artifacts).
    snapshot_cache: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    def record(self, outcome: UnitOutcome) -> None:
        scenario_id = outcome.scenario_id
        self.scenario_seconds[scenario_id] = (
            self.scenario_seconds.get(scenario_id, 0.0) + outcome.elapsed
        )
        self.scenario_units[scenario_id] = self.scenario_units.get(scenario_id, 0) + 1
        self.scenario_events[scenario_id] = (
            self.scenario_events.get(scenario_id, 0) + outcome.events
        )
        self.unit_records.setdefault(scenario_id, []).append(
            {
                "replicate": outcome.replicate,
                "cell": None if outcome.cell is None else _cell_label(outcome.cell),
                "elapsed_seconds": outcome.elapsed,
                "events": outcome.events,
                "events_per_second": (
                    outcome.events / outcome.elapsed if outcome.elapsed > 0 else None
                ),
            }
        )

    def record_cache(self, delta: dict) -> None:
        cache = self.snapshot_cache
        for key in ("hits", "misses", "evictions"):
            cache[key] = cache.get(key, 0) + delta[key]
        for key in ("entries", "cached_bytes"):
            cache[key] = max(cache.get(key, 0), delta[key])

    def format_cache(self) -> str:
        """One stderr line summarising snapshot-cache behaviour."""
        cache = self.snapshot_cache
        if not cache:
            return "snapshot cache: (unused)"
        return (
            f"snapshot cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('evictions', 0)} evictions; peak "
            f"{cache.get('entries', 0)} entries / "
            f"{cache.get('cached_bytes', 0):,} bytes per worker"
        )

    def timings_artifact(self, scenario_id: str, *, tier: str, workers: int) -> dict:
        """The ``TIMINGS_<scenario>.json`` payload for one scenario.

        Unit records are sorted by ``(replicate, cell)`` so the layout is
        stable across scheduling orders even though the *values* are
        wall-clock and change every run.
        """
        units = sorted(
            self.unit_records.get(scenario_id, []),
            key=lambda record: (record["replicate"], record["cell"] or ""),
        )
        seconds = self.scenario_seconds.get(scenario_id, 0.0)
        events = self.scenario_events.get(scenario_id, 0)
        return {
            "schema": TIMINGS_SCHEMA,
            "scenario": scenario_id,
            "tier": tier,
            "workers": workers,
            "units": units,
            "totals": {
                "units": self.scenario_units.get(scenario_id, 0),
                "worker_seconds": seconds,
                "events": events,
                "events_per_second": events / seconds if seconds > 0 else None,
            },
            "sweep_wall_seconds": self.wall_seconds,
        }


def build_units(
    scenario_ids: Sequence[str],
    tier: str,
    *,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    replicates: Optional[int] = None,
    cells: bool = True,
    snapshot_cache: bool = True,
    trace: bool = False,
) -> list[WorkUnit]:
    """Expand scenarios into the flat, deterministic work-unit list.

    With ``cells`` (the default), scenarios that expose a cell
    decomposition are expanded to one unit per ``(replicate, cell)``, in
    the scenario's own enumeration order — protocol-major for grid sweeps,
    which the pool's chunking turns into per-worker cache affinity.
    """
    units: list[WorkUnit] = []
    for scenario_id in scenario_ids:
        spec = get_scenario(scenario_id)
        config = spec.tier(tier)
        count = replicates if replicates is not None else config.replicates
        if count < 1:
            raise ConfigurationError(f"replicates must be >= 1: {count}")
        for replicate in range(count):
            whole = WorkUnit(
                scenario_id=scenario_id,
                tier=tier,
                replicate=replicate,
                root_seed=root_seed,
                n=n,
                messages=messages,
                snapshot_cache=snapshot_cache,
                trace=trace,
            )
            if cells and spec.supports_cells:
                assert spec.cells is not None
                _, context = whole.resolve()
                units.extend(
                    replace(whole, cell=key) for key in spec.cells(context)
                )
            else:
                units.append(whole)
    return units


def run_scenarios(
    scenario_ids: Sequence[str],
    tier: str,
    *,
    workers: int = 1,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    replicates: Optional[int] = None,
    cells: bool = True,
    snapshot_cache: bool = True,
    trace: bool = False,
    traces: Optional[dict[str, list]] = None,
    progress: Optional[Callable[[str], None]] = None,
    timings: Optional[SweepTimings] = None,
) -> dict[str, ScenarioRun]:
    """Run scenarios at ``tier``, sharding work units over ``workers``.

    Returns runs keyed by scenario id, replicates ordered by index —
    identical regardless of worker count, cell splitting, snapshot
    caching or completion order.

    With ``trace``, workers collect dissemination-trace segments; pass a
    dict as ``traces`` to receive, per scenario id, one
    ``{"replicate", "segments"}`` record per replicate with segments
    flattened in cell-enumeration order (the same order a monolithic run
    produces, so the collected trace is identical across the workers ×
    cells × snapshot-cache matrix).  ``BENCH_*`` artifacts are unaffected.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1: {workers}")
    started = time.perf_counter()
    units = build_units(
        scenario_ids, tier,
        root_seed=root_seed, n=n, messages=messages, replicates=replicates,
        cells=cells, snapshot_cache=snapshot_cache, trace=trace,
    )
    unit_by_key = {(u.scenario_id, u.replicate, u.cell): u for u in units}
    completed: list[UnitOutcome] = []

    def note(outcome: UnitOutcome) -> None:
        completed.append(outcome)
        if timings is not None:
            timings.record(outcome)
        if progress is not None:
            unit = unit_by_key[(outcome.scenario_id, outcome.replicate, outcome.cell)]
            progress(f"{unit.describe()} done in {outcome.elapsed:.2f}s")

    if workers == 1 or len(units) == 1:
        cache_before = _cache_stats()
        for unit in units:
            note(_execute_unit(unit))
        if timings is not None:
            timings.record_cache(_cache_delta(cache_before, _cache_stats()))
    else:
        context = multiprocessing.get_context(_start_method())
        chunks = build_chunks(units, workers)
        with context.Pool(processes=min(workers, len(chunks))) as pool:
            for outcomes, cache_delta in pool.imap_unordered(_execute_chunk, chunks):
                for outcome in outcomes:
                    note(outcome)
                if timings is not None:
                    timings.record_cache(cache_delta)
    if timings is not None:
        timings.wall_seconds += time.perf_counter() - started

    # Reassemble deterministically: completion order is scheduling noise.
    whole_results: dict[tuple[str, int], tuple[int, dict]] = {}
    cell_results: dict[tuple[str, int], dict[CellKey, dict]] = {}
    cell_seeds: dict[tuple[str, int], int] = {}
    unit_traces: dict[tuple[str, int], dict[Optional[CellKey], list]] = {}
    for outcome in completed:
        key = (outcome.scenario_id, outcome.replicate)
        if outcome.cell is None:
            whole_results[key] = (outcome.seed, outcome.result)
        else:
            cell_results.setdefault(key, {})[outcome.cell] = outcome.result
            cell_seeds[key] = outcome.seed
        if outcome.trace is not None:
            unit_traces.setdefault(key, {})[outcome.cell] = outcome.trace

    runs: dict[str, ScenarioRun] = {}
    for scenario_id in scenario_ids:
        spec = get_scenario(scenario_id)
        config = _apply_overrides(spec.tier(tier), n, messages)
        count = replicates if replicates is not None else config.replicates
        if replicates is not None:
            config = replace(config, replicates=replicates)
        records = []
        trace_records = []
        for replicate in range(count):
            key = (scenario_id, replicate)
            context = None
            if key in whole_results:
                seed, result = whole_results[key]
            else:
                assert spec.merge_cells is not None
                seed = cell_seeds[key]
                _, context = WorkUnit(
                    scenario_id=scenario_id, tier=tier, replicate=replicate,
                    root_seed=root_seed, n=n, messages=messages,
                ).resolve()
                result = spec.merge_cells(context, cell_results[key])
            records.append({"replicate": replicate, "seed": seed, "result": result})
            if traces is not None and trace:
                cell_map = unit_traces.get(key, {})
                if None in cell_map:
                    segments = list(cell_map[None])
                elif spec.cells is not None and cell_map:
                    # Flatten per-cell segments in the scenario's own cell
                    # enumeration order — the order the monolithic path
                    # produces them in — so scheduling never shows.
                    if context is None:
                        _, context = WorkUnit(
                            scenario_id=scenario_id, tier=tier, replicate=replicate,
                            root_seed=root_seed, n=n, messages=messages,
                        ).resolve()
                    segments = []
                    for cell_key in spec.cells(context):
                        segments.extend(cell_map.get(cell_key, ()))
                else:
                    segments = []
                trace_records.append({"replicate": replicate, "segments": segments})
        if traces is not None and trace:
            traces[scenario_id] = trace_records
        runs[scenario_id] = ScenarioRun(
            spec=spec,
            tier=tier,
            config=config,
            root_seed=root_seed,
            replicates=tuple(records),
        )
    return runs


def _start_method() -> str:
    """Prefer ``fork`` on Linux (cheap, and the CI platform); elsewhere
    keep the platform default — macOS lists fork as available but made
    spawn the default because forking after framework init is unsafe."""
    if sys.platform.startswith("linux"):
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


def write_artifacts(
    runs: dict[str, ScenarioRun], directory: pathlib.Path | str
) -> list[pathlib.Path]:
    """Persist every run as ``BENCH_<scenario>.json`` under ``directory``."""
    return [write_artifact(directory, run.artifact()) for run in runs.values()]


def write_timings_artifacts(
    timings: SweepTimings,
    directory: pathlib.Path | str,
    *,
    tier: str,
    workers: int,
) -> list[pathlib.Path]:
    """Persist per-scenario ``TIMINGS_<scenario>.json`` under ``directory``.

    Kept strictly apart from :func:`write_artifacts`: BENCH files must be
    byte-stable across runs, TIMINGS files never are.
    """
    return [
        write_timings_file(
            directory, timings.timings_artifact(scenario_id, tier=tier, workers=workers)
        )
        for scenario_id in sorted(timings.scenario_units)
    ]


def write_trace_artifacts(
    traces: dict[str, list],
    directory: pathlib.Path | str,
    *,
    tier: str,
    root_seed: int,
) -> list[pathlib.Path]:
    """Persist ``TRACE_*`` and trace-derived ``METRICS_*`` files.

    Both families are deterministic (pure functions of the seed, like
    ``BENCH_*``) but live strictly apart so tracing can never perturb a
    benchmark artifact byte.
    """
    paths: list[pathlib.Path] = []
    for scenario_id in sorted(traces):
        replicates = traces[scenario_id]
        paths.append(
            write_trace_file(
                directory,
                trace_artifact(
                    scenario_id, tier=tier, root_seed=root_seed, replicates=replicates
                ),
            )
        )
        metric_rows = []
        for entry in replicates:
            view = DisseminationTrace(entry["segments"])
            metric_rows.append(
                {
                    "replicate": entry["replicate"],
                    "segments": view.segment_count,
                    "records": view.record_count,
                    "dropped_records": view.dropped_records,
                    "messages": len(view.message_keys()),
                    "counters": view.kind_counts(),
                }
            )
        paths.append(
            write_metrics_file(
                directory,
                metrics_artifact(
                    scenario_id, tier=tier, root_seed=root_seed, replicates=metric_rows
                ),
            )
        )
    return paths


def run_and_report(
    scenario_ids: Sequence[str],
    tier: str,
    *,
    workers: int = 1,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    replicates: Optional[int] = None,
    cells: bool = True,
    snapshot_cache: bool = True,
    trace: bool = False,
    trace_dir: Optional[pathlib.Path | str] = None,
    out_dir: Optional[pathlib.Path | str] = None,
    timings_dir: Optional[pathlib.Path | str] = None,
    check: bool = False,
    stream=None,
) -> dict[str, ScenarioRun]:
    """The CLI's whole job: run, render, optionally check and persist.

    Timing (per unit, per scenario, total) is reported to ``stream``
    (default stderr) and — when ``timings_dir`` (default: ``out_dir``) is
    set — persisted as ``TIMINGS_<scenario>.json`` for CI trending.  It
    never enters the ``BENCH_*`` artifacts, which must stay deterministic.

    With ``trace``, dissemination traces are collected and written as
    ``TRACE_*``/``METRICS_*`` files to ``trace_dir`` (default:
    ``out_dir``); a stderr summary surfaces record and drop counts so
    silent trace truncation is visible.
    """
    stream = stream if stream is not None else sys.stderr
    timings = SweepTimings()
    traces: Optional[dict[str, list]] = {} if trace else None
    runs = run_scenarios(
        scenario_ids, tier,
        workers=workers, root_seed=root_seed,
        n=n, messages=messages, replicates=replicates,
        cells=cells, snapshot_cache=snapshot_cache,
        trace=trace, traces=traces,
        progress=lambda note: print(f"  [{tier}] {note}", file=stream),
        timings=timings,
    )
    print(
        f"ran {len(scenario_ids)} scenario(s) at tier {tier!r} with "
        f"{workers} worker(s) in {timings.wall_seconds:.1f}s",
        file=stream,
    )
    print(
        format_timings(
            timings.scenario_seconds, timings.scenario_units, timings.scenario_events
        ),
        file=stream,
    )
    print(timings.format_cache(), file=stream)
    if traces is not None:
        for scenario_id in sorted(traces):
            views = [
                DisseminationTrace(entry["segments"]) for entry in traces[scenario_id]
            ]
            records = sum(view.record_count for view in views)
            dropped = sum(view.dropped_records for view in views)
            segments = sum(view.segment_count for view in views)
            print(
                f"trace [{scenario_id}]: {segments} segment(s), "
                f"{records} record(s), {dropped} dropped",
                file=stream,
            )
    if out_dir is not None:
        for path in write_artifacts(runs, out_dir):
            print(f"  wrote {path}", file=stream)
    if traces is not None:
        trace_target = trace_dir if trace_dir is not None else out_dir
        if trace_target is not None:
            for path in write_trace_artifacts(
                traces, trace_target, tier=tier, root_seed=root_seed
            ):
                print(f"  wrote {path}", file=stream)
    if timings_dir is None:
        timings_dir = out_dir
    if timings_dir is not None:
        for path in write_timings_artifacts(
            timings, timings_dir, tier=tier, workers=workers
        ):
            print(f"  wrote {path}", file=stream)
    if check:
        for run in runs.values():
            run.check()
    return runs


def profile_unit(
    scenario_id: str,
    tier: str,
    *,
    root_seed: int = DEFAULT_ROOT_SEED,
    n: Optional[int] = None,
    messages: Optional[int] = None,
    unit_index: int = 0,
    top: int = 20,
    stream=None,
) -> None:
    """Run one work unit under ``cProfile`` and print the top entries.

    ``repro bench --profile``'s backend: profiles the first cell (or the
    whole replicate for monolithic scenarios) of ``scenario_id`` at
    ``tier`` scale, in-process, and prints the ``top`` functions by
    cumulative time to ``stream`` (default stdout).
    """
    import cProfile
    import pstats

    stream = stream if stream is not None else sys.stdout
    units = build_units(
        [scenario_id], tier, root_seed=root_seed, n=n, messages=messages,
        replicates=1,
    )
    if not 0 <= unit_index < len(units):
        raise ConfigurationError(
            f"unit index {unit_index} out of range: {scenario_id!r} at tier "
            f"{tier!r} has {len(units)} unit(s)"
        )
    unit = units[unit_index]
    print(f"profiling {unit.describe()} at tier {tier!r} ...", file=stream)
    profiler = cProfile.Profile()
    profiler.enable()
    outcome = _execute_unit(unit)
    profiler.disable()
    print(f"unit finished in {outcome.elapsed:.2f}s; top {top} by cumulative time:",
          file=stream)
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
