"""Tiered scenario registry — every experiment of the evaluation, by id.

One :class:`ScenarioSpec` per table/figure/ablation unifies what used to be
scattered across ``benchmarks/bench_*.py`` and the driver modules in this
package.  A spec names the experiment, configures it per **tier** and binds
three functions:

* ``run(ctx)``   — execute one replicate, return a JSON-safe dict;
* ``render(result, n)`` — the plain-text report the paper-style harness
  prints (tables, series, histograms);
* ``check(result, n)``  — shape assertions.  Sanity invariants always run;
  the paper's qualitative shapes (protocol orderings, thresholds) only
  assert at bench scale (``n >= SHAPE_CHECK_MIN_N``) where they hold.

Tiers:

* ``smoke`` — minutes on two CI cores; tiny systems, thinned sweeps.  CI
  runs this on every push, so the benchmark trajectory is recorded from
  the first green commit.
* ``paper`` — the DSN'07 configuration (10 000 nodes, Section 5.1 view
  sizes, full grids).  Hours of CPU; reproduces Figures 1–5 and Table 1.
* ``full``  — a laptop-scale sweep (1 000 nodes) with several replicates
  per scenario, for trend tracking with error bars.

Adding a scenario is one :func:`register` call; the orchestrator
(:mod:`repro.experiments.runner`), the ``repro bench`` CLI and the
benchmark harness all pick it up from :data:`REGISTRY`.

**Cells.**  Grid scenarios (protocol x failure-fraction sweeps, fanout
sweeps, per-protocol collections) additionally expose their inner grid as
independent **cells** via three optional hooks — ``cells`` (enumerate the
grid), ``run_cell`` (execute one cell) and ``merge_cells`` (assemble the
replicate result) — so the orchestrator can shard a single replicate's
grid across worker processes.  A cell's result depends only on
``(scenario, tier config, replicate seed, cell key)``, never on which
worker runs it or which cells ran before, and ``merge_cells`` reproduces
*exactly* the dict the monolithic ``run`` returns; artifacts are therefore
byte-identical whether a replicate ran whole, cell-by-cell in one process,
or sharded over many.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from ..common.errors import ConfigurationError
from .ablations import (
    RESEND_VARIANTS,
    default_passive_sizes,
    measure_passive_size_point,
    measure_plumtree_point,
    measure_resend_point,
    measure_shuffle_ttl_point,
    passive_size_params,
    shuffle_ttl_params,
)
from .churn import run_churn_experiment
from .failures import (
    FIGURE2_FRACTIONS,
    FIGURE3_FRACTIONS,
    PAPER_PROTOCOLS,
    measure_failure,
    stabilized_scenario,
)
from .fanout import FIGURE1_FANOUTS, hyparview_reference_point, measure_fanout_point
from .graphprops import TABLE1_PROTOCOLS, run_graph_properties
from .healing import FIGURE4_FRACTIONS, FIGURE4_PROTOCOLS, measure_healing
from .overhead import run_overhead_experiment
from .params import ExperimentParams
from .reporting import (
    format_histogram,
    format_series,
    format_table,
    json_safe,
    sparkline,
)
from .scenario import Scenario
from .snapshots import SnapshotCache

#: A cell's identity inside one replicate: a flat tuple of primitives
#: (protocol names, fractions, fanouts ...) — picklable, hashable, and
#: stable across processes.
CellKey = tuple

#: The orchestrator's tiers, cheapest first.
TIER_NAMES = ("smoke", "paper", "full")

#: Below this system size the paper's qualitative shapes are too noisy to
#: assert on; ``check`` functions fall back to sanity invariants only.
SHAPE_CHECK_MIN_N = 400


@dataclass(frozen=True, slots=True)
class TierConfig:
    """How one scenario runs at one tier."""

    n: int
    messages: int = 50
    replicates: int = 1
    stabilization_cycles: int = 50
    paper_params: bool = False
    #: scenario-specific knobs (sweep grids, step counts, ...).
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"system size must be >= 2: {self.n}")
        if self.messages < 1:
            raise ConfigurationError(f"messages must be >= 1: {self.messages}")
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1: {self.replicates}")

    def option(self, key: str, default: object) -> object:
        return self.extra.get(key, default)


@dataclass(frozen=True, slots=True)
class RunContext:
    """Everything one replicate needs: identity, tier config and its seed.

    The seed is derived by the orchestrator from
    ``SeedSequence(root_seed).derive_seed("bench/<scenario>/replicate/<i>")``
    so it depends only on ``(root_seed, scenario_id, replicate)`` — never on
    which worker process executes the replicate.
    """

    scenario_id: str
    tier: str
    config: TierConfig
    replicate: int
    seed: int
    #: per-worker cache of frozen stabilised bases; ``None`` disables
    #: caching (every base is rebuilt from scratch).  Never part of the
    #: replicate's identity — results are independent of cache occupancy.
    snapshots: Optional[SnapshotCache] = None

    def params(self) -> ExperimentParams:
        if self.config.paper_params:
            return ExperimentParams.paper(n=self.config.n, seed=self.seed)
        return ExperimentParams.scaled(
            self.config.n,
            seed=self.seed,
            stabilization_cycles=self.config.stabilization_cycles,
        )

    def option(self, key: str, default: object) -> object:
        return self.config.option(key, default)

    def ensure_snapshots(self) -> "RunContext":
        """This context, guaranteed to carry a snapshot cache.

        Monolithic runs (no orchestrator attached) get a private transient
        cache so a grid still stabilises each protocol once, not once per
        cell.
        """
        if self.snapshots is not None:
            return self
        return replace(self, snapshots=SnapshotCache())

    def frozen_base(
        self, protocol: str, params: Optional[ExperimentParams] = None
    ) -> bytes:
        """The frozen stabilised base overlay for ``protocol``.

        Served from the snapshot cache when one is attached; always the
        same bytes for the same ``(protocol, params)``.  ``params``
        overrides the tier-derived defaults — ablation cells use this to
        stabilise per-point configurations (e.g. a swept passive-view
        capacity) through the same cache.
        """
        if params is None:
            params = self.params()
        if self.snapshots is None:
            return stabilized_scenario(protocol, params).freeze()
        return self.snapshots.frozen(protocol, params)

    def stabilized(
        self, protocol: str, params: Optional[ExperimentParams] = None
    ) -> Scenario:
        """A private, ready-to-mutate stabilised scenario for ``protocol``.

        Every checkout — cached or not — passes through exactly one
        freeze/thaw round trip since stabilisation, so measured results
        never depend on where the base came from.
        """
        return Scenario.thaw(self.frozen_base(protocol, params))


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One registered experiment."""

    id: str
    group: str
    title: str
    description: str
    tiers: Mapping[str, TierConfig]
    run: Callable[[RunContext], dict]
    render: Callable[[dict, int], str]
    check: Optional[Callable[[dict, int], None]] = None
    #: Optional cell decomposition (see the module docstring): enumerate
    #: one replicate's independent grid cells, execute one, and merge the
    #: per-cell results back into exactly what ``run`` would have returned.
    cells: Optional[Callable[[RunContext], tuple[CellKey, ...]]] = None
    run_cell: Optional[Callable[[RunContext, CellKey], dict]] = None
    merge_cells: Optional[Callable[[RunContext, Mapping[CellKey, dict]], dict]] = None
    #: Maps a cell key to the identity of the stabilised base it reuses
    #: (orchestrator scheduling hint; default: the key's first component).
    cell_affinity: Optional[Callable[[CellKey], object]] = None

    @property
    def supports_cells(self) -> bool:
        return self.cells is not None

    def tier(self, name: str) -> TierConfig:
        if name not in self.tiers:
            raise ConfigurationError(
                f"scenario {self.id!r} has no {name!r} tier; available: "
                f"{sorted(self.tiers)}"
            )
        return self.tiers[name]


REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.id in REGISTRY:
        raise ConfigurationError(f"duplicate scenario id: {spec.id}")
    unknown = set(spec.tiers) - set(TIER_NAMES)
    if unknown:
        raise ConfigurationError(f"unknown tiers on {spec.id!r}: {sorted(unknown)}")
    hooks = (spec.cells, spec.run_cell, spec.merge_cells)
    if any(hook is not None for hook in hooks) and None in hooks:
        raise ConfigurationError(
            f"scenario {spec.id!r} must define cells, run_cell and "
            f"merge_cells together (or none of them)"
        )
    REGISTRY[spec.id] = spec
    return spec


def celled_run(
    cells: Callable[[RunContext], tuple[CellKey, ...]],
    run_cell: Callable[[RunContext, CellKey], dict],
    merge_cells: Callable[[RunContext, Mapping[CellKey, dict]], dict],
) -> Callable[[RunContext], dict]:
    """A monolithic ``run`` derived from a cell decomposition.

    Executes every cell in enumeration order in-process and merges — the
    single-process reference semantics the sharded orchestrator must (and
    is tested to) reproduce byte-for-byte.  A transient snapshot cache is
    attached so grids still stabilise each base once per run, not once per
    cell, even outside the orchestrator.
    """

    def run(ctx: RunContext) -> dict:
        ctx = ctx.ensure_snapshots()
        return merge_cells(ctx, {key: run_cell(ctx, key) for key in cells(ctx)})

    return run


def get_scenario(scenario_id: str) -> ScenarioSpec:
    try:
        return REGISTRY[scenario_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {scenario_id!r}; run `repro bench --list` "
            f"(available: {', '.join(sorted(REGISTRY))})"
        ) from None


def scenario_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def _tiers(
    smoke: TierConfig, paper: TierConfig, full: Optional[TierConfig] = None
) -> dict[str, TierConfig]:
    if full is None:
        full = replace(paper, n=1_000, paper_params=False, replicates=3)
    return {"smoke": smoke, "paper": paper, "full": full}


def _cell_hooks(cells, run_cell, merge_cells) -> dict:
    """The four ScenarioSpec fields a cell decomposition defines at once."""
    return {
        "run": celled_run(cells, run_cell, merge_cells),
        "cells": cells,
        "run_cell": run_cell,
        "merge_cells": merge_cells,
    }


# ----------------------------------------------------------------------
# Figure 1a/1b — fanout vs reliability (+ the HyParView reference point)
# ----------------------------------------------------------------------
def _fanout_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    fanouts = tuple(ctx.option("fanouts", FIGURE1_FANOUTS))  # type: ignore[arg-type]
    return tuple((int(fanout),) for fanout in fanouts)


def _run_fanout_cell(ctx: RunContext, protocol: str, key: CellKey) -> dict:
    point = measure_fanout_point(ctx.stabilized(protocol), int(key[0]), ctx.config.messages)
    return json_safe(point)  # type: ignore[return-value]


def _merge_fanout(ctx: RunContext, protocol: str, cells: Mapping[CellKey, dict]) -> dict:
    fanouts = tuple(ctx.option("fanouts", FIGURE1_FANOUTS))  # type: ignore[arg-type]
    return {"protocol": protocol, "points": [cells[(int(f),)] for f in fanouts]}


def _render_fanout(result: dict, n: int) -> str:
    protocol = result["protocol"]
    rows = [
        [p["fanout"], p["average_reliability"], p["min_reliability"], p["atomic_fraction"]]
        for p in result["points"]
    ]
    return format_table(
        ["fanout", "avg reliability", "min reliability", "atomic fraction"],
        rows,
        title=f"Figure 1 — {protocol} fanout sweep (n={n})",
    )


def _check_fanout(result: dict, n: int, *, threshold: float) -> None:
    by_fanout = {p["fanout"]: p["average_reliability"] for p in result["points"]}
    for value in by_fanout.values():
        assert 0.0 <= value <= 1.0
    if n < SHAPE_CHECK_MIN_N or {1, 4, 6} - set(by_fanout):
        return
    # Paper shape: reliability grows with fanout and is high by fanout ~6.
    assert by_fanout[1] < by_fanout[4]
    assert by_fanout[6] > threshold


register(
    ScenarioSpec(
        id="fig1a_cyclon_fanout",
        group="figure1",
        title="Figure 1a — Cyclon fanout sweep",
        description="Reliability vs gossip fanout for Cyclon (no failures).",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15,
                             extra={"fanouts": (1, 4, 6)}),
            paper=TierConfig(n=10_000, messages=50, paper_params=True),
        ),
        render=_render_fanout,
        check=lambda result, n: _check_fanout(result, n, threshold=0.99),
        # Every fanout cell floods the same stabilised Cyclon base.
        cell_affinity=lambda key: "base",
        **_cell_hooks(
            _fanout_cells,
            lambda ctx, key: _run_fanout_cell(ctx, "cyclon", key),
            lambda ctx, cells: _merge_fanout(ctx, "cyclon", cells),
        ),
    )
)

register(
    ScenarioSpec(
        id="fig1b_scamp_fanout",
        group="figure1",
        title="Figure 1b — Scamp fanout sweep",
        description="Reliability vs gossip fanout for Scamp (no failures).",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15,
                             extra={"fanouts": (1, 4, 6)}),
            paper=TierConfig(n=10_000, messages=50, paper_params=True),
        ),
        render=_render_fanout,
        check=lambda result, n: _check_fanout(result, n, threshold=0.95),
        # Every fanout cell floods the same stabilised Scamp base.
        cell_affinity=lambda key: "base",
        **_cell_hooks(
            _fanout_cells,
            lambda ctx, key: _run_fanout_cell(ctx, "scamp", key),
            lambda ctx, cells: _merge_fanout(ctx, "scamp", cells),
        ),
    )
)


def _run_hyparview_reference(ctx: RunContext) -> dict:
    point = hyparview_reference_point(ctx.params(), messages=ctx.config.messages)
    return {"point": json_safe(point)}


def _render_hyparview_reference(result: dict, n: int) -> str:
    p = result["point"]
    return format_table(
        ["protocol", "fanout", "avg reliability", "atomic fraction"],
        [[p["protocol"], p["fanout"], p["average_reliability"], p["atomic_fraction"]]],
        title=f"Figure 1 reference — HyParView flood on a stable overlay (n={n})",
    )


def _check_hyparview_reference(result: dict, n: int) -> None:
    # The paper's headline holds at any scale: deterministic flooding of a
    # stable, connected overlay is atomic.
    assert result["point"]["average_reliability"] == 1.0
    assert result["point"]["atomic_fraction"] == 1.0


register(
    ScenarioSpec(
        id="fig1_hyparview_reference",
        group="figure1",
        title="Figure 1 — HyParView reference point",
        description="HyParView's flood delivers atomically on a stable overlay.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15),
            paper=TierConfig(n=10_000, messages=50, paper_params=True),
        ),
        run=_run_hyparview_reference,
        render=_render_hyparview_reference,
        check=_check_hyparview_reference,
    )
)


# ----------------------------------------------------------------------
# Figure 1c — baselines after 50% failures
# ----------------------------------------------------------------------
_FIG1C_PROTOCOLS = ("cyclon", "scamp")


def _fig1c_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    protocols = tuple(ctx.option("protocols", _FIG1C_PROTOCOLS))  # type: ignore[arg-type]
    return tuple((protocol,) for protocol in protocols)


def _run_fig1c_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = str(key[0])
    result = measure_failure(ctx.stabilized(protocol), 0.5, ctx.config.messages)
    return json_safe(result)  # type: ignore[return-value]


def _merge_fig1c(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    protocols = tuple(ctx.option("protocols", _FIG1C_PROTOCOLS))  # type: ignore[arg-type]
    return {protocol: cells[(protocol,)] for protocol in protocols}


def _render_fig1c(result: dict, n: int) -> str:
    blocks = [
        format_table(
            ["protocol", "avg reliability", "max msg reliability", "atomic fraction"],
            [
                [r["protocol"], r["average"], max(r["series"]), r["atomic"]]
                for r in result.values()
            ],
            title=f"Figure 1c — messages after 50% failures (n={n})",
        )
    ]
    for r in result.values():
        blocks.append(f"\n{r['protocol']} series:  {sparkline(r['series'])}")
        blocks.append(format_series(r["series"]))
    return "\n".join(blocks)


def _check_fig1c(result: dict, n: int) -> None:
    for r in result.values():
        assert 0.0 <= r["average"] <= 1.0
    if n < SHAPE_CHECK_MIN_N:
        return
    # Paper shape: reliability is lost — neither baseline approaches 1.0.
    for r in result.values():
        assert max(r["series"]) < 0.999
        assert r["atomic"] == 0.0
        assert min(r["series"]) < 0.5


register(
    ScenarioSpec(
        id="fig1c_failure50",
        group="figure1",
        title="Figure 1c — baselines after 50% failures",
        description="Per-message reliability of Cyclon/Scamp right after a "
        "50% simultaneous crash, without membership cycles.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=10, stabilization_cycles=15),
            paper=TierConfig(n=10_000, messages=100, paper_params=True),
        ),
        render=_render_fig1c,
        check=_check_fig1c,
        **_cell_hooks(_fig1c_cells, _run_fig1c_cell, _merge_fig1c),
    )
)


# ----------------------------------------------------------------------
# Figure 2 — average reliability vs failure percentage (the headline)
# ----------------------------------------------------------------------
def _failure_grid(ctx: RunContext, default_fractions) -> tuple[tuple[str, ...], tuple[float, ...]]:
    protocols = tuple(ctx.option("protocols", PAPER_PROTOCOLS))  # type: ignore[arg-type]
    fractions = tuple(ctx.option("fractions", default_fractions))  # type: ignore[arg-type]
    return protocols, fractions


def _failure_grid_cells(ctx: RunContext, default_fractions) -> tuple[CellKey, ...]:
    protocols, fractions = _failure_grid(ctx, default_fractions)
    return tuple(
        (protocol, float(fraction)) for protocol in protocols for fraction in fractions
    )


def _run_failure_grid_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol, fraction = str(key[0]), float(key[1])
    result = measure_failure(ctx.stabilized(protocol), fraction, ctx.config.messages)
    return json_safe(result)  # type: ignore[return-value]


def _merge_failure_grid(
    ctx: RunContext, cells: Mapping[CellKey, dict], default_fractions
) -> dict:
    protocols, fractions = _failure_grid(ctx, default_fractions)
    return {
        "protocols": list(protocols),
        "fractions": list(fractions),
        "cells": {
            protocol: {
                f"{fraction:.2f}": cells[(protocol, float(fraction))]
                for fraction in fractions
            }
            for protocol in protocols
        },
    }


def _render_fig2(result: dict, n: int) -> str:
    protocols = result["protocols"]
    rows = []
    for fraction in result["fractions"]:
        key = f"{fraction:.2f}"
        rows.append(
            [f"{fraction:.0%}"]
            + [result["cells"][protocol][key]["average"] for protocol in protocols]
        )
    return format_table(
        ["failure %"] + list(protocols),
        rows,
        title=f"Figure 2 — avg reliability vs failure % (n={n})",
    )


def _check_fig2(result: dict, n: int) -> None:
    def get(protocol: str, fraction: float) -> float:
        return result["cells"][protocol][f"{fraction:.2f}"]["average"]

    for protocol in result["protocols"]:
        for fraction in result["fractions"]:
            assert 0.0 <= get(protocol, fraction) <= 1.0
    fractions = set(result["fractions"])
    if n < SHAPE_CHECK_MIN_N or not {0.5, 0.7, 0.8, 0.9}.issubset(fractions):
        return
    # Paper shape 1: HyParView is essentially unaffected below 90%.
    for fraction in (0.5, 0.7, 0.8):
        assert get("hyparview", fraction) > 0.95
    assert get("hyparview", 0.9) > 0.8
    # Paper shape 2: protocol ordering after heavy failures.
    assert get("hyparview", 0.7) >= get("cyclon-acked", 0.7) - 0.02
    assert get("cyclon-acked", 0.7) > get("cyclon", 0.7)
    # Paper shape 3: baselines collapse above 50% while HyParView holds.
    assert get("cyclon", 0.7) < 0.5
    assert get("scamp", 0.7) < 0.5
    assert get("hyparview", 0.8) - get("cyclon-acked", 0.8) > 0.2


register(
    ScenarioSpec(
        id="fig2_reliability",
        group="figure2",
        title="Figure 2 — reliability vs failure percentage",
        description="Average reliability of a message batch sent right "
        "after simultaneous crashes, for every protocol and failure level.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15,
                             extra={"fractions": (0.3, 0.7)}),
            paper=TierConfig(n=10_000, messages=1_000, paper_params=True),
        ),
        render=_render_fig2,
        check=_check_fig2,
        **_cell_hooks(
            lambda ctx: _failure_grid_cells(ctx, FIGURE2_FRACTIONS),
            _run_failure_grid_cell,
            lambda ctx, cells: _merge_failure_grid(ctx, cells, FIGURE2_FRACTIONS),
        ),
    )
)


# ----------------------------------------------------------------------
# Figure 3 — per-message recovery curves
# ----------------------------------------------------------------------
def _render_fig3(result: dict, n: int) -> str:
    blocks = [f"Figure 3 — reliability per message after failures (n={n})"]
    for fraction in result["fractions"]:
        key = f"{fraction:.2f}"
        blocks.append(f"\n--- panel: {fraction:.0%} failures ---")
        for protocol in result["protocols"]:
            r = result["cells"][protocol][key]
            blocks.append(
                f"{protocol:13s} avg={r['average']:.3f}  {sparkline(r['series'])}"
            )
    return "\n".join(blocks)


def _check_fig3(result: dict, n: int) -> None:
    for protocol in result["protocols"]:
        for cell in result["cells"][protocol].values():
            assert len(cell["series"]) == cell["messages"]
    if n < SHAPE_CHECK_MIN_N:
        return

    def tail(cell: dict, k: int = 10) -> float:
        window = cell["series"][-k:]
        return sum(window) / len(window) if window else 0.0

    for fraction in (0.6, 0.7, 0.8):
        if f"{fraction:.2f}" in result["cells"]["hyparview"]:
            # Paper shape: HyParView's healed tail is ~100% for panels <= 80%.
            assert tail(result["cells"]["hyparview"][f"{fraction:.2f}"]) > 0.95
    if "0.60" in result["cells"].get("cyclon", {}):
        # Plain Cyclon does not recover within the batch at 60%+.
        assert tail(result["cells"]["cyclon"]["0.60"]) < 0.9


register(
    ScenarioSpec(
        id="fig3_recovery",
        group="figure3",
        title="Figure 3 — post-failure recovery curves",
        description="Per-message reliability evolution after massive "
        "failures; HyParView recovers within a handful of broadcasts.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=10, stabilization_cycles=15,
                             extra={"fractions": (0.4, 0.7)}),
            paper=TierConfig(n=10_000, messages=1_000, paper_params=True),
        ),
        render=_render_fig3,
        check=_check_fig3,
        **_cell_hooks(
            lambda ctx: _failure_grid_cells(ctx, FIGURE3_FRACTIONS),
            _run_failure_grid_cell,
            lambda ctx, cells: _merge_failure_grid(ctx, cells, FIGURE3_FRACTIONS),
        ),
    )
)


# ----------------------------------------------------------------------
# Figure 4 — healing time in membership cycles
# ----------------------------------------------------------------------
def _fig4_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    protocols = tuple(ctx.option("protocols", FIGURE4_PROTOCOLS))  # type: ignore[arg-type]
    fractions = tuple(ctx.option("fractions", FIGURE4_FRACTIONS))  # type: ignore[arg-type]
    return tuple(
        (protocol, float(fraction)) for protocol in protocols for fraction in fractions
    )


def _run_fig4_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol, fraction = str(key[0]), float(key[1])
    params = ctx.params()
    max_cycles = int(ctx.option("max_cycles", 30))  # type: ignore[arg-type]
    # At laptop scale a couple of orphaned survivors would dominate
    # a strict tolerance; allow two stragglers (see bench history).
    survivors = max(1, round(params.n * (1 - fraction)))
    tolerance = max(0.01, 2.0 / survivors)
    result = measure_healing(
        ctx.stabilized(protocol), fraction, max_cycles=max_cycles, tolerance=tolerance
    )
    return json_safe(result)  # type: ignore[return-value]


def _merge_fig4(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    protocols = tuple(ctx.option("protocols", FIGURE4_PROTOCOLS))  # type: ignore[arg-type]
    fractions = tuple(ctx.option("fractions", FIGURE4_FRACTIONS))  # type: ignore[arg-type]
    return {
        "protocols": list(protocols),
        "fractions": list(fractions),
        "max_cycles": int(ctx.option("max_cycles", 30)),  # type: ignore[arg-type]
        "cells": {
            protocol: {
                f"{fraction:.2f}": cells[(protocol, float(fraction))]
                for fraction in fractions
            }
            for protocol in protocols
        },
    }


def _render_fig4(result: dict, n: int) -> str:
    rows = []
    for fraction in result["fractions"]:
        key = f"{fraction:.2f}"
        row = [f"{fraction:.0%}"]
        for protocol in result["protocols"]:
            healed = result["cells"][protocol][key]["cycles_to_heal"]
            row.append(str(healed) if healed is not None else f">{result['max_cycles']}")
        rows.append(row)
    return format_table(
        ["failure %"] + [f"{p} (cycles)" for p in result["protocols"]],
        rows,
        title=f"Figure 4 — healing time in membership cycles (n={n})",
    )


def _check_fig4(result: dict, n: int) -> None:
    for protocol in result["protocols"]:
        for cell in result["cells"][protocol].values():
            healed = cell["cycles_to_heal"]
            assert healed is None or 1 <= healed <= result["max_cycles"]
    if n < SHAPE_CHECK_MIN_N:
        return
    # Paper shape: HyParView heals, and in only a few cycles, below 80%
    # failures — never healing (None) is the regression to catch.
    for fraction, cell in result["cells"]["hyparview"].items():
        if float(fraction) <= 0.8:
            healed = cell["cycles_to_heal"]
            assert healed is not None and healed <= 5


register(
    ScenarioSpec(
        id="fig4_healing",
        group="figure4",
        title="Figure 4 — healing time",
        description="Membership cycles until reliability returns to the "
        "protocol's own pre-failure baseline.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15,
                             extra={"fractions": (0.3, 0.6), "max_cycles": 10}),
            paper=TierConfig(n=10_000, messages=10, paper_params=True),
        ),
        render=_render_fig4,
        check=_check_fig4,
        **_cell_hooks(_fig4_cells, _run_fig4_cell, _merge_fig4),
    )
)


# ----------------------------------------------------------------------
# Figure 5 / Table 1 — overlay graph properties
# ----------------------------------------------------------------------
def _graphprops_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    protocols = tuple(ctx.option("protocols", TABLE1_PROTOCOLS))  # type: ignore[arg-type]
    return tuple((protocol,) for protocol in protocols)


def _run_graphprops_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = str(key[0])
    sources = ctx.option("path_sample_sources", 100)
    result = run_graph_properties(
        protocol, ctx.params(),
        messages=ctx.config.messages,
        path_sample_sources=None if sources is None else int(sources),  # type: ignore[arg-type]
    )
    return json_safe(result)  # type: ignore[return-value]


def _merge_graphprops(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    protocols = tuple(ctx.option("protocols", TABLE1_PROTOCOLS))  # type: ignore[arg-type]
    return {
        # The symmetric-view bound checks need the configured capacity.
        "active_view_capacity": ctx.params().hyparview.active_view_capacity,
        "protocols": {protocol: cells[(protocol,)] for protocol in protocols},
    }


_GRAPHPROPS_HOOKS = _cell_hooks(_graphprops_cells, _run_graphprops_cell, _merge_graphprops)


def _render_fig5(result: dict, n: int) -> str:
    blocks = [f"Figure 5 — in-degree distribution after stabilisation (n={n})"]
    for protocol, r in result["protocols"].items():
        histogram = {int(k): v for k, v in r["in_degree_histogram"].items()}
        blocks.append("")
        blocks.append(format_histogram(histogram, title=f"{protocol}:"))
    return "\n".join(blocks)


def _check_fig5(result: dict, n: int) -> None:
    for r in result["protocols"].values():
        assert sum(r["in_degree_histogram"].values()) <= n
    hv = result["protocols"].get("hyparview")
    if hv is None:
        return
    # Symmetric active views bound the in-degree at any scale.
    capacity = result["active_view_capacity"]
    hv_histogram = {int(k): v for k, v in hv["in_degree_histogram"].items()}
    assert max(hv_histogram, default=0) <= capacity
    if n < SHAPE_CHECK_MIN_N:
        return
    # Paper shape: HyParView concentrates at the active-view size while
    # the baselines spread in-degrees far wider.
    assert hv_histogram.get(capacity, 0) / n > 0.75
    cy = result["protocols"].get("cyclon")
    sc = result["protocols"].get("scamp")
    if cy and sc:
        assert cy["in_degree_stats"]["stddev"] > 3 * hv["in_degree_stats"]["stddev"]
        assert sc["in_degree_stats"]["stddev"] > 3 * hv["in_degree_stats"]["stddev"]


register(
    ScenarioSpec(
        id="fig5_indegree",
        group="figure5",
        title="Figure 5 — in-degree distribution",
        description="In-degree histograms of the stabilised overlays; "
        "HyParView concentrates at the active-view size.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=3, stabilization_cycles=15,
                             extra={"path_sample_sources": 20}),
            paper=TierConfig(n=10_000, messages=5, paper_params=True),
        ),
        render=_render_fig5,
        check=_check_fig5,
        **_GRAPHPROPS_HOOKS,
    )
)


def _render_table1(result: dict, n: int) -> str:
    rows = [
        [
            protocol,
            f"{r['average_clustering']:.6f}",
            f"{r['path_stats']['average']:.5f}",
            f"{r['max_hops_to_delivery']:.1f}",
        ]
        for protocol, r in result["protocols"].items()
    ]
    return format_table(
        ["protocol", "avg clustering", "avg shortest path", "max hops"],
        rows,
        title=f"Table 1 — graph properties after stabilisation (n={n})",
    )


def _check_table1(result: dict, n: int) -> None:
    protocols = result["protocols"]
    for r in protocols.values():
        assert 0.0 <= r["average_clustering"] <= 1.0
        assert r["connected"] in (True, False)
    hv = protocols.get("hyparview")
    if hv is not None:
        # The symmetric active view holds at any scale.
        assert hv["symmetry_fraction"] == 1.0
    if n < SHAPE_CHECK_MIN_N or hv is None:
        return
    for protocol in ("cyclon", "scamp"):
        if protocol in protocols:
            baseline = protocols[protocol]
            # Paper shapes: HyParView's clustering is far below the
            # baselines', its shortest path is the longest (tiny active
            # view) yet its delivery hop count is the smallest.
            assert hv["average_clustering"] < baseline["average_clustering"]
            assert hv["path_stats"]["average"] > baseline["path_stats"]["average"]
            assert hv["max_hops_to_delivery"] < baseline["max_hops_to_delivery"]


register(
    ScenarioSpec(
        id="table1_graph",
        group="table1",
        title="Table 1 — overlay graph properties",
        description="Clustering coefficient, shortest path and delivery "
        "hop count of the stabilised overlays.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=3, stabilization_cycles=15,
                             extra={"path_sample_sources": 20}),
            paper=TierConfig(n=10_000, messages=50, paper_params=True),
        ),
        render=_render_table1,
        check=_check_table1,
        **_GRAPHPROPS_HOOKS,
    )
)


# ----------------------------------------------------------------------
# Extensions — overhead accounting and continuous churn
# ----------------------------------------------------------------------
_OVERHEAD_PROTOCOLS = ("hyparview", "plumtree", "cyclon", "cyclon-acked", "scamp")


def _overhead_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    protocols = tuple(ctx.option("protocols", _OVERHEAD_PROTOCOLS))  # type: ignore[arg-type]
    return tuple((protocol,) for protocol in protocols)


def _run_overhead_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = str(key[0])
    cycles = int(ctx.option("cycles", 10))  # type: ignore[arg-type]
    result = run_overhead_experiment(
        protocol, ctx.params(), cycles=cycles, messages=ctx.config.messages
    )
    return json_safe(result)  # type: ignore[return-value]


def _merge_overhead(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    protocols = tuple(ctx.option("protocols", _OVERHEAD_PROTOCOLS))  # type: ignore[arg-type]
    return {protocol: cells[(protocol,)] for protocol in protocols}


def _render_overhead(result: dict, n: int) -> str:
    rows = [
        [
            protocol,
            r["control_per_node_cycle"],
            r["data_per_broadcast"],
            r["broadcast_control_per_broadcast"],
        ]
        for protocol, r in result.items()
    ]
    return format_table(
        ["protocol", "control msgs/node/cycle", "data msgs/broadcast",
         "control msgs/broadcast"],
        rows,
        title=f"Message overhead on a stable overlay (n={n})",
    )


def _check_overhead(result: dict, n: int) -> None:
    for r in result.values():
        assert r["control_per_node_cycle"] >= 0.0
        assert r["data_per_broadcast"] >= 0.0
    if "cyclon" in result:
        # Cyclon's cycle is one request + one reply at any scale.
        assert result["cyclon"]["control_per_node_cycle"] <= 2.5


register(
    ScenarioSpec(
        id="overhead",
        group="extension",
        title="Extension — message overhead accounting",
        description="Control vs payload traffic per protocol on identical "
        "stable overlays (the paper's Section 6 future-work question).",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=5, stabilization_cycles=15,
                             extra={"cycles": 3}),
            paper=TierConfig(n=10_000, messages=20, paper_params=True),
        ),
        render=_render_overhead,
        check=_check_overhead,
        **_cell_hooks(_overhead_cells, _run_overhead_cell, _merge_overhead),
    )
)


_CHURN_PROTOCOLS = ("hyparview", "cyclon-acked")


def _churn_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    protocols = tuple(ctx.option("protocols", _CHURN_PROTOCOLS))  # type: ignore[arg-type]
    return tuple((protocol,) for protocol in protocols)


def _run_churn_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = str(key[0])
    steps = int(ctx.option("steps", 60))  # type: ignore[arg-type]
    result = run_churn_experiment(protocol, ctx.params(), steps=steps)
    return json_safe(result)  # type: ignore[return-value]


def _merge_churn(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    protocols = tuple(ctx.option("protocols", _CHURN_PROTOCOLS))  # type: ignore[arg-type]
    return {protocol: cells[(protocol,)] for protocol in protocols}


def _render_churn(result: dict, n: int) -> str:
    rows = [
        [
            protocol,
            r["average"],
            r["crashes"],
            r["leaves"],
            r["revives"],
            r["final_largest_component"],
            r["stale_active_entries"],
        ]
        for protocol, r in result.items()
    ]
    blocks = [
        format_table(
            ["protocol", "avg reliability", "crashes", "leaves", "revives",
             "largest component", "stale entries"],
            rows,
            title=f"Churn — probe reliability under continuous churn (n={n})",
        )
    ]
    for protocol, r in result.items():
        blocks.append(f"{protocol:13s} {sparkline(r['series'])}")
    return "\n".join(blocks)


def _check_churn(result: dict, n: int) -> None:
    for r in result.values():
        assert r["crashes"] + r["leaves"] + r["revives"] <= r["steps"]
        assert 0.0 <= r["average"] <= 1.0
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        # Paper-motivated shape: HyParView stays essentially flat, keeps
        # its active views free of dead entries, and matches CyclonAcked.
        assert hv["average"] > 0.95
        assert hv["final_largest_component"] > 0.95
        assert hv["stale_active_entries"] <= 3
        acked = result.get("cyclon-acked")
        if acked:
            assert hv["average"] >= acked["average"] - 0.01


register(
    ScenarioSpec(
        id="churn",
        group="extension",
        title="Extension — continuous churn",
        description="Crashes, graceful leaves and fresh-process revivals "
        "interleaved with probe broadcasts.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=1, stabilization_cycles=15,
                             extra={"steps": 12}),
            paper=TierConfig(n=10_000, messages=1, paper_params=True,
                             extra={"steps": 200}),
        ),
        render=_render_churn,
        check=_check_churn,
        **_cell_hooks(_churn_cells, _run_churn_cell, _merge_churn),
    )
)


# ----------------------------------------------------------------------
# Ablations — every sweep point is one cell
# ----------------------------------------------------------------------
def _passive_sizes(ctx: RunContext) -> tuple[int, ...]:
    sizes = ctx.option("passive_sizes", None)
    if sizes is not None:
        return tuple(int(v) for v in sizes)  # type: ignore[union-attr]
    return default_passive_sizes(ctx.params().hyparview)


def _passive_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    return tuple((size,) for size in _passive_sizes(ctx))


def _run_passive_cell(ctx: RunContext, key: CellKey) -> dict:
    capacity = int(key[0])
    failure = float(ctx.option("failure", 0.8))  # type: ignore[arg-type]
    scenario = ctx.stabilized("hyparview", passive_size_params(ctx.params(), capacity))
    point = measure_passive_size_point(
        scenario, failure_fraction=failure, messages=ctx.config.messages
    )
    return json_safe(point)  # type: ignore[return-value]


def _merge_passive(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    failure = float(ctx.option("failure", 0.8))  # type: ignore[arg-type]
    return {"failure": failure, "points": [cells[(size,)] for size in _passive_sizes(ctx)]}


def _render_ablation_passive(result: dict, n: int) -> str:
    return format_table(
        ["passive capacity", "avg reliability", "tail reliability", "largest component"],
        [
            [p["passive_capacity"], p["average_reliability"], p["tail_reliability"],
             p["largest_component_fraction"]]
            for p in result["points"]
        ],
        title=(
            f"Ablation — passive view size vs resilience at "
            f"{result['failure']:.0%} failures (n={n})"
        ),
    )


def _check_ablation_passive(result: dict, n: int) -> None:
    points = result["points"]
    assert points == sorted(points, key=lambda p: p["passive_capacity"])
    if n < SHAPE_CHECK_MIN_N:
        return
    # Larger passive views must not hurt resilience.
    smallest, largest = points[0], points[-1]
    assert largest.get("tail_reliability", 0) >= smallest.get("tail_reliability", 0) - 0.02


register(
    ScenarioSpec(
        id="ablation_passive_size",
        group="ablation",
        title="Ablation — passive view size vs resilience",
        description="The paper's future-work sweep: passive capacity vs "
        "recovered reliability and connectivity at heavy failure levels.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15,
                             extra={"passive_sizes": (3, 8), "failure": 0.6}),
            paper=TierConfig(n=10_000, messages=50, paper_params=True),
        ),
        render=_render_ablation_passive,
        check=_check_ablation_passive,
        **_cell_hooks(_passive_cells, _run_passive_cell, _merge_passive),
    )
)


def _shuffle_ttls(ctx: RunContext) -> tuple[int, ...]:
    return tuple(int(v) for v in ctx.option("ttls", (1, 3, 6, 9)))  # type: ignore[union-attr]


def _shuffle_ttl_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    return tuple((ttl,) for ttl in _shuffle_ttls(ctx))


def _run_shuffle_ttl_cell(ctx: RunContext, key: CellKey) -> dict:
    ttl = int(key[0])
    failure = float(ctx.option("failure", 0.6))  # type: ignore[arg-type]
    scenario = ctx.stabilized("hyparview", shuffle_ttl_params(ctx.params(), ttl))
    point = measure_shuffle_ttl_point(
        scenario, failure_fraction=failure, messages=ctx.config.messages
    )
    return json_safe(point)  # type: ignore[return-value]


def _merge_shuffle_ttl(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    failure = float(ctx.option("failure", 0.6))  # type: ignore[arg-type]
    return {"failure": failure, "points": [cells[(ttl,)] for ttl in _shuffle_ttls(ctx)]}


def _render_ablation_shuffle_ttl(result: dict, n: int) -> str:
    return format_table(
        ["shuffle TTL", "avg clustering", "passive in-degree CV", "recovery avg"],
        [
            [p["shuffle_ttl"], p["average_clustering"], p["passive_balance"],
             p["recovery_average"]]
            for p in result["points"]
        ],
        title=f"Ablation — shuffle walk TTL (n={n}, {result['failure']:.0%} failures)",
    )


def _check_ablation_shuffle_ttl(result: dict, n: int) -> None:
    for p in result["points"]:
        assert 0.0 <= p["recovery_average"] <= 1.0
    if n < SHAPE_CHECK_MIN_N:
        return
    for p in result["points"]:
        assert p["recovery_average"] > 0.5
        assert p["passive_balance"] < 2.0


register(
    ScenarioSpec(
        id="ablation_shuffle_ttl",
        group="ablation",
        title="Ablation — shuffle walk TTL",
        description="The unspecified shuffle TTL: walk length vs passive "
        "view balance, clustering and recovery.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=6, stabilization_cycles=15,
                             extra={"ttls": (1, 6)}),
            paper=TierConfig(n=10_000, messages=30, paper_params=True),
        ),
        render=_render_ablation_shuffle_ttl,
        check=_check_ablation_shuffle_ttl,
        **_cell_hooks(_shuffle_ttl_cells, _run_shuffle_ttl_cell, _merge_shuffle_ttl),
    )
)


def _resend_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    return tuple((resend,) for resend in RESEND_VARIANTS)


def _run_resend_cell(ctx: RunContext, key: CellKey) -> dict:
    resend = bool(key[0])
    failure = float(ctx.option("failure", 0.8))  # type: ignore[arg-type]
    point = measure_resend_point(
        ctx.stabilized("hyparview"), resend,
        failure_fraction=failure, messages=ctx.config.messages,
    )
    return json_safe(point)  # type: ignore[return-value]


def _merge_resend(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    failure = float(ctx.option("failure", 0.8))  # type: ignore[arg-type]
    return {
        "failure": failure,
        "points": [cells[(resend,)] for resend in RESEND_VARIANTS],
    }


def _render_ablation_resend(result: dict, n: int) -> str:
    return format_table(
        ["resend on repair", "avg reliability", "first-10 avg", "payload transmissions"],
        [
            [str(p["resend_on_repair"]), p["average_reliability"], p["first10_average"],
             p["data_transmissions"]]
            for p in result["points"]
        ],
        title=(
            f"Ablation — flood resend extension at {result['failure']:.0%} "
            f"failures (n={n})"
        ),
    )


def _check_ablation_resend(result: dict, n: int) -> None:
    baseline = next(p for p in result["points"] if not p["resend_on_repair"])
    resend = next(p for p in result["points"] if p["resend_on_repair"])
    assert baseline["data_transmissions"] >= 0
    if n < SHAPE_CHECK_MIN_N:
        return
    # The extension trades extra payload traffic for early reliability.
    assert resend["average_reliability"] >= baseline["average_reliability"] - 0.02
    assert resend["data_transmissions"] >= baseline["data_transmissions"]


register(
    ScenarioSpec(
        id="ablation_flood_resend",
        group="ablation",
        title="Ablation — flood resend-on-repair",
        description="Retransmitting failed flood copies towards the "
        "repaired active view: reliability gained vs extra traffic.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=8, stabilization_cycles=15,
                             extra={"failure": 0.6}),
            paper=TierConfig(n=10_000, messages=50, paper_params=True),
        ),
        render=_render_ablation_resend,
        check=_check_ablation_resend,
        # Both arms fork one stabilised HyParView base.
        cell_affinity=lambda key: "base",
        **_cell_hooks(_resend_cells, _run_resend_cell, _merge_resend),
    )
)


_PLUMTREE_LAYERS = ("hyparview", "plumtree")


def _plumtree_cells(ctx: RunContext) -> tuple[CellKey, ...]:
    return tuple((protocol,) for protocol in _PLUMTREE_LAYERS)


def _run_plumtree_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = str(key[0])
    warmup = int(ctx.option("warmup", 5))  # type: ignore[arg-type]
    return measure_plumtree_point(
        ctx.stabilized(protocol), warmup=warmup, messages=ctx.config.messages
    )


def _merge_plumtree(ctx: RunContext, cells: Mapping[CellKey, dict]) -> dict:
    return {protocol: cells[(protocol,)] for protocol in _PLUMTREE_LAYERS}


def _render_ablation_plumtree(result: dict, n: int) -> str:
    return format_table(
        ["layer", "avg reliability", "payload msgs / broadcast"],
        [
            ["flood", result["hyparview"]["reliability"],
             result["hyparview"]["payloads_per_broadcast"]],
            ["plumtree", result["plumtree"]["reliability"],
             result["plumtree"]["payloads_per_broadcast"]],
        ],
        title=f"Ablation — Plumtree payload savings vs flood (n={n})",
    )


def _check_ablation_plumtree(result: dict, n: int) -> None:
    # Both layers are atomic on a stable overlay at any scale, and the
    # tree never sends more payloads than the flood.
    assert result["hyparview"]["reliability"] == 1.0
    assert result["plumtree"]["reliability"] == 1.0
    assert (
        result["plumtree"]["payloads_per_broadcast"]
        <= result["hyparview"]["payloads_per_broadcast"]
    )
    if n < SHAPE_CHECK_MIN_N:
        return
    # A converged tree sends ~n-1 payloads vs the flood's ~n*(capacity-1):
    # a material saving, not mere parity.
    assert (
        result["plumtree"]["payloads_per_broadcast"]
        < 0.6 * result["hyparview"]["payloads_per_broadcast"]
    )


register(
    ScenarioSpec(
        id="ablation_plumtree",
        group="ablation",
        title="Ablation — Plumtree vs flood",
        description="Payload copies per broadcast for tree dissemination "
        "vs flooding over the same HyParView overlay.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=5, stabilization_cycles=15,
                             extra={"warmup": 3}),
            paper=TierConfig(n=10_000, messages=20, paper_params=True),
        ),
        render=_render_ablation_plumtree,
        check=_check_ablation_plumtree,
        **_cell_hooks(_plumtree_cells, _run_plumtree_cell, _merge_plumtree),
    )
)


# ----------------------------------------------------------------------
# Fault-injection scenario family (repro.faults) — registered on import
# so the CLI, the orchestrator and CI pick the ``faults_*`` scenarios up
# from REGISTRY like any other experiment.  Imported last: the module
# registers through the machinery defined above.
# ----------------------------------------------------------------------
from ..faults import scenarios as _fault_scenarios  # noqa: E402,F401  (registration side effect)
from ..faults import byzantine as _byz_scenarios  # noqa: E402,F401  (registration side effect)
from . import topology as _topo_scenarios  # noqa: E402,F401  (registration side effect)
