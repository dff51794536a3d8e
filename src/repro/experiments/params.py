"""Experiment parameters (Section 5.1) and the protocol stack registry.

``ExperimentParams.paper()`` is the exact published configuration at
n = 10 000.  ``ExperimentParams.scaled(n)`` keeps every protocol relation
intact (Cyclon view = HyParView active + passive; shuffle length ≈ 40% of
the view; fanout fixed at 4) while shrinking the log-sized views for a
smaller system, so laptop-scale runs preserve the comparisons the paper
makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ..common.errors import ConfigurationError
from ..core.config import HyParViewConfig
from ..gossip.byzantine import BRBConfig
from ..gossip.plumtree import PlumtreeConfig
from ..gossip.reliable import ReliableConfig
from ..protocols.cyclon import CyclonConfig
from ..protocols.registry import stack_names
from ..protocols.scamp import ScampConfig
from ..protocols.xbot import XBotConfig
from ..sim.latency import LATENCY_MODEL_NAMES

#: Protocol names accepted by the scenario builder, derived from the
#: declarative stack registry (:mod:`repro.protocols.registry`) so the
#: simulator, the asyncio runtime and this tuple can never disagree.  The
#: ``*-reliable`` stacks run the ack+retransmit broadcast layer (datagrams
#: + per-copy acks + cancellable retransmit timers) over the named overlay.
PROTOCOL_NAMES = stack_names()

@dataclass(frozen=True, slots=True)
class ExperimentParams:
    """Everything a scenario needs to be reproducible."""

    n: int = 1_000
    seed: int = 42
    fanout: int = 4
    stabilization_cycles: int = 50
    hyparview: HyParViewConfig = field(default_factory=HyParViewConfig)
    cyclon: CyclonConfig = field(default_factory=CyclonConfig)
    scamp: ScampConfig = field(default_factory=ScampConfig)
    reliable: ReliableConfig = field(default_factory=ReliableConfig)
    #: Byzantine broadcast tuning (quorum mode, assumed fault fraction,
    #: phase ack/retransmit knobs) for the ``*-brb`` stacks.
    brb: BRBConfig = field(default_factory=BRBConfig)
    #: Plumtree tuning; ``None`` uses the layer's defaults (the published
    #: setting).  Carried here so the stack registry can build plumtree
    #: stacks from one parameter object in both substrates.
    plumtree: Optional[PlumtreeConfig] = None
    #: X-BOT topology-optimisation tuning (swap rounds, unbiased slots)
    #: for the ``hyparview-xbot`` stack.
    xbot: XBotConfig = field(default_factory=XBotConfig)
    latency_seconds: float = 0.01
    #: Which latency world model prices the links (``LATENCY_MODEL_NAMES``):
    #: ``"constant"`` is the paper's abstract model and the historical
    #: default (every pre-existing artifact is pinned with it); ``"zoned"``
    #: is the planetary RTT zone matrix the ``topo_*`` scenarios run on.
    latency_model: str = "constant"
    #: Zone count for the ``"zoned"`` model; ignored by ``"constant"``.
    latency_zones: int = 8
    #: Engine timestamp quantisation (seconds); ``None`` keeps exact float
    #: bucketing.  Set by scenarios whose latency is continuous (WAN-jitter
    #: fault plans) so deliveries share buckets instead of degenerating to
    #: one event per bucket.  Off by default: artifacts are pinned with
    #: exact timestamps.
    engine_tick: Optional[float] = None
    max_events_per_drain: Optional[int] = 50_000_000

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"system size must be >= 2: {self.n}")
        if self.fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1: {self.fanout}")
        if self.stabilization_cycles < 0:
            raise ConfigurationError(
                f"stabilisation cycles must be >= 0: {self.stabilization_cycles}"
            )
        if self.latency_seconds < 0:
            raise ConfigurationError(f"latency must be >= 0: {self.latency_seconds}")
        if self.engine_tick is not None and self.engine_tick <= 0:
            raise ConfigurationError(f"engine tick must be positive: {self.engine_tick}")
        if self.latency_model not in LATENCY_MODEL_NAMES:
            raise ConfigurationError(
                f"unknown latency model {self.latency_model!r}; "
                f"expected one of {LATENCY_MODEL_NAMES}"
            )
        if self.latency_zones < 1:
            raise ConfigurationError(f"zone count must be >= 1: {self.latency_zones}")

    @classmethod
    def paper(cls, n: int = 10_000, seed: int = 42) -> "ExperimentParams":
        """The exact Section 5.1 setting (10 000 nodes by default)."""
        return cls(
            n=n,
            seed=seed,
            fanout=4,
            stabilization_cycles=50,
            hyparview=HyParViewConfig(
                active_view_capacity=5,
                passive_view_capacity=30,
                arwl=6,
                prwl=3,
                shuffle_ka=3,
                shuffle_kp=4,
            ),
            cyclon=CyclonConfig(view_size=35, shuffle_length=14, walk_ttl=5),
            scamp=ScampConfig(c=4),
        )

    @classmethod
    def scaled(
        cls,
        n: int,
        seed: int = 42,
        stabilization_cycles: int = 50,
    ) -> "ExperimentParams":
        """Paper relations at system size ``n`` (views scale with log n)."""
        if n < 2:
            raise ConfigurationError(f"system size must be >= 2: {n}")
        hyparview = HyParViewConfig().scaled(n)
        cyclon_view = hyparview.active_view_capacity + hyparview.passive_view_capacity
        cyclon_view = min(cyclon_view, n - 1)
        shuffle_length = max(2, min(cyclon_view, round(0.4 * cyclon_view)))
        return cls(
            n=n,
            seed=seed,
            fanout=4,
            stabilization_cycles=stabilization_cycles,
            hyparview=hyparview,
            cyclon=CyclonConfig(
                view_size=cyclon_view,
                shuffle_length=shuffle_length,
                walk_ttl=5,
            ),
            scamp=ScampConfig(c=4),
        )

    def with_seed(self, seed: int) -> "ExperimentParams":
        return replace(self, seed=seed)

    def expected_passive_floor(self) -> int:
        """The "larger than log(n)" requirement from Section 4.1."""
        return math.ceil(math.log(self.n))

