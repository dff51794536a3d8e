"""X-BOT: topology-aware optimisation of HyParView's active view.

X-BOT (Leitão et al., "X-BOT: A Protocol for Resilient Optimization of
Unstructured Overlays") biases an unstructured overlay toward low-cost
links without giving up the reliability properties of the underlying
membership protocol.  This module layers it on :class:`HyParView`: the
active/passive views, join walks, promotion and shuffle machinery are all
inherited unchanged; X-BOT adds a periodic **4-node optimisation swap**
that trades a high-cost active edge for a low-cost one.

The four roles of one swap round:

* **initiator** ``i`` — has a full active view, samples a few passive
  candidates, and proposes replacing its worst *biased* active neighbour;
* **candidate** ``c`` — the low-cost passive peer ``i`` wants to promote;
* **old** ``o`` — ``i``'s highest-cost biased active neighbour, the edge
  being dropped;
* **disconnected** ``d`` — ``c``'s highest-cost biased neighbour, which
  ``c`` drops to make room and which adopts ``o`` so no node loses degree.

The exchange is ``Optimization`` (i→c), ``Replace`` (c→d), ``Switch``
(d→o), then replies back down the chain; the final topology replaces
edges ``i–o`` and ``c–d`` with ``i–c`` and ``d–o``.  ``d`` accepts only
under the aggregate-cost rule

    cost(i,o) + cost(c,d)  >  cost(i,c) + cost(d,o)

so every completed swap strictly decreases the total edge cost of the
overlay — the convergence argument of the paper.  Because the
:class:`CostOracle` here is a pure function of node identities (the
latency world model's jitter-free zone matrix), any participant can price
any link locally and the rule can be evaluated entirely at ``d``.

**Unbiased slots.**  The first ``unbiased_slots`` positions of a node's
active view are never chosen for removal by the optimisation (neither as
``o`` nor as ``d``), keeping a random, cost-blind core in every view —
this is what preserves HyParView's healing and connectivity properties
while the rest of the view specialises toward cheap links.  Reactive
evictions (joins, failures) are deliberately *not* constrained: admission
of starving nodes is a reliability primitive and always wins.

**Reliability first.**  Swap commits never evict an unrelated neighbour
to make room: if a view filled up mid-exchange the new edge is refused
with a ``Disconnect`` so both sides agree, and the overlay falls back to
the plain-HyParView repair path.  A node with a cost-blind oracle (the
default) initiates no swaps at all and behaves exactly like HyParView.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

from ..common.errors import ConfigurationError
from ..common.ids import NodeId
from ..common.interfaces import Host, TimerHandle
from ..common.messages import Message, register_message
from ..core.config import HyParViewConfig
from ..core.messages import Disconnect
from ..core.protocol import HyParView


# ----------------------------------------------------------------------
# Link-cost oracles
# ----------------------------------------------------------------------
class CostOracle(ABC):
    """Prices a link between two nodes for the optimisation.

    Implementations must be pure functions of the node identities —
    deterministic and symmetric — so that every participant of a swap
    computes identical costs without coordination.
    """

    __slots__ = ()

    @abstractmethod
    def cost(self, a: NodeId, b: NodeId) -> float:
        """Cost of the ``a``–``b`` link (lower is better)."""


class ConstantCostOracle(CostOracle):
    """Cost-blind oracle: every link prices the same, so no swap ever
    shows a strict gain and X-BOT degrades to plain HyParView.  The safe
    default for substrates without a latency world model (live runtime)."""

    __slots__ = ()

    def cost(self, a: NodeId, b: NodeId) -> float:
        return 0.0


class LatencyCostOracle(CostOracle):
    """Reads link cost from a latency model's jitter-free ``base_delay``
    — the zone matrix of :class:`~repro.sim.latency.ZonedLatency` in the
    ``topo_*`` scenarios."""

    __slots__ = ("model",)

    def __init__(self, model) -> None:
        self.model = model

    def cost(self, a: NodeId, b: NodeId) -> float:
        return self.model.base_delay(a, b)


# ----------------------------------------------------------------------
# Configuration and counters
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class XBotConfig:
    """X-BOT tuning knobs (defaults follow the paper's small constants)."""

    #: Leading active-view positions never removed by optimisation.
    unbiased_slots: int = 1
    #: Passive candidates sampled per optimisation round (the paper's PSL).
    candidates_per_round: int = 2
    #: Seconds before a swap participant abandons an unanswered exchange.
    #: Must cover the whole 6-leg chain at the world model's worst-case
    #: link delay (~0.16 s cross-continent), with slack for queueing.
    swap_timeout: float = 2.0
    #: Minimum strict aggregate-cost improvement a swap must show.
    min_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.unbiased_slots < 0:
            raise ConfigurationError(
                f"unbiased slots must be >= 0: {self.unbiased_slots}"
            )
        if self.candidates_per_round < 1:
            raise ConfigurationError(
                f"candidates per round must be >= 1: {self.candidates_per_round}"
            )
        if self.swap_timeout <= 0:
            raise ConfigurationError(f"swap timeout must be positive: {self.swap_timeout}")
        if self.min_gain < 0:
            raise ConfigurationError(f"minimum gain must be >= 0: {self.min_gain}")


@dataclass(slots=True)
class XBotStats:
    """Optimisation counters, exposed for tests and scenario reports."""

    rounds_initiated: int = 0
    swaps_completed: int = 0
    swaps_rejected: int = 0
    swap_timeouts: int = 0
    #: Active-view removals performed by swap commits (never unbiased).
    optimization_removals: int = 0
    #: Times a removal was refused because the peer sat in an unbiased slot.
    unbiased_protected: int = 0
    #: Swap edges refused because the view filled up mid-exchange.
    edges_declined: int = 0


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@register_message("xbot.optimization")
@dataclass(frozen=True, slots=True)
class Optimization(Message):
    """Initiator asks candidate to take ``old``'s place in its view."""

    initiator: NodeId
    old: NodeId


@register_message("xbot.optimization_reply")
@dataclass(frozen=True, slots=True)
class OptimizationReply(Message):
    """Candidate's final answer to the initiator; ``old`` echoes the
    round so stale replies are discarded."""

    candidate: NodeId
    old: NodeId
    accepted: bool


@register_message("xbot.replace")
@dataclass(frozen=True, slots=True)
class Replace(Message):
    """Full candidate asks its worst biased neighbour ``d`` (the
    receiver) to adopt ``old`` in its place."""

    candidate: NodeId
    initiator: NodeId
    old: NodeId


@register_message("xbot.replace_reply")
@dataclass(frozen=True, slots=True)
class ReplaceReply(Message):
    """``d``'s answer to the candidate after the Switch leg resolved."""

    disconnected: NodeId
    initiator: NodeId
    old: NodeId
    accepted: bool


@register_message("xbot.switch")
@dataclass(frozen=True, slots=True)
class Switch(Message):
    """``d`` asks ``old`` (the receiver) to swap its ``initiator`` edge
    for a ``d`` edge, having verified the aggregate-cost rule."""

    disconnected: NodeId
    initiator: NodeId
    candidate: NodeId


@register_message("xbot.switch_reply")
@dataclass(frozen=True, slots=True)
class SwitchReply(Message):
    """``old``'s answer to ``d``; echoes the round's roles."""

    old: NodeId
    initiator: NodeId
    candidate: NodeId
    accepted: bool


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class XBot(HyParView):
    """HyParView plus X-BOT optimisation swaps.

    Each node holds at most one in-flight exchange *per role* (initiator,
    candidate, ``d``), each guarded by a ``swap_timeout`` timer, so lost
    messages and crashed participants can never wedge the optimiser.
    Sim mode drives rounds through :meth:`cycle`; live mode gets them for
    free through the inherited periodic shuffle, which calls ``cycle``.
    """

    name = "hyparview-xbot"

    def __init__(
        self,
        host: Host,
        config: Optional[HyParViewConfig] = None,
        *,
        oracle: Optional[CostOracle] = None,
        xbot: Optional[XBotConfig] = None,
    ) -> None:
        super().__init__(host, config)
        self.oracle = oracle if oracle is not None else ConstantCostOracle()
        self.xbot_config = xbot if xbot is not None else XBotConfig()
        self.xbot_stats = XBotStats()
        # Initiator role: the (candidate, old) pair of the open round.
        self._opt_pending: Optional[tuple[NodeId, NodeId]] = None
        self._opt_timer: Optional[TimerHandle] = None
        # Candidate role: (initiator, old, disconnected) awaiting ReplaceReply.
        self._replace_pending: Optional[tuple[NodeId, NodeId, NodeId]] = None
        self._replace_timer: Optional[TimerHandle] = None
        # Disconnected role: (initiator, candidate, old) awaiting SwitchReply.
        self._switch_pending: Optional[tuple[NodeId, NodeId, NodeId]] = None
        self._switch_timer: Optional[TimerHandle] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def handlers(self) -> dict[type, Callable[[Message], None]]:
        table = super().handlers()
        table.update(
            {
                Optimization: self.handle_optimization,
                OptimizationReply: self.handle_optimization_reply,
                Replace: self.handle_replace,
                ReplaceReply: self.handle_replace_reply,
                Switch: self.handle_switch,
                SwitchReply: self.handle_switch_reply,
            }
        )
        return table

    def cycle(self) -> None:
        super().cycle()
        self.optimize_once()

    def leave(self) -> None:
        self._clear_opt_state()
        self._clear_replace_state()
        self._clear_switch_state()
        super().leave()

    # ------------------------------------------------------------------
    # Unbiased-slot accounting
    # ------------------------------------------------------------------
    def unbiased_members(self) -> tuple[NodeId, ...]:
        """The protected head of the active view (never optimised away)."""
        return self.active.members()[: self.xbot_config.unbiased_slots]

    def _swappable(self) -> tuple[NodeId, ...]:
        return self.active.members()[self.xbot_config.unbiased_slots :]

    def _worst_swappable(self, exclude: tuple[NodeId, ...] = ()) -> Optional[NodeId]:
        """Highest-cost biased neighbour, or ``None``.  Ties resolve to the
        earliest view position — deterministic, since ``members()`` order
        is part of the simulation state."""
        me = self.address
        worst: Optional[NodeId] = None
        worst_cost = float("-inf")
        for peer in self._swappable():
            if peer in exclude:
                continue
            peer_cost = self.oracle.cost(me, peer)
            if peer_cost > worst_cost:
                worst, worst_cost = peer, peer_cost
        return worst

    # ------------------------------------------------------------------
    # Initiator role
    # ------------------------------------------------------------------
    def optimize_once(self) -> None:
        """Open one optimisation round if the view is full and a passive
        candidate strictly beats the worst biased neighbour."""
        cfg = self.xbot_config
        if self._left or self._opt_pending is not None:
            return
        if not self.active.is_full or self.passive.is_empty:
            return
        old = self._worst_swappable()
        if old is None:
            return
        me = self.address
        old_cost = self.oracle.cost(me, old)
        best: Optional[NodeId] = None
        best_cost = float("inf")
        for candidate in self.passive.sample(self._rng, cfg.candidates_per_round):
            candidate_cost = self.oracle.cost(me, candidate)
            if candidate_cost < best_cost:
                best, best_cost = candidate, candidate_cost
        if best is None or best_cost + cfg.min_gain >= old_cost:
            return
        self._opt_pending = (best, old)
        self._opt_timer = self._host.schedule(cfg.swap_timeout, self._on_opt_timeout)
        self.xbot_stats.rounds_initiated += 1
        self._host.send(best, Optimization(me, old))

    def handle_optimization_reply(self, message: OptimizationReply) -> None:
        pending = self._opt_pending
        if pending is None or (message.candidate, message.old) != pending:
            return  # stale or duplicated reply
        candidate, old = pending
        self._clear_opt_state()
        if not message.accepted:
            self.xbot_stats.swaps_rejected += 1
            if not self.active.is_full:
                self._fill_active_view()
            return
        if old in self.active:
            self._demote_for_swap(old, notify_peer=True)
        self._admit_swap_edge(candidate)
        self.xbot_stats.swaps_completed += 1

    def _on_opt_timeout(self) -> None:
        self._opt_timer = None
        if self._opt_pending is None:
            return
        self._opt_pending = None
        self.xbot_stats.swap_timeouts += 1
        if not self.active.is_full:
            self._fill_active_view()

    # ------------------------------------------------------------------
    # Candidate role
    # ------------------------------------------------------------------
    def handle_optimization(self, message: Optimization) -> None:
        initiator, old = message.initiator, message.old
        me = self.address
        if initiator == me or self._left:
            return
        if initiator in self.active or old == me:
            self._host.send(initiator, OptimizationReply(me, old, False))
            return
        if not self.active.is_full:
            # Room to spare: accept directly, no fourth node needed.
            self._admit_swap_edge(initiator)
            self._host.send(initiator, OptimizationReply(me, old, True))
            return
        if self._replace_pending is not None:
            self._host.send(initiator, OptimizationReply(me, old, False))
            return
        disconnected = self._worst_swappable(exclude=(initiator, old))
        if disconnected is None:
            self._host.send(initiator, OptimizationReply(me, old, False))
            return
        self._replace_pending = (initiator, old, disconnected)
        self._replace_timer = self._host.schedule(
            self.xbot_config.swap_timeout, self._on_replace_timeout
        )
        self._host.send(disconnected, Replace(me, initiator, old))

    def handle_replace_reply(self, message: ReplaceReply) -> None:
        pending = self._replace_pending
        if pending is None:
            return
        initiator, old, disconnected = pending
        if (message.initiator, message.old, message.disconnected) != (
            initiator,
            old,
            disconnected,
        ):
            return  # stale or duplicated reply
        self._clear_replace_state()
        if not message.accepted:
            self._host.send(initiator, OptimizationReply(self.address, old, False))
            return
        # d already dropped us and adopted old; mirror the removal (its
        # Disconnect may still be in flight) and take the initiator's edge.
        if disconnected in self.active:
            self._demote_for_swap(disconnected, notify_peer=False)
        self._admit_swap_edge(initiator)
        self._host.send(initiator, OptimizationReply(self.address, old, True))

    def _on_replace_timeout(self) -> None:
        self._replace_timer = None
        pending = self._replace_pending
        if pending is None:
            return
        self._replace_pending = None
        self.xbot_stats.swap_timeouts += 1
        # Tell the waiting initiator the round is dead rather than letting
        # both ends time out independently.
        self._host.send(pending[0], OptimizationReply(self.address, pending[1], False))

    # ------------------------------------------------------------------
    # Disconnected role (the candidate's dropped neighbour, ``d``)
    # ------------------------------------------------------------------
    def handle_replace(self, message: Replace) -> None:
        candidate, initiator, old = message.candidate, message.initiator, message.old
        me = self.address
        cfg = self.xbot_config
        acceptable = (
            not self._left
            and initiator != me
            and old != me
            and candidate in self.active
            and candidate in self._swappable()
            and old not in self.active
            and self._switch_pending is None
        )
        if acceptable:
            # The aggregate-cost rule: the swap must strictly shrink the
            # summed cost of the two edges it touches.  The shared pure
            # oracle lets d evaluate all four terms locally.
            cost = self.oracle.cost
            gain = (
                cost(initiator, old)
                + cost(candidate, me)
                - cost(initiator, candidate)
                - cost(me, old)
            )
            acceptable = gain > cfg.min_gain
        if not acceptable:
            self._host.send(candidate, ReplaceReply(me, initiator, old, False))
            return
        self._switch_pending = (initiator, candidate, old)
        self._switch_timer = self._host.schedule(cfg.swap_timeout, self._on_switch_timeout)
        self._host.send(old, Switch(me, initiator, candidate))

    def handle_switch_reply(self, message: SwitchReply) -> None:
        pending = self._switch_pending
        if pending is None:
            return
        initiator, candidate, old = pending
        if (message.initiator, message.candidate, message.old) != (
            initiator,
            candidate,
            old,
        ):
            return  # stale or duplicated reply
        self._clear_switch_state()
        if not message.accepted:
            self._host.send(candidate, ReplaceReply(self.address, initiator, old, False))
            return
        if candidate in self.active and candidate in self._swappable():
            self._demote_for_swap(candidate, notify_peer=True)
            self._admit_swap_edge(old)
            self._host.send(candidate, ReplaceReply(self.address, initiator, old, True))
            return
        # old already switched to us but the candidate edge vanished (or
        # slid into an unbiased slot) meanwhile: roll our half back so both
        # sides agree, and fail the round.
        self._disconnect(old)
        self._host.send(candidate, ReplaceReply(self.address, initiator, old, False))

    def _on_switch_timeout(self) -> None:
        self._switch_timer = None
        pending = self._switch_pending
        if pending is None:
            return
        self._switch_pending = None
        self.xbot_stats.swap_timeouts += 1
        self._host.send(
            pending[1], ReplaceReply(self.address, pending[0], pending[2], False)
        )

    # ------------------------------------------------------------------
    # Old role (``o``)
    # ------------------------------------------------------------------
    def handle_switch(self, message: Switch) -> None:
        disconnected, initiator = message.disconnected, message.initiator
        me = self.address
        accepted = (
            not self._left
            and disconnected != me
            and initiator != me
            and disconnected not in self.active
            and initiator in self.active
            and initiator in self._swappable()
        )
        if accepted:
            # Atomic at this node: the initiator's slot frees and d takes
            # it, so degree is preserved and no refill races the commit.
            self._demote_for_swap(initiator, notify_peer=True)
            self._admit_swap_edge(disconnected)
        self._host.send(
            disconnected, SwitchReply(me, initiator, message.candidate, accepted)
        )

    # ------------------------------------------------------------------
    # Commit primitives
    # ------------------------------------------------------------------
    def _demote_for_swap(self, peer: NodeId, *, notify_peer: bool) -> bool:
        """Move an active neighbour to the passive view for a swap commit.

        Refuses unbiased slots — the optimisation never touches them, so
        the cost-blind core of the view survives any swap schedule."""
        if peer in self.unbiased_members():
            self.xbot_stats.unbiased_protected += 1
            return False
        if not self.active.discard(peer):
            return False
        self._host.unwatch(peer)
        self._listeners.notify_down(peer)
        self._add_to_passive(peer)
        self.xbot_stats.optimization_removals += 1
        if notify_peer:
            self._disconnect(peer)
        return True

    def _admit_swap_edge(self, peer: NodeId) -> bool:
        """Take the new edge a swap grants us, never evicting for it."""
        if peer == self.address:
            return False
        if peer in self.active:
            return True
        if self.active.is_full:
            # The slot was taken by a reactive admission mid-exchange;
            # reliability wins.  Refuse the edge so views stay symmetric.
            self.xbot_stats.edges_declined += 1
            self._disconnect(peer)
            return False
        self.passive.discard(peer)
        self.active.add(peer)
        self._host.watch(peer, self._on_link_down)
        self._listeners.notify_up(peer)
        return True

    def handle_disconnect(self, message: Disconnect) -> None:
        """A Disconnect for an edge an open swap is about to replace must
        not trigger the reactive refill — the in-flight exchange owns that
        slot (the reply or the timeout reclaims it).  Everything else goes
        through HyParView's handler unchanged."""
        peer = message.sender
        reserved = (
            self._opt_pending is not None
            and peer == self._opt_pending[1]
            or self._replace_pending is not None
            and peer == self._replace_pending[2]
        )
        if not reserved:
            super().handle_disconnect(message)
            return
        self.stats.disconnects_received += 1
        if peer in self.active:
            self.active.remove(peer)
            self._host.unwatch(peer)
            self._listeners.notify_down(peer)
            self._add_to_passive(peer)

    # ------------------------------------------------------------------
    # State hygiene
    # ------------------------------------------------------------------
    def _clear_opt_state(self) -> None:
        self._opt_pending = None
        if self._opt_timer is not None:
            self._opt_timer.cancel()
            self._opt_timer = None

    def _clear_replace_state(self) -> None:
        self._replace_pending = None
        if self._replace_timer is not None:
            self._replace_timer.cancel()
            self._replace_timer = None

    def _clear_switch_state(self) -> None:
        self._switch_pending = None
        if self._switch_timer is not None:
            self._switch_timer.cancel()
            self._switch_timer = None
