"""The HyParView membership protocol (Section 4 of the paper).

The protocol maintains two views with different strategies:

* a small **symmetric active view** (capacity ``fanout + 1``) managed
  *reactively*: joins add members, failures and disconnects remove them,
  and removals trigger promotion of passive-view candidates via NEIGHBOR
  requests with a priority bit;
* a larger **passive view** managed *cyclically* by a shuffle random walk
  that mixes the node's own identifier, active-view samples and
  passive-view samples (Section 4.4).

Failure detection is the transport's job ("TCP as a failure detector"):
every reliable send to an active-view member carries a failure callback
wired to :meth:`HyParView.report_failure`, so the entire broadcast overlay
is implicitly tested at every broadcast — the property the paper credits
for HyParView's fast recovery.

The implementation is sans-io: it only touches the abstract
:class:`~repro.common.interfaces.Host`, so the identical class runs inside
the discrete-event simulator and on real TCP sockets (:mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..common.errors import ProtocolError
from ..common.ids import NodeId
from ..common.interfaces import Host, TimerHandle
from ..common.messages import Message
from ..protocols.base import PeerSamplingService
from .config import HyParViewConfig
from .events import ListenerSet, MembershipListener
from .messages import (
    Disconnect,
    ForwardJoin,
    ForwardJoinReply,
    Join,
    Neighbor,
    NeighborReply,
    Shuffle,
    ShuffleReply,
)
from .views import BoundedView


@dataclass(slots=True)
class HyParViewStats:
    """Operational counters, exposed for tests and experiment reports."""

    joins_received: int = 0
    forward_joins_received: int = 0
    forward_joins_accepted: int = 0
    neighbor_requests_received: int = 0
    neighbor_accepts: int = 0
    neighbor_rejects: int = 0
    promotions_completed: int = 0
    failures_detected: int = 0
    disconnects_received: int = 0
    shuffles_initiated: int = 0
    shuffles_forwarded: int = 0
    shuffles_accepted: int = 0
    shuffle_replies_received: int = 0


class HyParView(PeerSamplingService):
    """One node's HyParView instance.

    Wire it to an environment by registering :meth:`handlers` with the
    node's dispatcher, then call :meth:`join` with a contact node.  Drive
    membership rounds either manually (:meth:`cycle`) or by calling
    :meth:`start` for self-scheduled shuffles.
    """

    name = "hyparview"

    def __init__(self, host: Host, config: Optional[HyParViewConfig] = None) -> None:
        self._host = host
        self._config = config if config is not None else HyParViewConfig()
        self._rng = host.rng
        self.active = BoundedView(self._config.active_view_capacity)
        self.passive = BoundedView(self._config.passive_view_capacity)
        self.stats = HyParViewStats()
        self._listeners = ListenerSet()
        # Promotion state: at most one outstanding NEIGHBOR request.
        self._pending_neighbor: Optional[NodeId] = None
        self._neighbor_timer: Optional[TimerHandle] = None
        self._fill_excluded: set[NodeId] = set()
        self._fill_passes_remaining = 0
        self._fill_retry_timer: Optional[TimerHandle] = None
        self._last_reactive_fill: Optional[float] = None
        self._reactive_fill_streak = 0
        # Identifiers included in our last shuffle, for the eviction
        # priority rule of Section 4.4.
        self._last_shuffle_exchange: tuple[NodeId, ...] = ()
        self._shuffle_timer: Optional[TimerHandle] = None
        self._running = False
        self._left = False

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def address(self) -> NodeId:
        return self._host.address

    @property
    def config(self) -> HyParViewConfig:
        return self._config

    def handlers(self) -> dict[type, Callable[[Message], None]]:
        """Message-type to handler mapping for dispatcher wiring."""
        return {
            Join: self.handle_join,
            ForwardJoin: self.handle_forward_join,
            ForwardJoinReply: self.handle_forward_join_reply,
            Neighbor: self.handle_neighbor,
            NeighborReply: self.handle_neighbor_reply,
            Disconnect: self.handle_disconnect,
            Shuffle: self.handle_shuffle,
            ShuffleReply: self.handle_shuffle_reply,
        }

    def add_listener(self, listener: MembershipListener) -> None:
        self._listeners.add(listener)

    def remove_listener(self, listener: MembershipListener) -> None:
        self._listeners.remove(listener)

    def active_members(self) -> tuple[NodeId, ...]:
        return self.active.members()

    def passive_members(self) -> tuple[NodeId, ...]:
        return self.passive.members()

    def join(self, contact: NodeId) -> None:
        """Enter the overlay through ``contact`` (Section 4.2).

        The joiner optimistically installs the contact as an active
        neighbour — the TCP connection it opens to send JOIN *is* the
        symmetric link; a send failure tears it down again.
        """
        if contact == self.address:
            raise ProtocolError("a node cannot join through itself")
        self._left = False
        self._add_to_active(contact)
        self._host.send(contact, Join(self.address), on_failure=self._on_active_send_failure)

    def leave(self) -> None:
        """Graceful exit: notify every active neighbour and clear state.

        A left node refuses new links until it joins again — otherwise its
        former neighbours, which keep it as a passive-view candidate, would
        promote it straight back into the overlay.
        """
        self._left = True
        for peer in self.active.members():
            self._host.send(peer, Disconnect(self.address))
            self.active.remove(peer)
            self._host.unwatch(peer)
            self._listeners.notify_down(peer)
        self._cancel_pending_promotion()
        self.stop()

    def gossip_targets(self, fanout: int, exclude: Iterable[NodeId] = ()) -> list[NodeId]:
        """The whole active view minus ``exclude``.

        HyParView floods deterministically (Section 4.1); the ``fanout``
        argument is part of the generic interface and intentionally ignored
        — the effective fanout is the active view size.
        """
        exclude_set = set(exclude)
        return [peer for peer in self.active if peer not in exclude_set]

    def report_failure(self, peer: NodeId) -> None:
        """React to a detected failure (TCP reset / send failure / link
        loss).

        Removes the peer and starts promoting a passive-view replacement
        (Section 4.3).  Dead peers are *not* recycled into the passive view.
        """
        if self.active.discard(peer):
            self._host.unwatch(peer)
            self.stats.failures_detected += 1
            self._listeners.notify_down(peer)
            self._fill_active_view()
        else:
            # A stale passive entry (e.g. the gossip layer probing an old
            # candidate) — expunge it so it is not promoted later.
            self.passive.discard(peer)

    def cycle(self) -> None:
        """One membership round: a shuffle, plus a repair attempt if the
        active view is under-full (reactive steps are always allowed)."""
        if not self.active.is_full:
            self._fill_active_view()
        self.shuffle_once()

    def out_neighbors(self) -> tuple[NodeId, ...]:
        return self.active.members()

    def start(self) -> None:
        """Self-schedule periodic shuffles (live mode).  The first shuffle
        fires after a random fraction of the period to desynchronise
        nodes."""
        if self._running:
            return
        self._running = True
        delay = self._rng.uniform(0, self._config.shuffle_period)
        self._shuffle_timer = self._host.schedule(delay, self._periodic_shuffle)

    def stop(self) -> None:
        self._running = False
        if self._shuffle_timer is not None:
            self._shuffle_timer.cancel()
            self._shuffle_timer = None

    # ------------------------------------------------------------------
    # Join protocol (Section 4.2, Algorithm 1)
    # ------------------------------------------------------------------
    def handle_join(self, message: Join) -> None:
        new_node = message.new_node
        self.stats.joins_received += 1
        if new_node == self.address or self._left:
            return
        self._add_to_active(new_node)
        forward = ForwardJoin(new_node, self._config.arwl, self.address)
        for peer in self.active.members():
            if peer != new_node:
                self._host.send(peer, forward, on_failure=self._on_active_send_failure)

    def handle_forward_join(self, message: ForwardJoin) -> None:
        new_node, ttl, sender = message.new_node, message.ttl, message.sender
        self.stats.forward_joins_received += 1
        if new_node == self.address or self._left:
            return  # the walk reached the joiner itself
        if ttl == 0 or len(self.active) == 1:
            self._accept_forward_join(new_node)
            return
        if ttl == self._config.prwl:
            self._add_to_passive(new_node)
        next_hop = self.active.random_member(self._rng, exclude=(sender, new_node))
        if next_hop is None:
            # Nowhere to continue the walk: absorb the join here.
            self._accept_forward_join(new_node)
            return
        self._host.send(
            next_hop,
            ForwardJoin(new_node, ttl - 1, self.address),
            on_failure=self._on_active_send_failure,
        )

    def _accept_forward_join(self, new_node: NodeId) -> None:
        if self._add_to_active(new_node):
            self.stats.forward_joins_accepted += 1
            # Active views are symmetric: tell the joiner to add the
            # reverse edge (implicit in the paper's TCP connection setup).
            self._host.send(
                new_node, ForwardJoinReply(self.address), on_failure=self._on_active_send_failure
            )

    def handle_forward_join_reply(self, message: ForwardJoinReply) -> None:
        self._add_to_active(message.sender)

    # ------------------------------------------------------------------
    # Active view management (Section 4.3)
    # ------------------------------------------------------------------
    def handle_neighbor(self, message: Neighbor) -> None:
        sender = message.sender
        self.stats.neighbor_requests_received += 1
        if sender == self.address:
            return
        if self._left:
            self._send_neighbor_reply(sender, accepted=False)
            return
        if sender in self.active:
            # Already symmetric neighbours; re-acknowledge idempotently.
            self._send_neighbor_reply(sender, accepted=True)
            return
        if message.high_priority:
            # A starving node (empty active view) is always admitted, even
            # at the cost of evicting a random member.
            self._add_to_active(sender)
            self.stats.neighbor_accepts += 1
            self._send_neighbor_reply(sender, accepted=True)
            return
        if self.active.is_full:
            self.stats.neighbor_rejects += 1
            self._send_neighbor_reply(sender, accepted=False)
            return
        self._add_to_active(sender)
        self.stats.neighbor_accepts += 1
        self._send_neighbor_reply(sender, accepted=True)

    def _send_neighbor_reply(self, peer: NodeId, accepted: bool) -> None:
        reply = NeighborReply(self.address, accepted)
        if accepted:
            # The reply rides the new symmetric link; its failure means the
            # requester died and must be cleaned up.
            self._host.send(peer, reply, on_failure=self._on_active_send_failure)
        else:
            self._host.send(peer, reply)

    def handle_neighbor_reply(self, message: NeighborReply) -> None:
        sender = message.sender
        if sender != self._pending_neighbor:
            return  # stale reply from a timed-out or superseded request
        self._cancel_neighbor_timer()
        self._pending_neighbor = None
        if message.accepted:
            self.passive.discard(sender)
            self._add_to_active(sender)
            self.stats.promotions_completed += 1
            self._fill_excluded.discard(sender)
        else:
            # Rejected candidates stay in the passive view (Section 4.3)
            # but are not retried within the same pass.
            self._fill_excluded.add(sender)
        self._fill_active_view(fresh_episode=False)

    def handle_disconnect(self, message: Disconnect) -> None:
        peer = message.sender
        self.stats.disconnects_received += 1
        if peer not in self.active:
            return
        self.active.remove(peer)
        self._host.unwatch(peer)
        self._listeners.notify_down(peer)
        # A disconnected peer is alive — it makes a good future candidate
        # (Section 4.5 explains this keeps refill probability high).
        self._add_to_passive(peer)
        # Disconnects arriving in rapid succession are eviction contention:
        # more starving nodes than free slots, each admission evicting the
        # previous winner.  Granting every eviction a fresh promotion
        # budget livelocks that loop (admit -> evict -> re-promote, with no
        # timer in the cycle), so rapid-fire disconnects spend down the
        # current episode's budget instead; the node backs off until the
        # next cycle-driven repair once it is exhausted.
        now = self._host.now()
        rapid = (
            self._last_reactive_fill is not None
            and now - self._last_reactive_fill < self._config.promotion_retry_delay
        )
        self._last_reactive_fill = now
        self._reactive_fill_streak = self._reactive_fill_streak + 1 if rapid else 0
        if self._reactive_fill_streak >= 3:
            self._fill_passes_remaining -= 1
            if self._fill_passes_remaining >= 0:
                self._fill_active_view(fresh_episode=False)
        else:
            self._fill_active_view()

    # ------------------------------------------------------------------
    # Passive view management (Section 4.4)
    # ------------------------------------------------------------------
    def shuffle_once(self) -> None:
        """Initiate one shuffle walk (the cyclic half of the protocol)."""
        target = self.active.random_member(self._rng)
        if target is None:
            return
        exchange = (
            (self.address,)
            + tuple(self.active.sample(self._rng, self._config.shuffle_ka))
            + tuple(self.passive.sample(self._rng, self._config.shuffle_kp))
        )
        self._last_shuffle_exchange = exchange
        self.stats.shuffles_initiated += 1
        self._host.send(
            target,
            Shuffle(self.address, self.address, self._config.effective_shuffle_ttl, exchange),
            on_failure=self._on_active_send_failure,
        )

    def handle_shuffle(self, message: Shuffle) -> None:
        if message.origin == self.address:
            return  # the walk looped back to its initiator; drop it
        ttl = message.ttl - 1
        if ttl > 0 and len(self.active) > 1:
            next_hop = self.active.random_member(
                self._rng, exclude=(message.sender, message.origin)
            )
            if next_hop is not None:
                self.stats.shuffles_forwarded += 1
                self._host.send(
                    next_hop,
                    Shuffle(message.origin, self.address, ttl, message.exchange),
                    on_failure=self._on_active_send_failure,
                )
                return
        # Accept: answer with an equally sized passive-view sample over a
        # temporary connection straight back to the origin.
        self.stats.shuffles_accepted += 1
        reply_sample = self.passive.sample(self._rng, len(message.exchange))
        self._host.send(
            message.origin,
            ShuffleReply(self.address, tuple(reply_sample)),
            on_failure=self._on_shuffle_reply_failure,
        )
        self._integrate_exchange(message.exchange, sent=tuple(reply_sample))

    def handle_shuffle_reply(self, message: ShuffleReply) -> None:
        self.stats.shuffle_replies_received += 1
        self._integrate_exchange(message.exchange, sent=self._last_shuffle_exchange)
        if not self.active.is_full:
            # Fresh candidates may unblock a stalled repair.
            self._fill_active_view()

    def _integrate_exchange(self, received: tuple[NodeId, ...], sent: tuple[NodeId, ...]) -> None:
        """Merge shuffle identifiers into the passive view (Section 4.4).

        Skips our own identifier and already-known nodes; when the view is
        full, evicts identifiers that were sent to the peer first, then
        random ones.
        """
        eviction_candidates = [node for node in sent if node in self.passive]
        for node in received:
            if node == self.address or node in self.active or node in self.passive:
                continue
            if self.passive.is_full:
                victim = None
                while eviction_candidates:
                    candidate = eviction_candidates.pop()
                    if candidate in self.passive:
                        victim = candidate
                        break
                if victim is None:
                    victim = self.passive.random_member(self._rng)
                self.passive.remove(victim)
            self.passive.add(node)

    # ------------------------------------------------------------------
    # View manipulation primitives (Algorithm 1, Section 4.5)
    # ------------------------------------------------------------------
    def _add_to_active(self, node: NodeId) -> bool:
        """``addNodeActiveView``: returns whether the node was inserted."""
        if node == self.address or node in self.active:
            return False
        if self.active.is_full:
            self._drop_random_from_active()
        self.passive.discard(node)
        self.active.add(node)
        # Hold the symmetric TCP connection: its loss is the failure
        # detector (Section 1, point iii).
        self._host.watch(node, self._on_link_down)
        self._listeners.notify_up(node)
        return True

    def _drop_random_from_active(self) -> None:
        """``dropRandomElementFromActiveView``: evict, notify, demote."""
        victim = self.active.random_member(self._rng)
        if victim is None:
            return
        self._disconnect(victim)
        self.active.remove(victim)
        self._host.unwatch(victim)
        self._listeners.notify_down(victim)
        self._add_to_passive(victim)

    def _disconnect(self, peer: NodeId) -> None:
        """Send DISCONNECT to ``peer`` and void our NEIGHBOR request to it.

        The peer handles our request (if still in flight) before the
        DISCONNECT, so whatever it replies describes a link the DISCONNECT
        then tears down.  Accepting that late reply would re-add a peer
        that no longer holds us: a one-way link for good.
        """
        self._host.send(peer, Disconnect(self.address))
        if peer == self._pending_neighbor:
            self._cancel_neighbor_timer()
            self._pending_neighbor = None

    def _add_to_passive(self, node: NodeId) -> bool:
        """``addNodePassiveView``: random eviction when full."""
        if node == self.address or node in self.active or node in self.passive:
            return False
        if self.passive.is_full:
            victim = self.passive.random_member(self._rng)
            if victim is not None:
                self.passive.remove(victim)
        self.passive.add(node)
        return True

    # ------------------------------------------------------------------
    # Passive -> active promotion (Section 4.3)
    # ------------------------------------------------------------------
    def _fill_active_view(self, *, fresh_episode: bool = True) -> None:
        """Promote passive candidates until the active view is full.

        One NEIGHBOR request is outstanding at a time; each candidate is
        first probed (the paper's "attempt to establish a TCP connection"),
        unreachable candidates are expunged from the passive view, and
        rejections move on to the next candidate.

        Section 4.3's loop never gives up after a rejection ("the initiator
        will select another node ... and repeat the whole procedure"):
        after a full pass of rejections the pass restarts, paced by
        ``promotion_retry_delay`` and bounded by ``promotion_max_passes``
        so simulations always quiesce.  A fresh trigger (new failure,
        disconnect, new candidates) starts a new episode with a full
        budget.
        """
        if fresh_episode:
            self._fill_passes_remaining = self._config.promotion_max_passes
        if self._pending_neighbor is not None:
            return
        if self.active.is_full:
            self._end_fill_episode()
            return
        candidate = self.passive.random_member(self._rng, exclude=self._fill_excluded)
        if candidate is None:
            # Every candidate was tried this pass; the rejections were about
            # *momentarily* full views on the other side, so start over
            # after a pacing delay while budget remains.
            self._fill_excluded.clear()
            if self.passive.is_empty or self._fill_passes_remaining <= 0:
                self._end_fill_episode()
                return
            self._fill_passes_remaining -= 1
            if self._fill_retry_timer is None:
                self._fill_retry_timer = self._host.schedule(
                    self._config.promotion_retry_delay, self._retry_fill_pass
                )
            return
        self._pending_neighbor = candidate
        self._host.probe(candidate, self._on_probe_result)

    def _retry_fill_pass(self) -> None:
        self._fill_retry_timer = None
        self._fill_active_view(fresh_episode=False)

    def _end_fill_episode(self) -> None:
        self._fill_excluded.clear()
        self._fill_passes_remaining = 0
        if self._fill_retry_timer is not None:
            self._fill_retry_timer.cancel()
            self._fill_retry_timer = None

    def _on_probe_result(self, peer: NodeId, ok: bool) -> None:
        if peer != self._pending_neighbor:
            return
        if not ok:
            self.passive.discard(peer)
            self._pending_neighbor = None
            self._fill_active_view(fresh_episode=False)
            return
        if self.active.is_full:
            # Filled by incoming requests while we were probing.
            self._pending_neighbor = None
            self._end_fill_episode()
            return
        high_priority = self.active.is_empty
        self._host.send(
            peer,
            Neighbor(self.address, high_priority),
            on_failure=self._on_neighbor_request_failure,
        )
        timeout = self._config.neighbor_request_timeout
        if timeout is not None:
            self._neighbor_timer = self._host.schedule(
                timeout, lambda: self._on_neighbor_timeout(peer)
            )

    def _on_neighbor_request_failure(self, peer: NodeId, _message: Message) -> None:
        if peer != self._pending_neighbor:
            return
        self._cancel_neighbor_timer()
        self.passive.discard(peer)
        self._pending_neighbor = None
        self._fill_active_view(fresh_episode=False)

    def _on_neighbor_timeout(self, peer: NodeId) -> None:
        if peer != self._pending_neighbor:
            return
        self._neighbor_timer = None
        self._pending_neighbor = None
        self._fill_excluded.add(peer)
        self._fill_active_view(fresh_episode=False)

    def _cancel_neighbor_timer(self) -> None:
        if self._neighbor_timer is not None:
            self._neighbor_timer.cancel()
            self._neighbor_timer = None

    def _cancel_pending_promotion(self) -> None:
        self._cancel_neighbor_timer()
        self._pending_neighbor = None
        self._end_fill_episode()

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _on_active_send_failure(self, peer: NodeId, _message: Message) -> None:
        self.report_failure(peer)

    def _on_link_down(self, peer: NodeId) -> None:
        """The held TCP connection to an active-view member reset."""
        self.report_failure(peer)

    def _on_shuffle_reply_failure(self, peer: NodeId, _message: Message) -> None:
        # The shuffle origin died before our temporary connection went
        # through; make sure it is not kept as a candidate.
        self.passive.discard(peer)

    def _periodic_shuffle(self) -> None:
        if not self._running:
            return
        self.cycle()
        self._shuffle_timer = self._host.schedule(
            self._config.shuffle_period, self._periodic_shuffle
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<HyParView {self.address} active={len(self.active)}/{self.active.capacity} "
            f"passive={len(self.passive)}/{self.passive.capacity}>"
        )
