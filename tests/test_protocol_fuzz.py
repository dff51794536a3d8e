"""Property-based fuzzing of the HyParView state machine.

Hypothesis drives random interleavings of joins, crashes, graceful leaves,
membership cycles and broadcasts against a small simulated network, then
checks the protocol's global invariants at quiescence:

* a node never appears in its own views;
* active and passive views are disjoint and within capacity;
* the active-view graph over live nodes is symmetric (Section 4.1) —
  guaranteed at quiescence under per-pair FIFO delivery, which the
  constant-latency network provides;
* live nodes never hold crashed nodes in their active views once they have
  observed the crash (watch notifications are drained);
* a broadcast reaches exactly the origin's connected component (flooding
  is deterministic).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HyParViewConfig
from repro.metrics.graph import OverlaySnapshot
from repro.sim.network import ByzantineBehavior

from repro.testing import World

CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=6,
    arwl=3,
    prwl=2,
    shuffle_ka=2,
    shuffle_kp=2,
    promotion_retry_delay=0.2,
    promotion_max_passes=5,
)

NODES = 8

operation = st.one_of(
    st.tuples(st.just("join"), st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    st.tuples(st.just("crash"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("leave"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("cycle"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("broadcast"), st.integers(0, NODES - 1), st.just(0)),
    # A peer that starts equivocating (different corrupted flood payload
    # per destination) — membership must be unaffected, since corruption
    # touches only gossip payloads, never the view-maintenance frames.
    st.tuples(st.just("equivocate"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("honest"), st.integers(0, NODES - 1), st.just(0)),
)


class Fuzzer:
    def __init__(self, seed: int) -> None:
        self.world = World(seed=seed)
        self.pairs = [self.world.hyparview(config=CONFIG) for _ in range(NODES)]
        self.nodes = [node for node, _ in self.pairs]
        self.protocols = [protocol for _, protocol in self.pairs]
        self.layers = [
            self.world.with_flood(node, protocol) for node, protocol in self.pairs
        ]
        # Bootstrap: everyone joins through node 0 so there is an overlay
        # to perturb.
        self.world.join_chain(self.protocols)

    def alive(self, index: int) -> bool:
        return self.nodes[index].alive

    def apply(self, op: tuple) -> None:
        kind, a, b = op
        if kind == "join":
            if a != b and self.alive(a) and self.alive(b):
                # Re-joining while already joined is legal (a reconnecting
                # node); the protocol must tolerate it.
                self.protocols[a].join(self.protocols[b].address)
        elif kind == "crash":
            if self.alive(a) and self._alive_count() > 2:
                self.world.network.fail(self.nodes[a].node_id)
        elif kind == "leave":
            if self.alive(a) and self._alive_count() > 2:
                self.protocols[a].leave()
                self.world.drain()
                self.world.network.fail(self.nodes[a].node_id)
        elif kind == "cycle":
            if self.alive(a):
                self.protocols[a].cycle()
        elif kind == "broadcast":
            if self.alive(a):
                self.layers[a].broadcast(None)
        elif kind == "equivocate":
            if self.alive(a):
                self.world.network.set_byzantine(
                    self.nodes[a].node_id,
                    ByzantineBehavior(("GossipData",), equivocate=True),
                )
        elif kind == "honest":
            self.world.network.set_byzantine(self.nodes[a].node_id, None)
        self.world.drain()

    def _alive_count(self) -> int:
        return sum(1 for node in self.nodes if node.alive)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        live = {
            node.node_id: protocol
            for node, protocol in zip(self.nodes, self.protocols)
            if node.alive
        }
        for node_id, protocol in live.items():
            active = set(protocol.active_members())
            passive = set(protocol.passive_members())
            assert node_id not in active, "node in own active view"
            assert node_id not in passive, "node in own passive view"
            assert not active & passive, "active and passive views overlap"
            assert len(active) <= CONFIG.active_view_capacity
            assert len(passive) <= CONFIG.passive_view_capacity
        # Symmetry over live pairs at quiescence.
        for node_id, protocol in live.items():
            for peer in protocol.active_members():
                if peer in live:
                    assert node_id in live[peer].active_members(), (
                        f"asymmetric link {node_id} -> {peer}"
                    )

    def check_flood_covers_component(self) -> None:
        live_ids = [node.node_id for node in self.nodes if node.alive]
        if not live_ids:
            return
        views = {
            node.node_id: protocol.active_members()
            for node, protocol in zip(self.nodes, self.protocols)
        }
        snapshot = OverlaySnapshot.from_out_neighbors(views, restrict_to=set(live_ids))
        components = snapshot.connected_components()
        origin_index = next(i for i in range(NODES) if self.nodes[i].alive)
        origin_id = self.nodes[origin_index].node_id
        component = next(c for c in components if origin_id in c)
        message_id = self.layers[origin_index].broadcast("probe")
        self.world.drain()
        delivered = {
            node.node_id
            for node, layer in zip(self.nodes, self.layers)
            if node.alive and layer.has_delivered(message_id)
        }
        assert delivered >= component, (
            f"flood missed nodes in the origin's component: {component - delivered}"
        )


class TestProtocolFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(operation, max_size=30),
    )
    def test_invariants_hold_under_any_event_sequence(self, seed, operations):
        fuzzer = Fuzzer(seed)
        for op in operations:
            fuzzer.apply(op)
        fuzzer.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(operation, max_size=20),
    )
    def test_flood_reaches_origin_component(self, seed, operations):
        fuzzer = Fuzzer(seed)
        for op in operations:
            fuzzer.apply(op)
        fuzzer.check_flood_covers_component()

    def test_fuzzer_bootstrap_is_sane(self):
        fuzzer = Fuzzer(7)
        fuzzer.check_invariants()
        assert all(len(p.active_members()) >= 1 for p in fuzzer.protocols)


class TestEvictionContention:
    def test_starving_nodes_contending_for_one_slotholder_quiesce(self):
        """Regression (found by hypothesis): several starving nodes whose
        passive views all point at one popular node used to livelock —
        each high-priority NEIGHBOR admission evicted the previous winner,
        whose disconnect-triggered repair re-promoted it with a fresh
        budget, generating an unbounded admit/evict/re-promote message
        cycle that run_until_idle could never drain."""
        operations = [
            ("broadcast", 0, 0), ("leave", 0, 0), ("join", 3, 6),
            ("join", 5, 4), ("join", 0, 3), ("cycle", 6, 0),
            ("crash", 2, 0), ("join", 2, 7), ("crash", 3, 0),
            ("broadcast", 6, 0), ("cycle", 5, 0),
        ]
        fuzzer = Fuzzer(2403)
        for op in operations:
            fuzzer.apply(op)  # raised SimulationError (runaway) before
        fuzzer.check_invariants()


class TestCrossingNeighborRequests:
    def test_evicting_the_pending_neighbor_voids_its_late_reply(self):
        """Regression (found by hypothesis): n0's NEIGHBOR request to n5
        crossed n5's own request to n0.  n0 admitted n5, evicted it one
        hop later to make room for a FORWARDJOIN, and then accepted n5's
        late NeighborReply for the old request, after n5 had already
        processed the DISCONNECT.  The link n0 -> n5 stayed one-way."""
        fuzzer = Fuzzer(6525)
        for op in [("join", 4, 2), ("join", 4, 2)]:
            fuzzer.apply(op)
        fuzzer.check_invariants()
        assert all(p._pending_neighbor is None for p in fuzzer.protocols)
