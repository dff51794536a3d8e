"""In-memory span tracer for the traced benchmark run.

The tracer times calls into each layer's public functions from the
benchmark's own code: it wraps class attributes and module-level lookups
of the ``repro`` package, never editing the package itself.  Wrappers must
be installed *before* a scenario or cluster is built, because the program
pre-binds hot methods at wiring time (``SimNode`` handler dicts,
``SimTransport._network_send``, ``SimClock._engine_schedule``,
``Network._post``, the transport's ``on_message`` callback).

Every span carries a layer key.  A span's *self time* is its duration
minus the time covered by the spans it encloses; self times summed over
all keys plus the unattributed remainder equal the wall time of the
traced phase.  Plain counters (hash calls, view operations, timers) are
counted without timing.  Raw spans are kept in memory up to a cap and
written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Raw spans kept for the span dump; later spans are only aggregated.
SPAN_KEEP = 100_000

# Span keys are ``"<layer>/<what>"``; a layer's self time is the sum over
# its keys.  Message handling is keyed by the message's owner layer.
ENGINE = "sim.engine"
NETWORK = "sim.network"
PROTOCOL = "core.protocol"
GOSSIP = "gossip"
BYZANTINE = "gossip.byzantine"
HARNESS = "experiments"
TRANSPORT = "runtime.transport"
PUBSUB = "service.pubsub"


class Tracer:
    """Self time, calls and plain counters per key, plus raw spans."""

    def __init__(self, keep: int = SPAN_KEEP) -> None:
        self.keep = keep
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peaks: defaultdict[str, int] = defaultdict(int)
        #: (key, start, end, parent key) of the first ``keep`` spans.
        self.spans: list[tuple[str, float, float, str]] = []
        self.spans_total = 0
        # One open frame per active span: [key, time covered by children].
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    def timed(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``key``."""
        return self.timed_by(lambda *_args: key, fn)

    def timed_by(self, key_of: Callable[..., str], fn: Callable) -> Callable:
        """``fn`` wrapped in a span whose key ``key_of(*args)`` picks."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(*args)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[key] += elapsed - frame[1]
                calls[key] += 1
                parent = ""
                if stack:
                    outer = stack[-1]
                    outer[1] += elapsed
                    parent = outer[0]
                self.spans_total += 1
                if len(spans) < self.keep:
                    spans.append((key, start, end, parent))

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a plain call counter (no timing)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset(self) -> None:
        """Forget every aggregate and kept span (start of a new traced
        phase).  Cleared in place: the wrappers hold these containers."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.peaks.clear()
        self.spans.clear()
        self.spans_total = 0

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed per layer (the key up to its ``/``)."""
        layers: defaultdict[str, float] = defaultdict(float)
        for key, seconds in self.self_s.items():
            layers[key.split("/", 1)[0]] += seconds
        return dict(layers)

    def table(self, base_s: float, title: str) -> str:
        """Per-key and per-layer self time and call counts as text.

        ``base_s`` is the phase's wall (or CPU) time; the remainder no span
        covers is shown as unattributed.
        """
        lines = [f"{title}: {base_s:.3f} s",
                 f"  {'span':34s} {'self s':>9s} {'share':>7s} {'calls':>10s}"]
        for key, seconds in sorted(self.self_s.items(), key=lambda item: -item[1]):
            lines.append(f"  {key:34s} {seconds:9.3f} {seconds / base_s:7.1%} "
                         f"{self.calls[key]:10d}")
        lines.append(f"  {'layer':34s} {'self s':>9s} {'share':>7s}")
        layers = self.layer_self_s()
        layers["(unattributed)"] = base_s - sum(layers.values())
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            lines.append(f"  {layer:34s} {seconds:9.3f} {seconds / base_s:7.1%}")
        for key, count in sorted({**self.counts, **self.peaks}.items()):
            lines.append(f"  count {key:28s} {count:>20d}")
        return "\n".join(lines)

    def dump(self, path) -> None:
        """Write the kept raw spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for key, start, end, parent in self.spans:
                out.write(json.dumps({"key": key, "start": start, "end": end,
                                      "parent": parent}) + "\n")


# ----------------------------------------------------------------------
# Layer ownership
# ----------------------------------------------------------------------
def message_layer(message_type: type) -> str:
    """The layer that handles messages of ``message_type``."""
    module = message_type.__module__
    if module.startswith("repro.gossip"):
        return BYZANTINE if message_type.__name__.startswith("BRB") else GOSSIP
    if module.startswith(("repro.core", "repro.protocols")):
        return PROTOCOL
    return "other"


def callback_layer(callback: Any) -> str:
    """The layer that owns a timer or failure callback (a bound method)."""
    owner = getattr(callback, "__self__", None)
    module = type(owner).__module__ if owner is not None else ""
    if module.startswith("repro.gossip.byzantine"):
        return BYZANTINE
    if module.startswith("repro.gossip"):
        return GOSSIP
    if module.startswith(("repro.core", "repro.protocols")):
        return PROTOCOL
    return ENGINE


class _HandleKey:
    """Memoised ``message -> "<layer>/handle"`` key for traced deliveries."""

    def __init__(self, position: int) -> None:
        self._position = position
        self._cache: dict[type, str] = {}

    def __call__(self, *args: Any) -> str:
        kind = type(args[self._position])
        key = self._cache.get(kind)
        if key is None:
            key = self._cache[kind] = message_layer(kind) + "/handle"
        return key


def _callback_key(position: int) -> Callable[..., str]:
    def key_of(*args: Any) -> str:
        return callback_layer(args[position]) + "/callback"

    return key_of


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def wrap(self, owner: Any, name: str, wrapper: Callable[[Callable], Callable]) -> None:
        self.set(owner, name, wrapper(vars(owner)[name]))

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _count_common(tracer: Tracer, patches: Patches) -> None:
    """Counters shared by every workload: id hashing and view operations."""
    from repro.common.ids import MessageId, NodeId
    from repro.core.views import BoundedView

    hashes = functools.partial(tracer.counted, "common.ids.hash_calls")
    for cls in (NodeId, MessageId):
        patches.wrap(cls, "__hash__", hashes)
    view_ops = functools.partial(tracer.counted, "core.views.ops")
    for name, value in list(vars(BoundedView).items()):
        if callable(value) and name not in ("__init__", "__repr__"):
            patches.wrap(BoundedView, name, view_ops)


def install_sim(tracer: Tracer) -> Patches:
    """Wrap the simulator's layers; call before any ``Scenario`` exists."""
    from repro.experiments import Scenario
    from repro.gossip.base import BroadcastLayer
    from repro.gossip.byzantine import BRBGossip
    from repro.gossip.tracker import BroadcastTracker
    from repro.sim.clock import SimClock
    from repro.sim.engine import Engine, EventHandle
    from repro.sim.network import Network
    from repro.sim.node import SimNode

    patches = Patches()
    _count_common(tracer, patches)
    timed, timed_by = tracer.timed, tracer.timed_by
    for name in ("run_until", "run_until_idle"):
        patches.wrap(Engine, name, functools.partial(timed, ENGINE + "/run"))
    for name in ("schedule", "schedule_at"):
        patches.wrap(Engine, name,
                     functools.partial(tracer.counted, "sim.engine.timers_scheduled"))
    original_cancel = EventHandle.cancel
    counts = tracer.counts

    @functools.wraps(original_cancel)
    def cancel(handle):
        if not handle._cancelled:
            counts["sim.engine.timers_cancelled"] += 1
        original_cancel(handle)

    patches.set(EventHandle, "cancel", cancel)
    patches.wrap(SimNode, "deliver", functools.partial(timed_by, _HandleKey(1)))
    patches.wrap(Network, "send", functools.partial(timed, NETWORK + "/send"))
    # Failure, link-down and probe notifications and node timers run
    # protocol callbacks straight from the engine: charge the callback's
    # owner.  Arguments: (network, src, dst, message, on_failure), ...
    patches.wrap(Network, "_notify_failure", functools.partial(timed_by, _callback_key(4)))
    patches.wrap(Network, "_notify_link_down", functools.partial(timed_by, _callback_key(3)))
    patches.wrap(Network, "_probe_result", functools.partial(timed_by, _callback_key(4)))
    patches.wrap(SimClock, "_guarded", functools.partial(timed_by, _callback_key(1)))
    patches.wrap(BroadcastLayer, "broadcast", functools.partial(timed, GOSSIP + "/broadcast"))
    patches.wrap(BRBGossip, "broadcast", functools.partial(timed, BYZANTINE + "/broadcast"))
    patches.wrap(BroadcastTracker, "finalize", functools.partial(timed, HARNESS + "/finalize"))
    patches.wrap(Scenario, "freeze", functools.partial(timed, HARNESS + "/freeze"))
    patches.set(Scenario, "thaw", staticmethod(timed(HARNESS + "/thaw", Scenario.thaw)))
    return patches


def install_live(tracer: Tracer) -> Patches:
    """Wrap the live runtime's layers; call before any cluster starts."""
    import json as json_module
    import types

    import repro.runtime.transport as transport_module
    from repro.gossip.base import BroadcastLayer
    from repro.runtime.node import RuntimeNode
    from repro.runtime.transport import AsyncioTransport
    from repro.service.pubsub import PubSubClient, PubSubNode, Subscription

    patches = Patches()
    _count_common(tracer, patches)
    timed = tracer.timed
    encode = functools.partial(timed, TRANSPORT + "/encode")
    decode = functools.partial(timed, TRANSPORT + "/decode")
    patches.wrap(AsyncioTransport, "send", functools.partial(timed, TRANSPORT + "/send"))
    # The codec is patched where the transport looks it up.
    patches.wrap(transport_module, "encode_message", encode)
    patches.wrap(transport_module, "decode_message", decode)
    patches.set(transport_module, "json", types.SimpleNamespace(
        dumps=encode(json_module.dumps),
        loads=decode(json_module.loads),
        JSONDecodeError=json_module.JSONDecodeError,
    ))
    patches.wrap(RuntimeNode, "_dispatch", functools.partial(tracer.timed_by, _HandleKey(2)))
    patches.wrap(BroadcastLayer, "broadcast", functools.partial(timed, GOSSIP + "/broadcast"))
    patches.wrap(PubSubClient, "publish", functools.partial(timed, PUBSUB + "/publish"))
    patches.wrap(PubSubNode, "_on_deliver", functools.partial(timed, PUBSUB + "/deliver"))
    original_feed = Subscription._feed
    peaks = tracer.peaks

    @functools.wraps(original_feed)
    def feed(subscription, message):
        original_feed(subscription, message)
        depth = subscription.qsize()
        if depth > peaks["service.pubsub.queue_peak"]:
            peaks["service.pubsub.queue_peak"] = depth

    patches.set(Subscription, "_feed", feed)
    return patches
