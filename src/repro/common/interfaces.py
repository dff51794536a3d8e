"""Sans-io interfaces that decouple protocol logic from its environment.

Every protocol in this library (HyParView, Cyclon, Scamp, the gossip layers)
is a state machine that only ever talks to these three abstractions:

* :class:`Clock` — read the current time and schedule callbacks;
* :class:`Transport` — send messages and probe connectivity;
* a seeded :class:`random.Random` stream.

The discrete-event simulator (:mod:`repro.sim`) and the asyncio runtime
(:mod:`repro.runtime`) both implement these interfaces, so the *identical*
protocol code runs in simulation and over real TCP sockets.  This is the
architectural move that lets the reproduction also cover the paper's future
work item of a deployable implementation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

from .ids import NodeId
from .messages import Message

#: Callback invoked when a reliable send could not be delivered.  Receives
#: the unreachable peer and the message that failed.  This is the "TCP as a
#: failure detector" signal from the paper (Section 1, point iii).
FailureCallback = Callable[[NodeId, Message], None]

#: Callback invoked with the outcome of a connection probe: the peer and
#: ``True`` when a connection could be established.
ProbeCallback = Callable[[NodeId, bool], None]


class TimerHandle(ABC):
    """A cancellable handle returned by :meth:`Clock.schedule`."""

    __slots__ = ()

    @abstractmethod
    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired or was cancelled."""

    @property
    @abstractmethod
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the timer fired."""


class Clock(ABC):
    """Time source and timer scheduler seen by a protocol instance."""

    __slots__ = ()

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` seconds; returns a cancellable
        handle.  ``delay`` may be zero (run as soon as possible)."""


class Transport(ABC):
    """Message channel seen by a protocol instance.

    Two delivery disciplines are offered through one method:

    * ``send(dst, msg)`` — *datagram* semantics: best effort, silently lost
      if the destination is down or the network drops it.  This models the
      unreliable transport under plain Cyclon/Scamp gossip.
    * ``send(dst, msg, on_failure=cb)`` — *reliable* semantics: the message
      is delivered exactly once if the destination is up, and ``cb`` fires
      if it is not (TCP connection reset / ack timeout).  No random loss is
      applied — TCP retransmits.  HyParView and CyclonAcked use this form.
    """

    __slots__ = ()

    @property
    @abstractmethod
    def local_address(self) -> NodeId:
        """The identity messages from this transport are attributed to."""

    @abstractmethod
    def send(
        self,
        dst: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        """Send ``message`` to ``dst`` (see class docstring for semantics)."""

    @abstractmethod
    def probe(self, dst: NodeId, on_result: ProbeCallback) -> None:
        """Attempt to establish a connection to ``dst``.

        HyParView uses this when promoting a passive-view member (Section
        4.3: "attempts to establish a TCP connection; if the connection
        fails to establish, node q is considered failed").
        """

    @abstractmethod
    def watch(self, dst: NodeId, on_down: Callable[[NodeId], None]) -> None:
        """Hold an open connection to ``dst`` and watch for its loss.

        Models the persistent TCP connection a node keeps to every active
        view member (Section 4.1): when the peer crashes, the connection
        resets and the holder learns about it *without having to send*.
        ``on_down`` fires (once) with the peer when that happens.  Watching
        an already-watched peer replaces the callback.
        """

    @abstractmethod
    def unwatch(self, dst: NodeId) -> None:
        """Close the held connection to ``dst``; no-op if not watching."""


@dataclass(slots=True)
class Host:
    """Bundle of everything a protocol instance needs from its environment.

    Passing one object keeps protocol constructors uniform across the
    simulator and the runtime.
    """

    address: NodeId
    clock: Clock
    transport: Transport
    rng: random.Random
    #: Restart count of the owning process (0 for the first incarnation).
    #: Broadcast layers scope their message-id sequence ranges by it so a
    #: revived process never re-mints an id its predecessor already used.
    incarnation: int = 0

    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.clock.schedule(delay, callback)

    def send(
        self,
        dst: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        self.transport.send(dst, message, on_failure)

    def probe(self, dst: NodeId, on_result: ProbeCallback) -> None:
        self.transport.probe(dst, on_result)

    def watch(self, dst: NodeId, on_down: Callable[[NodeId], None]) -> None:
        self.transport.watch(dst, on_down)

    def unwatch(self, dst: NodeId) -> None:
        self.transport.unwatch(dst)
