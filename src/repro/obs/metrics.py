"""Typed metric instruments and the unified registry.

One registry per node/cluster absorbs the scattered stats the codebase
grew organically (``Network`` drop counters, kernel ``events_fired_total``,
transport epoch/staleness audits, service breaker and token-bucket
counters, ``LatencyHistogram``): sources register *collector*
callbacks that refresh instrument values at snapshot/scrape time, so the
hot paths keep their existing plain-int counters and pay nothing for the
registry's existence.

Two output surfaces:

* :meth:`MetricsRegistry.snapshot` — a deterministic, sorted, JSON-safe
  dict for simulation artifacts (``METRICS_*.json``).
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (version 0.0.4), dependency-free, served by
  :mod:`repro.obs.http` on the live service.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds, in seconds (latency-oriented).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared labelled-value storage for counters and gauges."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def clear(self) -> None:
        self._values.clear()

    def samples(self) -> list[tuple[str, LabelKey, float]]:
        return [(self.name, key, value) for key, value in sorted(self._values.items())]


class Counter(_Instrument):
    """Monotonically increasing count.

    ``set_total`` exists for collectors that mirror an externally-owned
    plain-int counter (the common case here); ``inc`` is for code that
    owns its count in the registry.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)


class Gauge(_Instrument):
    """A value that can go up and down (queue depths, breaker state)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def clear(self) -> None:
        self._counts.clear()
        self._sums.clear()
        self._totals.clear()

    def samples(self) -> list[tuple[str, LabelKey, float]]:
        out: list[tuple[str, LabelKey, float]] = []
        for key in sorted(self._counts):
            counts = self._counts[key]
            for bound, count in zip(self.buckets, counts):
                le = (("le", _format_value(bound)),)
                out.append((f"{self.name}_bucket", tuple(sorted(key + le)), float(count)))
            inf = (("le", "+Inf"),)
            out.append(
                (f"{self.name}_bucket", tuple(sorted(key + inf)), float(self._totals[key]))
            )
            out.append((f"{self.name}_sum", key, self._sums[key]))
            out.append((f"{self.name}_count", key, float(self._totals[key])))
        return out


class MetricsRegistry:
    """A named set of instruments plus collect-on-demand callbacks."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._collectors: list[Callable[[], None]] = []

    def _get(self, name: str, factory: Callable[[], object]) -> object:
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = factory()
            self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._get(name, lambda: Counter(name, help))
        if not isinstance(instrument, Counter):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._get(name, lambda: Gauge(name, help))
        if not isinstance(instrument, Gauge):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._get(
            name, lambda: Histogram(name, help, buckets or DEFAULT_BUCKETS)
        )
        if not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def register_collector(self, collect: Callable[[], None]) -> None:
        """``collect`` runs before every snapshot/exposition, refreshing values."""
        self._collectors.append(collect)

    def collect(self) -> None:
        for collect in self._collectors:
            collect()

    def snapshot(self) -> dict:
        """Deterministic JSON-safe view: ``{metric: {label-string: value}}``."""
        self.collect()
        out: dict[str, dict[str, float]] = {}
        for name in sorted(self._metrics):
            instrument = self._metrics[name]
            series = {
                sample_name + _format_labels(key): value
                for sample_name, key, value in instrument.samples()
            }
            out[name] = dict(sorted(series.items()))
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4)."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._metrics):
            instrument = self._metrics[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for sample_name, key, value in instrument.samples():
                lines.append(f"{sample_name}{_format_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + "\n"
