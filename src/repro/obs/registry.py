"""The metrics registry: counters, gauges, breakdowns, latency timers.

A :class:`Registry` is a plain bag of numeric aggregates with three
properties the pipeline depends on:

* **Mergeable.**  :meth:`Registry.absorb` is associative and commutative
  (counter/breakdown/timer sums, gauge maxima), so per-shard registries
  from worker processes can be folded together in any order and yield the
  same totals — the property suite in ``tests/obs`` checks exactly that.
  Registries are picklable (they hold only dicts of numbers), which is how
  the sharded analyzer ships them back over the result pipe next to each
  shard's :class:`~repro.core.detector.DetectorStats`.
* **Cheap when enabled.**  Hot call sites grab the raw breakdown dicts
  once (:meth:`breakdown`) and increment them directly; timers are fed by
  sampled measurements recorded with a weight (see :meth:`Timer.record`),
  so per-event instrumentation stays under the smoke gate's 5% budget.
* **Free when disabled.**  ``Registry(enabled=False)`` (or the shared
  :data:`NULL_REGISTRY`) accepts every call and records nothing, and the
  instrumented components drop their obs handle entirely when handed a
  disabled registry — the hot paths then pay a single ``is None`` test.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Hashable, Optional

__all__ = ["DEFAULT_SAMPLE_INTERVAL", "NULL_REGISTRY", "Registry", "Timer"]

#: Every Nth event is timed (and pair-attributed) in sequential hot loops.
#: A sampled event costs roughly two orders of magnitude more than the
#: per-event fixed cost (timer records, point re-enumeration, AccessPoint
#: dict stores), so the interval is what keeps enabled-mode overhead inside
#: the benchmark gate's 5% budget with headroom for machine noise.
DEFAULT_SAMPLE_INTERVAL = 256


class Timer:
    """A latency aggregate: weighted totals plus a power-of-two histogram.

    ``record(ns, weight)`` adds one *measured* duration standing in for
    ``weight`` unmeasured ones (sampled instrumentation records with
    ``weight = sample_interval``; exact spans use weight 1).  ``count``
    and ``total_ns`` are therefore weighted estimates of the phase's
    invocation count and total time; ``samples`` counts raw measurements;
    ``min_ns``/``max_ns`` bound the raw measurements.  Buckets map a
    duration's ``int.bit_length()`` (i.e. ``floor(log2(ns)) + 1``) to a
    weighted count, giving a sparse log-scale latency histogram.
    """

    __slots__ = ("count", "samples", "total_ns", "min_ns", "max_ns",
                 "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.samples = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def record(self, ns: int, weight: int = 1) -> None:
        self.count += weight
        self.samples += 1
        self.total_ns += ns * weight
        if self.min_ns is None or ns < self.min_ns:
            self.min_ns = ns
        if self.max_ns is None or ns > self.max_ns:
            self.max_ns = ns
        bucket = ns.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + weight

    def absorb(self, other: "Timer") -> None:
        self.count += other.count
        self.samples += other.samples
        self.total_ns += other.total_ns
        if other.min_ns is not None:
            if self.min_ns is None or other.min_ns < self.min_ns:
                self.min_ns = other.min_ns
        if other.max_ns is not None:
            if self.max_ns is None or other.max_ns > self.max_ns:
                self.max_ns = other.max_ns
        for bucket, weight in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + weight

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "samples": self.samples,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "buckets": {str(k): v
                        for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:
        return (f"Timer(count={self.count}, samples={self.samples}, "
                f"total_ns={self.total_ns})")


class _Span:
    """Context manager timing one exact span into a registry timer."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.timer(self._name).record(
            time.perf_counter_ns() - self._start)


class _NullSpan:
    """A reusable no-op span for disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Registry:
    """One component's (or one shard's) metric aggregates.

    Parameters
    ----------
    enabled:
        When false every mutator is a no-op and :meth:`snapshot` stays
        empty; instrumented components treat a disabled registry exactly
        like ``obs=None``.
    sample_interval:
        Period of the sampled per-event instrumentation in the sequential
        hot loops (timers and the per-pair check breakdown).  Recorded in
        the snapshot so scaled estimates stay interpretable.
    """

    def __init__(self, enabled: bool = True,
                 sample_interval: int = DEFAULT_SAMPLE_INTERVAL):
        if sample_interval < 1:
            raise ValueError(
                f"sample_interval must be >= 1, got {sample_interval}")
        self.enabled = enabled
        self.sample_interval = sample_interval
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._breakdowns: Dict[str, Dict[Hashable, int]] = {}
        self._timers: Dict[str, Timer] = {}

    # -- mutators ----------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Increment a plain counter."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a level; merging keeps the maximum observed."""
        if not self.enabled:
            return
        prior = self._gauges.get(name)
        if prior is None or value > prior:
            self._gauges[name] = value

    def breakdown(self, name: str) -> Dict[Hashable, int]:
        """The raw labeled-counter dict — hot sites increment it directly.

        Disabled registries hand out throwaway dicts so call sites need no
        conditional (anything written to one is discarded).
        """
        if not self.enabled:
            return {}
        table = self._breakdowns.get(name)
        if table is None:
            table = self._breakdowns[name] = {}
        return table

    def count_in(self, name: str, key: Hashable, amount: int = 1) -> None:
        """Convenience increment into a breakdown (cold call sites)."""
        if not self.enabled:
            return
        table = self.breakdown(name)
        table[key] = table.get(key, 0) + amount

    def timer(self, name: str) -> Timer:
        """The named :class:`Timer`, created on first use."""
        if not self.enabled:
            return Timer()
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer()
        return timer

    def span(self, name: str):
        """``with registry.span("stamp"): ...`` — an exact timed span."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- merging -----------------------------------------------------------

    def absorb(self, other: "Registry") -> None:
        """Fold another registry's aggregates into this one.

        Associative and commutative: counters, breakdowns and timers sum;
        gauges keep the maximum.  Disabled registries absorb nothing and
        contribute nothing.
        """
        if not self.enabled or not other.enabled:
            return
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            self.gauge(name, value)
        for name, table in other._breakdowns.items():
            mine = self.breakdown(name)
            for key, value in table.items():
                mine[key] = mine.get(key, 0) + value
        for name, timer in other._timers.items():
            self.timer(name).absorb(timer)

    # -- export ------------------------------------------------------------

    @staticmethod
    def _key_str(key: Hashable) -> str:
        if isinstance(key, tuple):
            return "×".join(Registry._key_str(part) for part in key)
        return str(key)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, deterministically ordered view of the aggregates.

        Breakdown keys are stringified (tuples join with ``×``) and every
        mapping is key-sorted, so equal registries snapshot to equal JSON.
        """
        if not self.enabled:
            return {"enabled": False}
        return {
            "enabled": True,
            "sample_interval": self.sample_interval,
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "breakdowns": {
                name: dict(sorted(
                    (self._key_str(key), value)
                    for key, value in table.items()))
                for name, table in sorted(self._breakdowns.items())
            },
            "timers": {name: timer.snapshot()
                       for name, timer in sorted(self._timers.items())},
        }

    def __repr__(self) -> str:
        if not self.enabled:
            return "Registry(enabled=False)"
        return (f"Registry({len(self._counters)} counters, "
                f"{len(self._breakdowns)} breakdowns, "
                f"{len(self._timers)} timers)")


#: A shared always-disabled registry: pass it anywhere an ``obs`` argument
#: is expected to keep call sites unconditional.
NULL_REGISTRY = Registry(enabled=False)
