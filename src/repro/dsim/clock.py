"""Logical clocks: Lamport scalar clocks and vector clocks.

The Scroll orders recorded actions and the Time Machine decides whether a
set of local checkpoints forms a *consistent* global state.  Both
questions reduce to the happens-before relation of Lamport, which these
clocks track.

Two clock implementations are provided:

* :class:`LamportClock` — a scalar clock.  Cheap, totally ordered when
  combined with a process id tie-break, but only *consistent with*
  happens-before (it cannot decide concurrency).
* :class:`VectorClock` — one entry per process.  Precisely characterises
  happens-before: ``a -> b`` iff ``a.vc < b.vc``.

Both are value-semantic: ``tick``/``merge`` return information but mutate
the clock in place, while :meth:`snapshot` returns an immutable copy that
can be attached to messages, log entries and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple


class LamportClock:
    """A classic Lamport scalar clock.

    The clock value is advanced on every local event (``tick``) and on
    every message receipt (``merge``), where it jumps past the sender's
    timestamp.  Timestamps drawn from a Lamport clock respect causality:
    if event *a* happens before event *b* then ``ts(a) < ts(b)`` — but
    the converse does not hold.
    """

    __slots__ = ("pid", "_time")

    def __init__(self, pid: str, start: int = 0) -> None:
        if start < 0:
            raise ValueError("Lamport clock cannot start at a negative time")
        self.pid = pid
        self._time = int(start)

    @property
    def time(self) -> int:
        """Current clock value (without advancing it)."""
        return self._time

    def tick(self) -> int:
        """Advance the clock for a local event and return the new value."""
        self._time += 1
        return self._time

    def merge(self, other_time: int) -> int:
        """Merge a timestamp received in a message and return the new value.

        Implements the receive rule: ``C := max(C, C_msg) + 1``.
        """
        if other_time < 0:
            raise ValueError("received a negative Lamport timestamp")
        self._time = max(self._time, int(other_time)) + 1
        return self._time

    def snapshot(self) -> int:
        """Return the current value; provided for API symmetry with VectorClock."""
        return self._time

    def restore(self, value: int) -> None:
        """Reset the clock to ``value`` (used when rolling back a process)."""
        if value < 0:
            raise ValueError("cannot restore a Lamport clock to a negative time")
        self._time = int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LamportClock(pid={self.pid!r}, time={self._time})"


@dataclass(frozen=True)
class VectorTimestamp:
    """An immutable vector timestamp, comparable under happens-before.

    Comparisons implement the standard partial order:

    * ``a <= b``  iff every component of ``a`` is <= the matching
      component of ``b`` (missing components count as zero);
    * ``a < b``   iff ``a <= b`` and ``a != b``;
    * ``a.concurrent(b)`` iff neither ``a <= b`` nor ``b <= a``.
    """

    entries: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)

    @staticmethod
    def from_mapping(mapping: Mapping[str, int]) -> "VectorTimestamp":
        """Build a timestamp from a pid->counter mapping, dropping zero entries."""
        items = tuple(sorted((pid, int(count)) for pid, count in mapping.items() if count))
        return VectorTimestamp(items)

    def as_dict(self) -> Dict[str, int]:
        """Return the timestamp as a plain dictionary (zero entries omitted)."""
        return dict(self.entries)

    def component(self, pid: str) -> int:
        """Return the counter recorded for ``pid`` (zero if absent)."""
        for key, value in self.entries:
            if key == pid:
                return value
        return 0

    def __le__(self, other: "VectorTimestamp") -> bool:
        mine = self.as_dict()
        theirs = other.as_dict()
        return all(theirs.get(pid, 0) >= count for pid, count in mine.items())

    def __lt__(self, other: "VectorTimestamp") -> bool:
        return self != other and self <= other

    def __ge__(self, other: "VectorTimestamp") -> bool:
        return other <= self

    def __gt__(self, other: "VectorTimestamp") -> bool:
        return other < self

    def concurrent(self, other: "VectorTimestamp") -> bool:
        """True when neither timestamp happens before the other."""
        return not (self <= other) and not (other <= self)

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Return the component-wise maximum of the two timestamps."""
        merged = self.as_dict()
        for pid, count in other.entries:
            merged[pid] = max(merged.get(pid, 0), count)
        return VectorTimestamp.from_mapping(merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{pid}:{count}" for pid, count in self.entries)
        return f"VT({inner})"


class VectorClock:
    """A per-process vector clock.

    ``tick`` increments the owner's component; ``merge`` takes the
    component-wise maximum with a received timestamp and then ticks.  The
    resulting timestamps characterise happens-before exactly, which the
    recovery-line computation relies on.

    ``snapshot`` runs on every recorded action (twice per delivered
    message) and every checkpoint, so the sorted order of the non-zero
    components is cached and invalidated only when a component first
    becomes non-zero — ticks and routine merges never pay the sort —
    and the timestamp itself is memoized until the next ``tick``,
    ``merge`` or ``restore``.
    """

    __slots__ = ("pid", "_counters", "_order", "_snap")

    def __init__(self, pid: str, initial: Mapping[str, int] | None = None) -> None:
        self.pid = pid
        self._counters: Dict[str, int] = dict(initial or {})
        self._counters.setdefault(pid, 0)
        self._order: Tuple[str, ...] | None = None
        self._snap: VectorTimestamp | None = None

    def tick(self) -> VectorTimestamp:
        """Advance the local component and return the new timestamp."""
        counters = self._counters
        value = counters.get(self.pid, 0) + 1
        counters[self.pid] = value
        if value == 1:
            self._order = None  # own component just became visible
        self._snap = None
        return self.snapshot()

    def merge(self, other: VectorTimestamp) -> VectorTimestamp:
        """Absorb a received timestamp (component-wise max), then tick."""
        counters = self._counters
        for pid, count in other.entries:
            current = counters.get(pid, 0)
            if count > current:
                counters[pid] = count
                if current == 0:
                    self._order = None  # a new component became visible
        return self.tick()

    def snapshot(self) -> VectorTimestamp:
        """Return an immutable copy of the current vector."""
        snap = self._snap
        if snap is None:
            order = self._order
            if order is None:
                order = self._order = tuple(
                    sorted(pid for pid, count in self._counters.items() if count)
                )
            counters = self._counters
            snap = self._snap = VectorTimestamp(tuple((pid, counters[pid]) for pid in order))
        return snap

    def restore(self, timestamp: VectorTimestamp) -> None:
        """Reset the clock to ``timestamp`` (used on rollback)."""
        self._counters = timestamp.as_dict()
        self._counters.setdefault(self.pid, 0)
        self._order = None
        self._snap = None

    def component(self, pid: str) -> int:
        """Return the current counter for ``pid``."""
        return self._counters.get(pid, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock(pid={self.pid!r}, {self._counters})"


def happens_before(a: VectorTimestamp, b: VectorTimestamp) -> bool:
    """Return True when event ``a`` causally precedes event ``b``."""
    return a < b


def concurrent(a: VectorTimestamp, b: VectorTimestamp) -> bool:
    """Return True when neither event causally precedes the other."""
    return a.concurrent(b)


def merge_all(timestamps: Iterable[VectorTimestamp]) -> VectorTimestamp:
    """Component-wise maximum of an iterable of timestamps."""
    result = VectorTimestamp()
    for ts in timestamps:
        result = result.merge(ts)
    return result
