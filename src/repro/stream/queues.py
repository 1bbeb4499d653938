"""A bounded queue whose depth drives backpressure.

One queue sits between the sensors pushing sessions and the ingest
consumer.  On the healthy path it is pass-through — every push is
pumped synchronously, depth never exceeds one — so the stream replays
the batch day-loop byte for byte.  Under a consumer stall the queue
absorbs the backlog FIFO; its depth maps to a backpressure level on
the admission gate's scale (:data:`~repro.overload.admission.PRESSURE_NONE`,
``PRESSURE_HIGH``, ``PRESSURE_CRITICAL``) that the engine feeds into
:meth:`repro.overload.admission.AdmissionController.apply_backpressure`;
the critical level also trips the ingest breaker, which is what puts
the stream in ``shed-only`` mode.  The query service's request queue
is the same class on the same scale.

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.overload.admission import (
    PRESSURE_CRITICAL,
    PRESSURE_HIGH,
    PRESSURE_NONE,
)


@dataclass
class BoundedStreamQueue:
    """A bounded FIFO in front of a consumer, with depth accounting."""

    name: str
    capacity: int
    #: Depth at which backpressure rises to ``PRESSURE_HIGH``.
    high_watermark: int
    _items: deque = field(default_factory=deque, init=False, repr=False)
    pushed: int = field(default=0, init=False)
    popped: int = field(default=0, init=False)
    peak_depth: int = field(default=0, init=False)
    #: Pops forced by a full queue while the consumer was stalled.
    forced_drains: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not 0 < self.high_watermark <= self.capacity:
            raise ValueError(
                "high_watermark must be in (0, capacity]"
            )

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item) -> None:
        if self.full:
            raise OverflowError(f"stream queue {self.name!r} is full")
        self._items.append(item)
        self.pushed += 1
        if len(self._items) > self.peak_depth:
            self.peak_depth = len(self._items)

    def pop(self):
        item = self._items.popleft()
        self.popped += 1
        return item

    def level(self) -> int:
        """The backpressure level this depth maps to."""
        depth = len(self._items)
        if depth >= self.capacity:
            return PRESSURE_CRITICAL
        if depth >= self.high_watermark:
            return PRESSURE_HIGH
        return PRESSURE_NONE
