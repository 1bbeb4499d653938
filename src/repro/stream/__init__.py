"""``repro.stream`` — the supervised event-stream engine.

Every run goes through this package (``run_simulation`` under
:meth:`StreamPolicy.live`); see :mod:`repro.stream.engine` for the
architecture and ``docs/streaming.md`` for the operator view.
"""

from repro.stream.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Transition,
)
from repro.stream.engine import (
    RollingLedger,
    StreamIntegrityError,
    StreamReport,
    StreamSubstrate,
    run_stream,
)
from repro.stream.policy import StreamPolicy
from repro.stream.queues import BoundedStreamQueue
from repro.stream.supervisor import (
    MODE_FULL,
    MODE_SHED_ONLY,
    STAGE_INGEST,
    HeartbeatMonitor,
    StreamSupervisor,
)

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CircuitBreaker",
    "Transition",
    "RollingLedger",
    "StreamIntegrityError",
    "StreamReport",
    "StreamSubstrate",
    "run_stream",
    "StreamPolicy",
    "BoundedStreamQueue",
    "MODE_FULL",
    "MODE_SHED_ONLY",
    "STAGE_INGEST",
    "HeartbeatMonitor",
    "StreamSupervisor",
]
