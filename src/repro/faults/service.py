"""Seeded client fault domain: what goes wrong in the *serving* path.

The stream fault domain (:mod:`repro.faults.stream`) models failures of
live ingest; a query/status service adds a third family that only
exists because there are *clients*: readers that trickle a request in
and then hold the connection (slow loris), clients that vanish mid-
response, thundering herds that stampede one hot query, and malformed
queries probing the parser.  :class:`ServiceFaults` declares those
knobs; :func:`compile_tick_plan` and :func:`compile_request_plan` turn
them into concrete per-tick / per-request plans keyed off a dedicated
``RngTree`` branch, so a whole load test is a pure function of
``(seed, config, policy)`` and two runs produce byte-identical
request-outcome ledgers (``tests/test_service.py`` pins this).

Contract semantics (enforced by the service core):

* **Every fault resolves to a contractual response.**  Whatever the
  plan injects, each request ends as ``ok``, ``rejected(reason)`` or
  ``stale(version)`` — never an unhandled exception, never a 500 while
  any snapshot exists.
* **Faults are digest-neutral.**  The service only *reads* snapshots
  and the store; no client fault can perturb simulation digests,
  accounting or checkpoint bytes (the differential suite proves it).
* **Store errors drive the breaker.**  ``store_error_probability``
  injects a seeded run of failing store reads per tick — the service↔
  store circuit breaker opens and the service degrades to serving the
  last-good snapshot marked ``stale``.

Like the other fault modules, this one must not import
:mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.util import preset
from repro.util.rng import RngTree

#: Virtual seconds a slow-loris client holds its request before reading.
SLOW_LORIS_STALL_S = 6.0
#: Consecutive store reads that fail once a store-error run starts.
STORE_ERROR_RUN = 4
#: Store-error runs start at a request ordinal in
#: ``[0, ONSET_WINDOW_REQUESTS)`` of their tick.
ONSET_WINDOW_REQUESTS = 8


@dataclass(frozen=True)
class ServiceFaults:
    """Declarative client/serving fault configuration for one load test.

    Every field is a probability:

    * ``slow_loris_probability`` — each request independently stalls
      for :data:`SLOW_LORIS_STALL_S` virtual seconds before it can be
      answered; a stall past the request deadline is cancelled and
      rejected (``deadline``).
    * ``disconnect_probability`` — each request's client vanishes
      before reading the response; the service still forms a
      contractual response (the write is what fails), counted as a
      disconnect in the ledger.
    * ``herd_probability`` — each tick independently hosts a
      thundering-herd burst: a crowd of concurrent clients
      (:data:`repro.service.loadmodel.HERD_CLIENTS`) all issuing the
      *same* query (the single-flight cache's stampede), with arrival
      offsets drawn through the
      :class:`~repro.faults.flood.FloodGenerator` reused as the API
      load model.
    * ``malformed_probability`` — each request independently mutates
      into a malformed query (unknown kind / unknown filter column);
      the service must reject it, never crash on it.
    * ``store_error_probability`` — each tick independently hosts a
      seeded run of :data:`STORE_ERROR_RUN` consecutive failing store
      reads, starting at a seeded request ordinal — the breaker-open
      scenario.
    """

    slow_loris_probability: float = 0.0
    disconnect_probability: float = 0.0
    herd_probability: float = 0.0
    malformed_probability: float = 0.0
    store_error_probability: float = 0.0

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{item.name} must be in [0, 1], got {value}"
                )

    @property
    def inert(self) -> bool:
        """True when no service fault can ever engage."""
        return not any(getattr(self, item.name) for item in fields(self))

    @classmethod
    def from_name(cls, name: str) -> "ServiceFaults":
        """Resolve a named service-fault preset (CLI ``--service-profile``)."""
        return preset(SERVICE_FAULT_PRESETS, name, "service profile")


#: The service-fault presets: one per failure family, so each rung of
#: the overload ladder can be hammered in isolation, plus ``chaos``
#: running all of them at once (the soak leg's profile).
SERVICE_FAULT_PRESETS = {
    "off": ServiceFaults(),
    "slowloris": ServiceFaults(slow_loris_probability=0.4),
    "disconnect": ServiceFaults(disconnect_probability=0.3),
    "herd": ServiceFaults(herd_probability=0.5),
    "breaker": ServiceFaults(store_error_probability=0.5),
    "chaos": ServiceFaults(
        slow_loris_probability=0.15,
        disconnect_probability=0.1,
        herd_probability=0.3,
        malformed_probability=0.1,
        store_error_probability=0.2,
    ),
}


@dataclass(frozen=True)
class TickServicePlan:
    """The tick-scoped faults compiled for one load-model tick."""

    #: Whether this tick hosts a thundering-herd burst.
    herd: bool = False
    #: Request ordinal at which the run of :data:`STORE_ERROR_RUN`
    #: failing store reads starts, or None.
    error_at_request: int | None = None


@dataclass(frozen=True)
class RequestFaultPlan:
    """The request-scoped faults compiled for one client request."""

    #: Virtual seconds the client stalls before the read can complete.
    stall_s: float = 0.0
    #: The client vanishes before reading the response.
    disconnect: bool = False
    #: The query arrives malformed (unknown kind / filter column); the
    #: load model swaps the query when it compiles the schedule.
    malformed: bool = False


#: Shared inert plans: fault-free ticks/requests allocate nothing.
INERT_TICK_PLAN = TickServicePlan()
INERT_REQUEST_PLAN = RequestFaultPlan()


def compile_tick_plan(
    faults: ServiceFaults, tree: RngTree, tick: int
) -> TickServicePlan:
    """Compile the tick-scoped fault plan for one load-model tick.

    Each fault kind draws from its own ``(tick, kind)`` child stream,
    mirroring :func:`repro.faults.stream.compile_day_plan` — toggling
    one knob never shifts another kind's schedule, so profiles compose.
    """
    if faults.inert:
        return INERT_TICK_PLAN
    herd = False
    if faults.herd_probability > 0.0:
        herd = (
            tree.rand_for(tick, "herd").random() < faults.herd_probability
        )
    error_at: int | None = None
    if faults.store_error_probability > 0.0:
        rng = tree.rand_for(tick, "store-error")
        if rng.random() < faults.store_error_probability:
            error_at = rng.randrange(ONSET_WINDOW_REQUESTS)
    if not herd and error_at is None:
        return INERT_TICK_PLAN
    return TickServicePlan(herd=herd, error_at_request=error_at)


def compile_request_plan(
    faults: ServiceFaults, tree: RngTree, tick: int, ordinal: int
) -> RequestFaultPlan:
    """Compile the request-scoped fault plan for one client request.

    Keyed by ``(tick, request ordinal, kind)``, so replaying the same
    load model replays the same per-request faults regardless of the
    asyncio interleaving the requests resolve in.
    """
    if faults.inert:
        return INERT_REQUEST_PLAN
    stall = 0.0
    if faults.slow_loris_probability > 0.0:
        if (
            tree.coin(tick, ordinal, "slowloris")
            < faults.slow_loris_probability
        ):
            stall = SLOW_LORIS_STALL_S
    disconnect = False
    if faults.disconnect_probability > 0.0:
        disconnect = (
            tree.coin(tick, ordinal, "disconnect")
            < faults.disconnect_probability
        )
    malformed = False
    if faults.malformed_probability > 0.0:
        malformed = (
            tree.coin(tick, ordinal, "malformed")
            < faults.malformed_probability
        )
    if stall == 0.0 and not disconnect and not malformed:
        return INERT_REQUEST_PLAN
    return RequestFaultPlan(
        stall_s=stall, disconnect=disconnect, malformed=malformed
    )
