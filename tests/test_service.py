"""Query/status service: differential, overload ladder, load contract.

Four layers of proof that attaching the service cannot move a byte and
that its overload behaviour is a pure function of its inputs:

* **Attachment differential** — a snapshot publisher attached to the
  supervised stream leaves digests, conservation accounting and
  checkpoint bytes byte-identical to the detached runs, across
  {none, paper, stress}; live-folded, finished-run-folded and
  store-built snapshots agree on every aggregate.
* **Overload ladder** — each rung (validation, per-client token
  buckets, queue-depth admission gate, per-request deadlines, the
  service↔store breaker with stale-serve degradation) is exercised in
  isolation on the virtual clock, no sockets anywhere.
* **Seeded load contract** — under every named service fault profile,
  every request resolves to ``ok`` / ``rejected(reason)`` /
  ``stale(version)`` with zero unserved, and replaying the same
  ``(seed, config, policy)`` reproduces the ledger digest exactly.
* **Checkpoint/ledger surfacing** — the rolling ledger's day-boundary
  audit verdict rides the stream report, the degraded checkpoint's
  ``stream`` section, and the status endpoint; an interrupt/resume
  keeps audit-day continuity.

Marked ``service`` so CI can run this suite as its own job leg
(``pytest -m service``).
"""

from __future__ import annotations

import asyncio
from datetime import date

import pytest

from repro import telemetry
from repro.attackers.orchestrator import _export_store
from repro.faults.checkpoint import load_latest_checkpoint
from repro.faults.service import (
    RequestFaultPlan,
    SERVICE_PROFILES,
    ServiceFaults,
)
from repro.service import (
    OUTCOMES,
    PRIORITY_HIGH,
    PRIORITY_STATUS,
    QueryCache,
    QueryService,
    Request,
    ServiceFrontend,
    ServiceLoadModel,
    ServicePolicy,
    Snapshot,
    SnapshotPublisher,
    publish_result,
    query_fingerprint,
    run_load_test,
)
from repro.store import SqliteStore, index_path_for
from repro.stream import CLOSED, OPEN, StreamPolicy, run_stream
from repro.stream.breaker import FAILURE_THRESHOLD
from tests.conftest import PROFILES, assert_equivalent, short_fault_config
from tests.test_stream import chaos_config, sha256_json

pytestmark = pytest.mark.service


# ----------------------------------------------------------------------
# shared fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, serial_baselines):
    """One indexed artifact tree exported from the fault-free baseline."""
    root = tmp_path_factory.mktemp("service-store")
    _export_store(serial_baselines["none"], root)
    return root


@pytest.fixture(scope="module")
def store(store_root):
    """A read-only store over the exported tree (shared, read-only)."""
    opened = SqliteStore.open(index_path_for(store_root), read_only=True)
    yield opened
    opened.close()


@pytest.fixture(scope="module")
def published_runs():
    """Supervised stream runs with a snapshot publisher attached."""
    out = {}
    for profile in PROFILES:
        publisher = SnapshotPublisher()
        result = run_stream(
            short_fault_config(profile),
            policy=StreamPolicy.live(),
            publisher=publisher,
        )
        out[profile] = (publisher, result)
    return out


@pytest.fixture(scope="module")
def chaos_published():
    """One chaos-supervised run with the publisher attached."""
    publisher = SnapshotPublisher()
    result = run_stream(
        chaos_config(), policy=StreamPolicy.chaos(), publisher=publisher
    )
    return publisher, result


def tiny_snapshot(version: int = 1) -> Snapshot:
    """A minimal in-memory snapshot for ladder unit tests."""
    return Snapshot(
        version=version,
        day="2023-09-15",
        day_ordinal=date(2023, 9, 15).toordinal(),
        content_digest="0" * 64,
        sessions=3,
        by_day={"2023-09-15": 3},
        by_label={"scan": 3},
        accounting={"stored": 3},
    )


class CountingStore:
    """A store wrapper counting how many queries actually reach it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def count(self, **filters):
        self.calls += 1
        return self.inner.count(**filters)

    def count_by(self, column, **filters):
        self.calls += 1
        return self.inner.count_by(column, **filters)

    def distinct(self, column, **filters):
        self.calls += 1
        return self.inner.distinct(column, **filters)


# ----------------------------------------------------------------------
# attachment differential: publisher on ≡ publisher off
# ----------------------------------------------------------------------


class TestServiceAttachmentDifferential:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_publisher_attached_serial_is_digest_neutral(
        self, serial_baselines, published_runs, profile
    ):
        publisher, result = published_runs[profile]
        assert_equivalent(result, serial_baselines[profile])
        # Supervision audits every boundary, so the final boundary is
        # dirty (fresh ledger verdict) and the last snapshot is current.
        latest = publisher.latest
        assert latest is not None
        assert latest.day == short_fault_config(profile).end.isoformat()
        assert latest.sessions == len(result.collector.sessions)
        assert latest.ledger == result.stream.ledger_verdict

    @pytest.mark.parametrize("profile", PROFILES)
    def test_publish_result_folds_the_live_aggregates(
        self, serial_baselines, published_runs, profile
    ):
        snapshot = publish_result(
            SnapshotPublisher(), serial_baselines[profile]
        )
        # Aggregates agree across creation paths (live day-boundary
        # fold vs finished-run fold); digests are per-path encodings.
        live = published_runs[profile][0].latest
        assert dict(snapshot.by_day) == dict(live.by_day)
        assert dict(snapshot.by_label) == dict(live.by_label)
        assert snapshot.sessions == live.sessions

    def test_checkpoint_bytes_identical_with_publisher_attached(
        self, tmp_path
    ):
        """Even a degraded (dirty-stream) checkpoint cannot tell whether
        a publisher was watching the day boundaries."""
        stop = date(2023, 10, 1)
        detached = tmp_path / "detached" / "ck.json"
        attached = tmp_path / "attached" / "ck.json"
        run_stream(
            chaos_config(), policy=StreamPolicy.chaos(),
            checkpoint_path=detached, checkpoint_every_days=5,
            stop_after=stop,
        )
        publisher = SnapshotPublisher()
        run_stream(
            chaos_config(), policy=StreamPolicy.chaos(),
            checkpoint_path=attached, checkpoint_every_days=5,
            stop_after=stop, publisher=publisher,
        )
        assert detached.read_bytes() == attached.read_bytes()
        assert publisher.published > 0

    def test_store_snapshot_aggregates_match_live_fold(
        self, store, published_runs
    ):
        """``Snapshot.from_store`` and the live publisher describe the
        same corpus with the same aggregates."""
        at_rest = Snapshot.from_store(store)
        live = published_runs["none"][0].latest
        assert at_rest.sessions == live.sessions
        assert dict(at_rest.by_day) == dict(live.by_day)
        assert dict(at_rest.by_label) == dict(live.by_label)
        assert at_rest.day == live.day


# ----------------------------------------------------------------------
# snapshot publication: versioning, dirty-flag handoff, status payload
# ----------------------------------------------------------------------


class TestSnapshotPublication:
    def test_clean_boundary_republishes_nothing(self, serial_baselines):
        publisher = SnapshotPublisher()
        first = publish_result(publisher, serial_baselines["none"])
        again = publish_result(publisher, serial_baselines["none"])
        assert again is first  # same immutable snapshot stays current
        assert publisher.published == 1
        assert publisher.skipped_clean == 1
        assert publisher.version == 1

    def test_versions_are_monotonic_and_content_digest_rolls(
        self, published_runs
    ):
        publisher, _ = published_runs["none"]
        assert publisher.latest.version == publisher.published
        assert publisher.published > 1  # one snapshot per dirty boundary

    def test_status_payload_carries_supervision_state(
        self, chaos_published
    ):
        publisher, result = chaos_published
        payload = publisher.latest.status_payload()
        assert payload["ledger"] == result.stream.ledger_verdict
        assert payload["mode"] == result.stream.mode
        assert len(payload["timeline"]) == len(result.stream.transitions)
        assert payload["version"] == publisher.published

    def test_on_publish_hooks_fire_per_snapshot(self, serial_baselines):
        publisher = SnapshotPublisher()
        seen: list[int] = []
        publisher.on_publish.append(
            lambda snapshot: seen.append(snapshot.version)
        )
        publish_result(publisher, serial_baselines["none"])
        assert seen == [1]


# ----------------------------------------------------------------------
# ledger verdict: report, checkpoint section, resume continuity
# ----------------------------------------------------------------------


class TestLedgerVerdictSurfacing:
    def test_ledger_verdict_rides_the_stream_report(self, published_runs):
        _, result = published_runs["none"]
        verdict = result.stream.ledger_verdict
        assert verdict["days"] == result.stream.days
        assert verdict["balanced"] is True
        assert verdict["last_day"] == (
            short_fault_config("none").end.isoformat()
        )
        assert 0.0 < verdict["coverage_rate"] <= 1.0

    def test_checkpoint_carries_ledger_and_resume_keeps_continuity(
        self, tmp_path, chaos_published
    ):
        config = chaos_config()
        ckpt = tmp_path / "ck.json"
        run_stream(
            config, policy=StreamPolicy.chaos(),
            checkpoint_path=ckpt, checkpoint_every_days=5,
            stop_after=date(2023, 10, 1),
        )
        loaded, rejected = load_latest_checkpoint(ckpt, config)
        assert rejected == []
        assert loaded is not None and loaded.stream is not None
        carried = loaded.stream["ledger"]
        assert carried.keys() == {"days", "last_day", "coverage_rate"}
        assert carried["days"] > 0
        assert carried["last_day"] is not None
        resumed = run_stream(
            config, policy=StreamPolicy.chaos(),
            checkpoint_path=ckpt, resume=True,
        )
        # Audit-day continuity: the resumed ledger continues the carried
        # count instead of restarting from zero.
        total_days = (config.end - config.start).days + 1
        assert resumed.stream.ledger_verdict["days"] == total_days
        assert resumed.stream.ledger_verdict["last_day"] == (
            config.end.isoformat()
        )
        # Coverage included, the resumed verdict is the uninterrupted
        # run's (the publisher only observes).
        _, uninterrupted = chaos_published
        assert (
            resumed.stream.ledger_verdict
            == uninterrupted.stream.ledger_verdict
        )


# ----------------------------------------------------------------------
# the overload ladder, rung by rung (virtual clock, no sockets)
# ----------------------------------------------------------------------


class TestOverloadLadder:
    async def test_malformed_queries_are_rejected_first(self):
        service = QueryService(snapshot=tiny_snapshot())
        bad = (
            Request("c", "bogus-kind"),
            Request("c", "count", {"no_such_column": 1}),
            Request("c", "count_by", {"by": "no_such_column"}),
            Request("c", "count", {"by": "day"}),  # 'by' on a non-group
        )
        for request in bad:
            response = await service.handle(request)
            assert response.outcome == "rejected"
            assert response.reason == "malformed"
        assert service.rejected["malformed"] == len(bad)

    async def test_token_bucket_clips_hot_client_not_status(self):
        service = QueryService(
            snapshot=tiny_snapshot(),
            policy=ServicePolicy.from_name("strict"),
        )
        outcomes = [
            await service.handle(Request("hot", "count"))
            for _ in range(12)
        ]
        assert outcomes[0].outcome == "ok"  # inside the burst budget
        assert any(r.reason == "rate-limited" for r in outcomes)
        # Status stays observable while the client is clipped, and
        # other clients have their own buckets.
        status = await service.handle(
            Request("hot", "status", {}, PRIORITY_STATUS)
        )
        assert status.outcome == "ok"
        other = await service.handle(Request("cold", "count"))
        assert other.outcome == "ok"
        assert service.limiter.limited > 0

    async def test_admission_gate_sheds_by_priority(self):
        service = QueryService(snapshot=tiny_snapshot())
        watermark = service.policy.high_watermark
        capacity = service.policy.queue_capacity
        for index in range(watermark - 1):
            service.queue.push(f"backlog-{index}")
        # HIGH pressure: low-priority queries shed, high pass.
        low = await service.handle(Request("c", "count"))
        assert low.reason == "load-shed"
        high = await service.handle(
            Request("c", "count", {}, PRIORITY_HIGH)
        )
        assert high.outcome == "ok"
        # CRITICAL pressure: status only.
        for index in range(capacity - service.queue.depth - 1):
            service.queue.push(f"more-{index}")
        query = await service.handle(
            Request("c", "count", {}, PRIORITY_HIGH)
        )
        assert query.reason == "critical-load"
        status = await service.handle(
            Request("c", "status", {}, PRIORITY_STATUS)
        )
        assert status.outcome == "ok"
        # Full queue: nothing is admitted, not even status.
        service.queue.push("backlog-last")
        full = await service.handle(
            Request("c", "status", {}, PRIORITY_STATUS)
        )
        assert full.reason == "queue-full"

    async def test_slow_loris_overrun_is_cancelled(self):
        service = QueryService(snapshot=tiny_snapshot())
        stalled = await service.handle(
            Request("c", "count"),
            plan=RequestFaultPlan(stall_s=6.0),
        )
        assert stalled.outcome == "rejected"
        assert stalled.reason == "deadline"
        assert service.deadline_cancelled == 1
        # A stall inside the deadline budget is just slow, not dead.
        slow = await service.handle(
            Request("c", "count"),
            plan=RequestFaultPlan(stall_s=1.0),
        )
        assert slow.outcome == "ok"

    async def test_disconnect_is_counted_response_still_formed(self):
        service = QueryService(snapshot=tiny_snapshot())
        response = await service.handle(
            Request("c", "count"),
            plan=RequestFaultPlan(disconnect=True),
        )
        assert response.outcome == "ok"  # the write failed, not the work
        assert service.disconnects == 1

    async def test_before_first_publish_status_serves_queries_reject(self):
        service = QueryService(publisher=SnapshotPublisher())
        query = await service.handle(Request("c", "count"))
        assert query.reason == "no-snapshot"
        status = await service.handle(
            Request("c", "status", {}, PRIORITY_STATUS)
        )
        assert status.outcome == "ok"
        assert status.version == 0
        assert status.payload["snapshot"] is None

    async def test_snapshot_only_service_answers_what_it_can(self):
        service = QueryService(snapshot=tiny_snapshot())
        by_day = await service.handle(
            Request("c", "count_by", {"by": "day"})
        )
        assert by_day.outcome == "ok"
        assert by_day.payload == {"2023-09-15": 3}
        # Filtered queries need the store; without one they reject
        # loudly instead of answering wrong.
        filtered = await service.handle(
            Request("c", "distinct", {"by": "sensor_id"})
        )
        assert filtered.reason == "unsupported"


# ----------------------------------------------------------------------
# cache: fingerprints, LRU, single flight
# ----------------------------------------------------------------------


class TestQueryCacheAndSingleFlight:
    def test_query_fingerprint_is_param_order_insensitive(self):
        one = query_fingerprint(
            "count", {"day": "2023-09-15", "sensor_id": "hp-000"}
        )
        two = query_fingerprint(
            "count", {"sensor_id": "hp-000", "day": "2023-09-15"}
        )
        assert one == two
        assert one != query_fingerprint("count", {"day": "2023-09-16"})
        assert one != query_fingerprint("count_by", {"day": "2023-09-15"})

    async def test_lru_evicts_least_recently_used(self):
        cache = QueryCache(capacity=2)

        async def make(value):
            return value

        await cache.get_or_load(("v1", "a"), lambda: make(1))
        await cache.get_or_load(("v1", "b"), lambda: make(2))
        value, how = await cache.get_or_load(("v1", "a"), lambda: make(0))
        assert (value, how) == (1, "hit")
        await cache.get_or_load(("v1", "c"), lambda: make(3))  # evicts b
        assert cache.evictions == 1
        _, how = await cache.get_or_load(("v1", "b"), lambda: make(2))
        assert how == "miss"  # reloading b in turn evicts a
        assert cache.evictions == 2
        _, how = await cache.get_or_load(("v1", "c"), lambda: make(3))
        assert how == "hit"

    async def test_identical_concurrent_queries_coalesce_to_one_load(
        self, store
    ):
        counting = CountingStore(store)
        service = QueryService(
            snapshot=Snapshot.from_store(store), store=counting
        )
        responses = await asyncio.gather(
            *(
                service.handle(
                    Request(f"client-{i}", "count_by", {"by": "rule_label"})
                )
                for i in range(8)
            )
        )
        assert all(r.outcome == "ok" for r in responses)
        assert counting.calls == 1  # the herd collapsed to one store hit
        attribution = sorted(r.cache for r in responses)
        assert attribution.count("miss") == 1
        assert attribution.count("coalesced") == 7
        payloads = {tuple(sorted(r.payload.items())) for r in responses}
        assert len(payloads) == 1  # every waiter got the same answer
        again = await service.handle(
            Request("late", "count_by", {"by": "rule_label"})
        )
        assert again.cache == "hit"
        assert counting.calls == 1

    async def test_repeated_query_load_meets_the_cache_floor(self, store):
        service = QueryService(store=store)
        for _ in range(12):
            for params in ({"by": "day"}, {"by": "rule_label"}):
                response = await service.handle(
                    Request("dashboard", "count_by", dict(params))
                )
                assert response.outcome == "ok"
        assert service.cache.misses == 2
        assert service.cache.hit_ratio >= 0.9  # the cache floor


# ----------------------------------------------------------------------
# breaker: stale-serve degradation, never a 500
# ----------------------------------------------------------------------


class TestBreakerDegradation:
    async def test_store_failures_open_breaker_then_recover(self, store):
        service = QueryService(store=store, seed=5)
        first = await service.handle(
            Request("a", "count"), store_error=True
        )
        assert first.outcome == "stale"
        assert first.reason == "store-error"
        assert first.stale and first.version == 1
        assert first.payload is not None  # degraded, not empty-handed
        assert service.breaker.state == CLOSED
        for client in ("b", "b2"):
            failed = await service.handle(
                Request(client, "count"), store_error=True
            )
            assert failed.outcome == "stale"
        assert service.breaker.state == OPEN
        assert service.breaker.trips == 1
        # While open, even healthy requests are answered from the
        # last-good snapshot without touching the store.
        blocked = await service.handle(Request("c", "count"))
        assert blocked.outcome == "stale"
        assert blocked.reason == "breaker-open"
        # A query the snapshot cannot answer still degrades
        # contractually: stale with an empty payload, never an error.
        unanswerable = await service.handle(
            Request("c2", "distinct", {"by": "sensor_id"})
        )
        assert unanswerable.outcome == "stale"
        assert unanswerable.payload is None
        assert service.store_errors == 3
        # Past the backoff the seeded probe half-opens, the healthy
        # store answers, and the breaker closes again.
        service.advance(30.0)
        recovered = await service.handle(Request("d", "count"))
        assert recovered.outcome == "ok"
        assert service.breaker.state == CLOSED

    async def test_stale_responses_name_the_version_served(self, store):
        service = QueryService(store=store, seed=5)
        for index in range(FAILURE_THRESHOLD):
            response = await service.handle(
                Request(f"c{index}", "count"), store_error=True
            )
            assert response.version == 1
            assert response.stale is True


# ----------------------------------------------------------------------
# seeded load model: the (seed, config, policy) contract
# ----------------------------------------------------------------------


class TestLoadModelContract:
    def test_schedule_is_deterministic(self):
        model = ServiceLoadModel(
            seed=9, faults=ServiceFaults.from_name("chaos")
        )
        assert model.schedule() == model.schedule()

    @pytest.mark.parametrize("profile", SERVICE_PROFILES)
    def test_every_response_is_contractual_and_replays(
        self, store, profile
    ):
        model = ServiceLoadModel(
            seed=11,
            ticks=10,
            requests_per_tick=6,
            faults=ServiceFaults.from_name(profile),
        )
        report = run_load_test(QueryService(store=store, seed=11), model)
        replay = run_load_test(QueryService(store=store, seed=11), model)
        assert report.unserved == 0
        assert report.digest() == replay.digest()
        assert report.total == report.ok + report.stale + sum(
            report.rejected.values()
        )
        for entry in report.entries:
            assert entry["outcome"] in OUTCOMES
            if entry["outcome"] == "rejected":
                assert entry["reason"]
            if entry["outcome"] == "stale":
                assert entry["stale"] is True
                assert entry["version"] == 1

    def test_thundering_herd_coalesces_to_one_store_query(self, store):
        counting = CountingStore(store)
        service = QueryService(
            snapshot=Snapshot.from_store(store), store=counting, seed=3
        )
        model = ServiceLoadModel(
            seed=3,
            ticks=1,
            requests_per_tick=0,  # the herd is the whole tick
            faults=ServiceFaults(herd_probability=1.0),
        )
        herd_size = len(model.schedule())
        assert herd_size > 1
        report = run_load_test(service, model)
        assert report.total == herd_size
        assert report.ok == herd_size
        assert counting.calls == 1
        assert service.cache.coalesced == herd_size - 1
        assert all(entry["herd"] for entry in report.entries)

    @pytest.mark.parametrize("seed", [7, 11, 33])
    def test_repeated_load_model_meets_the_cache_floor(self, store, seed):
        """At least 90 % of a repeated-query load is answered without a
        store query of its own (cache hits and coalesced waits), at least
        90 % of the lookups that could hit do, and every request
        resolves inside the contract.  Coalesced waits need no kept
        entry, so only the lookup ratio reads low when the cache keeps
        nothing."""
        model = ServiceLoadModel(
            seed=seed,
            ticks=20,
            requests_per_tick=32,
            faults=ServiceFaults.from_name("off"),
        )
        report = run_load_test(QueryService(store=store, seed=seed), model)
        assert report.cache_hit_ratio >= 0.9
        assert report.cache_lookup_hit_ratio >= 0.9
        assert report.unserved == 0

    def test_breaker_profile_degrades_to_stale_not_errors(self, store):
        for ticks in (15, 20):
            model = ServiceLoadModel(
                seed=33,
                ticks=ticks,
                requests_per_tick=8,
                faults=ServiceFaults.from_name("breaker"),
            )
            service = QueryService(store=store, seed=33)
            report = run_load_test(service, model)
            assert report.unserved == 0, ticks
            assert report.stale > 0, ticks
            assert service.breaker.trips >= 1, ticks

    def test_slowloris_profile_is_deadline_rejected(self, store):
        model = ServiceLoadModel(
            seed=21,
            ticks=10,
            requests_per_tick=8,
            faults=ServiceFaults.from_name("slowloris"),
        )
        report = run_load_test(QueryService(store=store, seed=21), model)
        assert report.rejected.get("deadline", 0) > 0
        assert report.unserved == 0

    def test_disconnect_profile_still_serves_contractually(self, store):
        model = ServiceLoadModel(
            seed=8,
            ticks=10,
            requests_per_tick=8,
            faults=ServiceFaults.from_name("disconnect"),
        )
        service = QueryService(store=store, seed=8)
        report = run_load_test(service, model)
        assert service.disconnects > 0
        assert report.unserved == 0
        disconnected = [
            entry for entry in report.entries if entry.get("disconnected")
        ]
        assert disconnected
        assert all(
            entry["outcome"] in OUTCOMES for entry in disconnected
        )

    def test_service_counters_are_merge_only(self, store):
        with telemetry.collecting() as registry:
            service = QueryService(store=store)
            run_load_test(
                service,
                ServiceLoadModel(seed=1, ticks=3, requests_per_tick=4),
            )
        export = registry.export()
        assert export["counters"]["service.requests"] == 12
        comparable = telemetry.comparable_view(export)
        assert not any(
            name.startswith("service.")
            for name in comparable["counters"]
        )


#: One SHA-256 per service fault profile × policy over the load test's
#: request-outcome ledger plus the service's health counters (seed 33,
#: 15 ticks).  ``LoadTestReport.digest()`` also hashes the ``repr`` of
#: the faults and the policy, so it moves with their fields by design
#: and is not what is pinned here.
LOAD_TEST_PINS = {
    ("off", "default"): "aca10fec31073376aec044fda4d7b9c8994d6ad694d98b110b921e8a1d39ed39",
    ("off", "strict"): "dcc0b11d923282ca5a7dbc63e381c27812eac8c13ed3207900bc1c99fed31a10",
    ("slowloris", "default"): "ba12063a5c32963839fd2dc5c4dccbb1fe29e23a75e4da20d104b00db05a766f",
    ("slowloris", "strict"): "870140c5adae5bcef34cdd1fd2b83ea3729f1f992e0184924e43174969029243",
    ("disconnect", "default"): "b83daa3a35b37d39b5324913410f71a74da2d2ef721a2409d39819ff63247d62",
    ("disconnect", "strict"): "d78666891a23d725de3c6904d7c82dd3c3ebd7597be9acd733e3ce11a12bf05f",
    ("herd", "default"): "0782965e72682ac13a9c23761f4978d9201aebd510d9eaac04d4ab3ee5e3e8c2",
    ("herd", "strict"): "b9adcad3b8c01502ee5451ae9643537a6ca0168a5ffa5b0d0821c9a090050b9e",
    ("breaker", "default"): "957815642844b9c41b69508a8d5c98765141fbb2adaf948b5462ff418b4b362e",
    ("breaker", "strict"): "34312e29d8422b5a3d19032c3d7087d56730df1083b368934fa79a81bbb47d33",
    ("chaos", "default"): "a73c053eeffb3cd68ba78f4b54717b32e5d8cae6995e060643e729d89562cbb2",
    ("chaos", "strict"): "cb018c4c1effd18b37919d491f26d858e765291935e4b8c2c0aa44bdc8b273d3",
}


class TestLoadTestPins:
    @pytest.mark.parametrize("policy_name", ("default", "strict"))
    @pytest.mark.parametrize("profile", SERVICE_PROFILES)
    def test_ledger_and_health_are_pinned(self, store, profile, policy_name):
        service = QueryService(
            store=store, policy=ServicePolicy.from_name(policy_name), seed=33
        )
        model = ServiceLoadModel(
            seed=33, ticks=15, faults=ServiceFaults.from_name(profile)
        )
        report = run_load_test(service, model)
        payload = {"entries": report.entries, "health": service.health()}
        assert sha256_json(payload) == LOAD_TEST_PINS[(profile, policy_name)]


# ----------------------------------------------------------------------
# frontend translation (parser only — tier-1 opens no sockets)
# ----------------------------------------------------------------------


class TestFrontendParsing:
    def _frontend(self):
        return ServiceFrontend(QueryService(snapshot=tiny_snapshot()))

    def test_well_formed_line_parses(self):
        request = self._frontend()._parse(
            b'{"kind": "count", "params": {"day": "2023-09-15"},'
            b' "client_id": "c-1"}',
            "peer",
        )
        assert request.kind == "count"
        assert request.client_id == "c-1"
        assert dict(request.params) == {"day": "2023-09-15"}

    def test_peer_is_the_default_client_and_status_the_priority(self):
        request = self._frontend()._parse(b'{"kind": "status"}', "1.2.3.4")
        assert request.client_id == "1.2.3.4"
        assert request.priority == PRIORITY_STATUS

    def test_garbage_lines_do_not_parse(self):
        frontend = self._frontend()
        for line in (b"not json", b"[1, 2]", b'{"kind": "count", "params": 3}'):
            assert frontend._parse(line, "peer") is None

    async def test_unparseable_input_rejects_through_the_ladder(self):
        service = QueryService(snapshot=tiny_snapshot())
        # What _handle_connection submits for an unparseable line.
        response = await service.handle(
            Request(client_id="peer", kind="unparseable")
        )
        assert response.outcome == "rejected"
        assert response.reason == "malformed"
