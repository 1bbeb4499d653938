"""Storage-location analyses on crafted observations."""

from __future__ import annotations

from datetime import date


from repro.analysis.storage import (
    DownloadObservation,
    activity_days_by_ip,
    age_bucket,
    download_observations,
    duration_class,
    infrastructure_observations,
    reappearance_after,
    recall_distribution,
    same_ip_fraction,
    size_bucket_name,
    uri_host,
)
from repro.honeypot.session import (
    CommandRecord,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.util.timeutils import to_epoch


def obs(ip: str, day: date, client: str = "9.9.9.9") -> DownloadObservation:
    return DownloadObservation(
        session_id=f"{ip}-{day}",
        day=day,
        client_ip=client,
        storage_ip=ip,
        hashes=("h",),
    )


class TestUriHost:
    def test_http(self):
        assert uri_host("http://1.2.3.4/f") == "1.2.3.4"

    def test_port_stripped(self):
        assert uri_host("http://1.2.3.4:8080/f") == "1.2.3.4"

    def test_tftp(self):
        assert uri_host("tftp://5.6.7.8/f") == "5.6.7.8"

    def test_not_a_uri(self):
        assert uri_host("wget something") is None


class TestObservations:
    def make_session(self, uris, transfer_hash=None):
        events = []
        if transfer_hash:
            events.append(
                FileEvent("/tmp/f", FileOp.CREATE, transfer_hash, source="transfer")
            )
        return SessionRecord(
            session_id="s1",
            honeypot_id="hp",
            honeypot_ip="192.0.2.1",
            honeypot_port=22,
            protocol=Protocol.SSH,
            client_ip="9.9.9.9",
            client_port=1,
            start=to_epoch(date(2022, 5, 1)),
            end=to_epoch(date(2022, 5, 1)) + 5,
            logins=[LoginAttempt("root", "x", True)],
            commands=[CommandRecord("wget ...", True)],
            uris=list(uris),
        )

    def test_failed_download_still_observed(self):
        session = self.make_session(["http://1.2.3.4/f"])
        observations = download_observations([session], [date(2022, 5, 1)])
        assert len(observations) == 1
        assert observations[0].hashes == ()
        assert observations[0].day == date(2022, 5, 1)

    def test_domain_hosts_ignored(self):
        session = self.make_session(["https://shop.ru.invalid/"])
        assert download_observations([session], [date(2022, 5, 1)]) == []

    def test_distinct_hosts_one_each(self):
        session = self.make_session(
            ["http://1.2.3.4/f", "tftp://1.2.3.4/f", "http://5.6.7.8/g"]
        )
        observations = download_observations([session], [date(2022, 5, 1)])
        assert {o.storage_ip for o in observations} == {"1.2.3.4", "5.6.7.8"}
        assert len(observations) == 2

    def test_infrastructure_filter_drops_self_host(self):
        observations = [
            obs("1.1.1.1", date(2022, 1, 1), client="1.1.1.1"),
            obs("2.2.2.2", date(2022, 1, 1)),
        ]
        kept = infrastructure_observations(observations)
        assert [o.storage_ip for o in kept] == ["2.2.2.2"]

    def test_same_ip_fraction(self):
        observations = [
            obs("1.1.1.1", date(2022, 1, 1), client="1.1.1.1"),
            obs("2.2.2.2", date(2022, 1, 1)),
        ]
        assert same_ip_fraction(observations) == 0.5
        assert same_ip_fraction([]) == 0.0


class TestBuckets:
    def test_age_buckets(self):
        assert age_bucket(0.5) == "AS younger than 1 year"
        assert age_bucket(3.0) == "AS younger than 5 years"
        assert age_bucket(10.0) == "AS older than 5 years"

    def test_size_buckets(self):
        assert size_bucket_name(1) == "AS ann. only one /24"
        assert size_bucket_name(49) == "AS ann. less than 50 /24"
        assert size_bucket_name(50) == "AS ann. more than 50 /24"

    def test_duration_classes(self):
        assert duration_class(0.5) == "<1d"
        assert duration_class(3) == "<4d"
        assert duration_class(6) == "<1w"
        assert duration_class(400) == ">=1y"


class TestActivityAndRecall:
    def test_activity_days(self):
        observations = [
            obs("1.1.1.1", date(2022, 1, 1)),
            obs("1.1.1.1", date(2022, 1, 3)),
            obs("1.1.1.1", date(2022, 1, 1)),
        ]
        days = activity_days_by_ip(observations)
        assert days["1.1.1.1"] == [date(2022, 1, 1), date(2022, 1, 3)]

    def test_single_day_ip_classified_subday(self):
        observations = [obs("1.1.1.1", date(2022, 1, 5))]
        distribution = recall_distribution(observations, 7)
        assert distribution["2022-01"]["<1d"] == 1

    def test_week_spanning_ip(self):
        observations = [
            obs("1.1.1.1", date(2022, 1, 1)),
            obs("1.1.1.1", date(2022, 1, 6)),
        ]
        distribution = recall_distribution(observations, 7)
        assert distribution["2022-01"]["<1w"] == 1

    def test_recall_window_truncates_history(self):
        observations = [
            obs("1.1.1.1", date(2022, 1, 1)),
            obs("1.1.1.1", date(2022, 3, 10)),
        ]
        short = recall_distribution(observations, 7)
        # in March, with 1-week recall, only the March appearance counts
        assert short["2022-03"]["<1d"] == 1
        full = recall_distribution(observations, float("inf"))
        assert full["2022-03"]["<16w"] == 1

    def test_reappearance_after(self):
        observations = [
            obs("1.1.1.1", date(2022, 1, 1)),
            obs("1.1.1.1", date(2022, 9, 1)),
            obs("2.2.2.2", date(2022, 1, 1)),
            obs("2.2.2.2", date(2022, 1, 20)),
        ]
        assert reappearance_after(observations, 180) == 0.5
        assert reappearance_after([], 180) == 0.0


class TestEndToEnd:
    def test_dataset_observations_sane(self, dataset):
        observations = dataset.download_observations()
        assert observations
        infra_ips = {h.ip for h in dataset.simulation.infrastructure.hosts}
        clients = {o.client_ip for o in observations}
        for o in infrastructure_observations(observations):
            assert o.storage_ip in infra_ips
        # one-order-of-magnitude shape: more download clients than
        # dedicated storage IPs is not required at tiny scale, but both
        # populations must be non-trivial
        assert len(clients) >= 10
