"""The mdrfckr case-study analyses."""

from __future__ import annotations

import base64
from datetime import date, timedelta

from repro.analysis.mdrfckr_case import (
    LowActivityWindow,
    c2_ips_from_cleanups,
    classify_script,
    correlate_events,
    decode_base64_uploads,
    detect_low_activity_windows,
    is_variant,
    mdrfckr_sessions,
    split_variants,
)
from repro.analysis.table import build_session_table
from repro.events import DOCUMENTED_EVENTS, event_windows
from repro.honeynet.database import SessionDatabase
from repro.honeypot.session import (
    CommandRecord,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.util.timeutils import to_epoch


def session(commands: tuple[str, ...], when=date(2022, 5, 1)) -> SessionRecord:
    return SessionRecord(
        session_id=f"s-{commands[:1]}-{when}",
        honeypot_id="hp",
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="1.1.1.1",
        client_port=1,
        start=to_epoch(when),
        end=to_epoch(when) + 1,
        logins=[LoginAttempt("root", "x", True)],
        commands=[CommandRecord(raw=c, known=True) for c in commands],
    )


def command_rows(records):
    """The session table's command rows over ``records``."""
    return build_session_table(SessionDatabase(records)).commands


class TestEvents:
    def test_eight_documented_events(self):
        assert len(DOCUMENTED_EVENTS) == 8
        assert all(e.start <= e.end for e in DOCUMENTED_EVENTS)

    def test_chronological(self):
        starts = [e.start for e in DOCUMENTED_EVENTS]
        assert starts == sorted(starts)

    def test_event_windows_pairs(self):
        assert event_windows()[0] == (date(2022, 3, 16), date(2022, 3, 24))


class TestVariantSplit:
    def test_initial_not_variant(self):
        record = session(('echo "root:abc123"|chpasswd', "uname -a"))
        assert not is_variant(record)

    def test_variant_detected(self):
        record = session(
            ("rm -rf /tmp/auth.sh /tmp/secure.sh", 'echo "" > /etc/hosts.deny')
        )
        assert is_variant(record)

    def test_split(self):
        initial = session(('echo "root:x"|chpasswd',))
        variant = session(('echo "" > /etc/hosts.deny',))
        a, b = split_variants(command_rows([initial, variant]))
        assert a.sessions == [initial] and b.sessions == [variant]

    def test_selection_by_category(self, dataset):
        selected = mdrfckr_sessions(dataset.table.commands)
        assert selected.sessions
        assert all("mdrfckr" in s.command_text for s in selected.sessions)
        assert set(selected.label) == {"mdrfckr"}


class TestBase64Decoding:
    def test_classify_script_kinds(self):
        assert classify_script("#!/bin/sh\n# cleanup\npkill -9 -f 1.2.3.4") == "cleanup"
        assert classify_script("SERVER=irc.x CHANNEL=#a") == "shellbot"
        assert classify_script("WALLET=x xmrig pool") == "cryptominer"
        assert classify_script("echo hi") == "other"

    def test_decode_and_c2_extraction(self):
        body = "#!/bin/sh\n# cleanup\npkill -9 -f 5.5.5.5\npkill -9 -f 6.6.6.6\n"
        blob = base64.b64encode(body.encode()).decode()
        record = session((f"echo {blob} | base64 -d | bash",))
        decoded = decode_base64_uploads(command_rows([record]))
        assert len(decoded) == 1
        assert decoded[0].day == date(2022, 5, 1)
        assert decoded[0].kind == "cleanup"
        assert decoded[0].c2_ips == ("5.5.5.5", "6.6.6.6")
        assert c2_ips_from_cleanups(decoded) == {"5.5.5.5", "6.6.6.6"}

    def test_invalid_base64_skipped(self):
        record = session(("echo ZZZZ%%%%ZZZZZZZZZZZZZZZZZZZZZZZZ | base64 -d | bash",))
        assert decode_base64_uploads(command_rows([record])) == []

    def test_dataset_c2_matches_ground_truth(self, dataset):
        from repro.attackers.bots.mdrfckr import C2_INFRASTRUCTURE

        decoded = decode_base64_uploads(mdrfckr_sessions(dataset.table.commands))
        c2 = c2_ips_from_cleanups(decoded)
        assert c2 == {ip for ip, _ in C2_INFRASTRUCTURE}


class TestDropDetection:
    def make_series(self, windows):
        """1000-day series at 100/day with given zero windows."""
        start = date(2022, 1, 1)
        series = {}
        for offset in range(700):
            day = start + timedelta(days=offset)
            value = 100
            for w_start, w_end in windows:
                if w_start <= day <= w_end:
                    value = 0
            series[day] = value
        return series

    def test_detects_synthetic_window(self):
        window = (date(2022, 6, 1), date(2022, 6, 7))
        series = self.make_series([window])
        detected = detect_low_activity_windows(series)
        assert detected
        assert any(
            d.start <= window[1] and window[0] <= d.end for d in detected
        )

    def test_no_false_positives_on_flat_series(self):
        series = self.make_series([])
        assert detect_low_activity_windows(series) == []

    def test_warmup_skipped(self):
        # zeros right at the start are the deployment ramp, not a drop
        window = (date(2022, 1, 1), date(2022, 1, 20))
        series = self.make_series([window])
        detected = detect_low_activity_windows(series)
        assert all(d.start > date(2022, 1, 20) for d in detected)

    def test_missing_days_count_as_zero(self):
        series = self.make_series([])
        for offset in range(200, 207):
            del series[date(2022, 1, 1) + timedelta(days=offset)]
        detected = detect_low_activity_windows(series)
        assert detected

    def test_empty_series(self):
        assert detect_low_activity_windows({}) == []


class TestCorrelation:
    def test_matches_overlapping_event(self):
        windows = [LowActivityWindow(date(2022, 3, 17), date(2022, 3, 23))]
        correlation = correlate_events(windows)
        assert DOCUMENTED_EVENTS[0] in correlation.matched_events

    def test_slack_tolerates_offsets(self):
        windows = [LowActivityWindow(date(2022, 3, 26), date(2022, 3, 27))]
        correlation = correlate_events(windows, slack_days=2)
        assert DOCUMENTED_EVENTS[0] in correlation.matched_events

    def test_unmatched_window_reported(self):
        windows = [LowActivityWindow(date(2023, 7, 1), date(2023, 7, 3))]
        correlation = correlate_events(windows)
        assert windows[0] in correlation.unmatched_windows

    def test_recall_bounds(self):
        correlation = correlate_events([])
        assert correlation.recall == 0.0
        full = correlate_events(
            [LowActivityWindow(e.start, e.end) for e in DOCUMENTED_EVENTS]
        )
        assert full.recall == 1.0
