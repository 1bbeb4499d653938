"""The mdrfckr case study (paper section 9, Figures 12 and 13).

All analyses here work *forensically* from session records: the actor's
sessions are selected by the same regex category the paper uses, the
variant split uses observable behavioural differences, and the base64
payloads are decoded from the recorded commands.
"""

from __future__ import annotations

import base64
import binascii
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta

from repro.analysis.monthly import daily_counts
from repro.analysis.table import CommandRows, take
from repro.events import DOCUMENTED_EVENTS, ExternalEvent
from repro.honeypot.session import SessionRecord

#: The credential campaign with the 99.4 % IP overlap.
CAMPAIGN_PASSWORD = "3245gs5662d34"

_BASE64_LINE = re.compile(r"echo\s+([A-Za-z0-9+/=]{24,})\s*\|\s*base64\s+-d")
_PKILL_IP = re.compile(r"pkill\s+-9\s+-f\s+((?:\d{1,3}\.){3}\d{1,3})")


def mdrfckr_sessions(commands: CommandRows) -> CommandRows:
    """The command rows the Table-1 classifier attributes to mdrfckr."""
    return take(
        commands,
        (row for row, label in enumerate(commands.label) if label == "mdrfckr"),
    )


def is_variant(session: SessionRecord) -> bool:
    """Behavioural split: the variant never rotates the root password
    and interferes with WorkMiner's defence scripts."""
    text = session.command_text
    return "hosts.deny" in text and "chpasswd" not in text


def split_variants(rows: CommandRows) -> tuple[CommandRows, CommandRows]:
    """(initial, variant) partition of mdrfckr rows."""
    initial: list[int] = []
    variant: list[int] = []
    for row, session in enumerate(rows.sessions):
        (variant if is_variant(session) else initial).append(row)
    return take(rows, initial), take(rows, variant)


def daily_activity(rows: CommandRows) -> dict[date, tuple[int, int]]:
    """Per day: (session count, unique client IPs) — Figure 12."""
    per_day_sessions = daily_counts(rows.day)
    per_day_ips: dict[date, set[str]] = {}
    for day, session in zip(rows.day, rows.sessions):
        per_day_ips.setdefault(day, set()).add(session.client_ip)
    return {
        day: (count, len(per_day_ips.get(day, set())))
        for day, count in per_day_sessions.items()
    }


def ip_overlap_with_campaign(
    mdrfckr: list[SessionRecord], campaign: list[SessionRecord]
) -> float:
    """|IPs(mdrfckr) ∩ IPs(campaign)| / |IPs(campaign)|, where the
    campaign is the sessions that logged in with
    :data:`CAMPAIGN_PASSWORD`."""
    campaign_ips = {s.client_ip for s in campaign}
    if not campaign_ips:
        return 0.0
    mdrfckr_ips = {s.client_ip for s in mdrfckr}
    return len(campaign_ips & mdrfckr_ips) / len(campaign_ips)


@dataclass
class DecodedScript:
    """One decoded base64 upload."""

    session_id: str
    client_ip: str
    day: date
    kind: str                   # cryptominer / shellbot / cleanup / other
    body: str
    c2_ips: tuple[str, ...]


def classify_script(body: str) -> str:
    lowered = body.lower()
    if "pkill" in lowered and "cleanup" in lowered:
        return "cleanup"
    if "irc" in lowered or "shellbot" in lowered:
        return "shellbot"
    if "xmrig" in lowered or "pool" in lowered or "wallet" in lowered:
        return "cryptominer"
    return "other"


def decode_base64_uploads(rows: CommandRows) -> list[DecodedScript]:
    """Find and decode every base64-piped script in the rows' sessions."""
    decoded: list[DecodedScript] = []
    for session, day in zip(rows.sessions, rows.day):
        for record in session.commands:
            match = _BASE64_LINE.search(record.raw)
            if match is None:
                continue
            try:
                body = base64.b64decode(match.group(1)).decode(
                    "utf-8", "replace"
                )
            except (binascii.Error, ValueError):
                continue
            decoded.append(
                DecodedScript(
                    session_id=session.session_id,
                    client_ip=session.client_ip,
                    day=day,
                    kind=classify_script(body),
                    body=body,
                    c2_ips=tuple(_PKILL_IP.findall(body)),
                )
            )
    return decoded


def c2_ips_from_cleanups(decoded: list[DecodedScript]) -> set[str]:
    """The fixed IP set targeted by the cleanup script (the C2 core)."""
    ips: set[str] = set()
    for script in decoded:
        if script.kind == "cleanup":
            ips.update(script.c2_ips)
    return ips


@dataclass
class LowActivityWindow:
    """A detected collapse in daily mdrfckr activity."""

    start: date
    end: date

    @property
    def days(self) -> int:
        return (self.end - self.start).days + 1

    def overlaps(self, event: ExternalEvent) -> bool:
        return self.start <= event.end and event.start <= self.end


def detect_low_activity_windows(
    per_day: dict[date, int],
    drop_ratio: float = 0.08,
    baseline_days: int = 28,
    warmup_days: int = 45,
    smooth_days: int = 5,
) -> list[LowActivityWindow]:
    """Find days where activity collapses below ``drop_ratio`` × normal.

    The calendar is filled (days with zero recorded sessions count as
    zero), activity is smoothed over ``smooth_days`` to be robust at
    small simulation scales, and the first ``warmup_days`` are skipped —
    the honeynet deployment ramp also looks like low activity
    (section 9).  Adjacent low days merge into windows.
    """
    if not per_day:
        return []
    first = min(per_day)
    last = max(per_day)
    calendar: list[date] = []
    cursor = first
    while cursor <= last:
        calendar.append(cursor)
        cursor += timedelta(days=1)
    counts = [per_day.get(d, 0) for d in calendar]
    half = smooth_days // 2
    smoothed = [
        sum(counts[max(0, i - half) : i + half + 1])
        / len(counts[max(0, i - half) : i + half + 1])
        for i in range(len(counts))
    ]
    low_days: list[date] = []
    for index, day in enumerate(calendar):
        if (day - first).days < warmup_days:
            continue
        lo = max(0, index - baseline_days)
        baseline = sorted(smoothed[lo:index] or [smoothed[index]])
        median = baseline[len(baseline) // 2]
        if median > 0 and smoothed[index] <= drop_ratio * median:
            low_days.append(day)
    windows: list[LowActivityWindow] = []
    for day in low_days:
        if windows and (day - windows[-1].end).days <= 2:
            windows[-1] = LowActivityWindow(windows[-1].start, day)
        else:
            windows.append(LowActivityWindow(day, day))
    return windows


@dataclass
class EventCorrelation:
    """How detected windows line up with documented events."""

    windows: list[LowActivityWindow]
    matched_events: list[ExternalEvent]
    unmatched_events: list[ExternalEvent]
    unmatched_windows: list[LowActivityWindow]

    @property
    def recall(self) -> float:
        total = len(self.matched_events) + len(self.unmatched_events)
        return len(self.matched_events) / total if total else 0.0


def correlate_events(
    windows: list[LowActivityWindow],
    events: tuple[ExternalEvent, ...] = DOCUMENTED_EVENTS,
    slack_days: int = 2,
) -> EventCorrelation:
    """Match detected windows against the documented event list."""
    matched: list[ExternalEvent] = []
    unmatched_events: list[ExternalEvent] = []
    used: set[int] = set()
    for event in events:
        padded = ExternalEvent(
            event.start - timedelta(days=slack_days),
            event.end + timedelta(days=slack_days),
            event.description,
        )
        hit = False
        for index, window in enumerate(windows):
            if window.overlaps(padded):
                used.add(index)
                hit = True
        (matched if hit else unmatched_events).append(event)
    unmatched_windows = [
        w for i, w in enumerate(windows) if i not in used
    ]
    return EventCorrelation(
        windows=windows,
        matched_events=matched,
        unmatched_events=unmatched_events,
        unmatched_windows=unmatched_windows,
    )


def base64_uploader_ips(decoded: list[DecodedScript]) -> Counter:
    """How often each client IP uploaded a base64 script."""
    return Counter(script.client_ip for script in decoded)
