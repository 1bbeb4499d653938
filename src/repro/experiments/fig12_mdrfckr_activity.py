"""Figure 12: the mdrfckr actor's daily activity and its collapses."""

from __future__ import annotations

from repro.analysis.mdrfckr_case import (
    base64_uploader_ips,
    c2_ips_from_cleanups,
    correlate_events,
    daily_activity,
    decode_base64_uploads,
    detect_low_activity_windows,
    mdrfckr_sessions,
)
from repro.attackers.bots.mdrfckr import MDRFCKR_KEY
from repro.config import PAPER
from repro.experiments.base import Experiment, register
from repro.util.hashing import sha256_hex
from repro.util.timeutils import month_key


@register
class Fig12MdrfckrActivity(Experiment):
    """Daily sessions/IPs, detected drop windows, event correlation."""

    experiment_id = "fig12"
    title = "mdrfckr actor: temporal view and event correlation"
    paper_reference = "Figure 12 + section 10"

    def run(self, dataset):
        mdrfckr = mdrfckr_sessions(dataset.table.commands)
        sessions = mdrfckr.sessions
        activity = daily_activity(mdrfckr)
        monthly: dict[str, list[tuple[int, int]]] = {}
        for day, (count, ips) in activity.items():
            monthly.setdefault(month_key(day), []).append((count, ips))
        rows = []
        for month in sorted(monthly):
            values = monthly[month]
            mean_sessions = sum(v[0] for v in values) / len(values)
            mean_ips = sum(v[1] for v in values) / len(values)
            low_days = sum(1 for v in values if v[0] <= 0.05 * mean_sessions)
            rows.append(
                [month, f"{mean_sessions:.1f}", f"{mean_ips:.1f}", low_days]
            )
        per_day = {day: count for day, (count, _) in activity.items()}
        windows = detect_low_activity_windows(per_day)
        correlation = correlate_events(windows)
        decoded = decode_base64_uploads(mdrfckr)
        uploader_ips = base64_uploader_ips(decoded)
        kinds = sorted({script.kind for script in decoded})
        c2 = c2_ips_from_cleanups(decoded)
        killnet_overlap = len(
            {s.client_ip for s in sessions} & dataset.killnet_ips
        )
        from repro.experiments.dataset import MDRFCKR_KEY_FILE_HASH

        mdr_hash_label = dataset.abuse.label(MDRFCKR_KEY_FILE_HASH)
        shadowserver_hosts = dataset.shadowserver.host_count(
            sha256_hex(MDRFCKR_KEY)
        )
        notes = [
            f"total mdrfckr sessions: {len(sessions)} from "
            f"{len({s.client_ip for s in sessions})} IPs (paper: "
            f"{PAPER.mdrfckr_sessions:,} from "
            f"{PAPER.mdrfckr_client_ips:,} at full scale)",
            f"detected low-activity windows: {len(windows)}; documented "
            f"events matched: {len(correlation.matched_events)}/"
            f"{len(correlation.matched_events) + len(correlation.unmatched_events)} "
            f"(recall {correlation.recall:.0%})",
            f"base64 uploads decoded: {len(decoded)} across kinds {kinds} "
            f"from {len(uploader_ips)} one-shot-ish IPs (paper: "
            f"{PAPER.base64_upload_ips:,} IPs, three script families)",
            f"C2 IPs named by cleanup scripts: {len(c2)} (paper: 8)",
            f"client-IP overlap with the Killnet proxy list: "
            f"{killnet_overlap} addresses (paper: "
            f"{PAPER.killnet_overlap_ips})",
            f"abuse label of the persistence-key file hash: {mdr_hash_label} "
            "(paper: CoinMiner/Malicious)",
            f"Shadowserver report: mdrfckr key on {shadowserver_hosts} "
            "hosts — the most prevalent key "
            f"(paper: >{PAPER.shadowserver_mdrfckr_hosts:,} at full scale)",
        ]
        notes.extend(dataset.coverage_notes())
        return self.result(
            ["month", "mean sessions/day", "mean IPs/day", "low days"],
            rows,
            notes,
        )
