"""Figure 15 + appendix C: the curl proxy-abuse campaign."""

from __future__ import annotations

from collections import Counter

from repro.analysis.monthly import monthly_counts
from repro.analysis.storage import uri_host
from repro.analysis.table import take
from repro.config import PAPER
from repro.experiments.base import Experiment, register


@register
class Fig15CurlCampaign(Experiment):
    """Shape of the curl_maxred sessions (clients, targets, requests)."""

    experiment_id = "fig15"
    title = "curl proxy-abuse campaign (curl_maxred)"
    paper_reference = "Figure 15 + appendix C"

    def run(self, dataset):
        commands = dataset.table.commands
        campaign = take(
            commands,
            (
                row
                for row, label in enumerate(commands.label)
                if label == "curl_maxred"
            ),
        )
        sessions = campaign.sessions
        request_count = sum(
            sum(1 for c in s.commands if c.raw.startswith("curl ")) for s in sessions
        )
        clients = {s.client_ip for s in sessions}
        honeypots = {s.honeypot_id for s in sessions}
        targets: Counter = Counter()
        cookies: set[str] = set()
        methods: Counter = Counter()
        for session in sessions:
            for uri in session.uris:
                host = uri_host(uri)
                if host:
                    targets[host] += 1
            for command in session.commands:
                if "--cookie" in command.raw:
                    cookie = command.raw.split("--cookie '", 1)[-1].split("'", 1)[0]
                    cookies.add(cookie)
                if "-X GET" in command.raw:
                    methods["GET"] += 1
                elif "-X POST" in command.raw:
                    methods["POST"] += 1
        per_month = monthly_counts(campaign.month)
        rows = [
            [month, per_month[month]] for month in sorted(per_month)
        ]
        sample = next(
            (
                c.raw
                for s in sessions
                for c in s.commands
                if c.raw.startswith("curl ")
            ),
            "-",
        )
        notes = [
            f"sessions: {len(sessions)} from {len(clients)} client IPs "
            f"(paper: ~{PAPER.curl_maxred_sessions:,} from "
            f"{PAPER.curl_maxred_client_ips})",
            f"honeypots abused as proxies: {len(honeypots)} "
            f"(paper: {PAPER.curl_maxred_honeypots} of 221)",
            f"curl requests: {request_count} "
            f"(paper: {PAPER.curl_maxred_requests:,} at full scale); "
            f"distinct target hosts: {len(targets)} (paper: >100)",
            f"every cookie unique: {len(cookies) == request_count} "
            f"({len(cookies)} cookies for {request_count} requests)",
            f"methods mix: {dict(methods)}",
            f"sample command: {sample[:120]}...",
            "downloads fail against these targets, so the honeypot keeps "
            "no artifacts — the sessions are pure proxying",
        ]
        return self.result(["month", "sessions"], rows, notes)
