"""Figure 7: client AS type vs malware-storage AS type (Sankey)."""

from __future__ import annotations

from collections import Counter

from repro.analysis.storage import (
    client_storage_flows,
    flow_graph,
    heaviest_edge,
    same_ip_fraction,
)
from repro.experiments.base import Experiment, register


@register
class Fig07Sankey(Experiment):
    """Flows from attacking-client AS types to storage AS types."""

    experiment_id = "fig07"
    title = "Client vs malware-storage AS types"
    paper_reference = "Figure 7"

    def run(self, dataset):
        headers = ["client AS type", "storage AS type", "flow", "observations"]
        observations = dataset.download_observations()
        flows = client_storage_flows(observations, dataset.whois)
        if not flows:
            return self.result(
                headers,
                [],
                ["no flows: no command session fetched from an IPv4 host"],
            )
        rows = [
            [client, storage, "same-ip" if same else "different", count]
            for (client, storage, same), count in sorted(
                flows.items(), key=lambda kv: -kv[1]
            )
        ]
        client_types: Counter = Counter()
        storage_types: Counter = Counter()
        for (client, storage, _), count in flows.items():
            client_types[client] += count
            storage_types[storage] += count
        total = sum(flows.values()) or 1
        different = 1.0 - same_ip_fraction(observations)
        cloudy = (
            storage_types.get("Hosting", 0) + storage_types.get("CDN", 0)
        ) / total
        source, target, weight = heaviest_edge(flow_graph(flows))
        notes = [
            f"storage IP differs from client IP in {different:.0%} of "
            "download observations (paper: 80%)",
            f"heaviest Sankey edge: {source} → {target} "
            f"({weight} observations) — the ISP/NSP→Hosting "
            "flow the paper's figure shows widest",
            f"client side dominated by ISP/NSP: "
            f"{client_types.get('ISP/NSP', 0) / total:.0%} (paper: most)",
            f"storage side in Hosting/CDN: {cloudy:.0%} (paper: majority "
            "in cloud environments)",
            f"unique storage IPs: "
            f"{len({o.storage_ip for o in observations})}, unique download "
            f"clients: {len({o.client_ip for o in observations})} "
            "(paper: 3k vs 32k — one order of magnitude)",
        ]
        return self.result(headers, rows, notes)
