"""Markdown rendering of experiment results (EXPERIMENTS.md generator)."""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.experiments.base import ExperimentResult
from repro.honeynet.deployment import N_HONEYPOTS

#: Per-experiment paper-side summary lines for the comparison document.
PAPER_EXPECTATIONS: dict[str, str] = {
    "table_stats": "635M sessions (546M SSH, 850K IPs); scanning 45M / "
                   "scouting 258M / intrusion 80M / command-exec 163M",
    "fig01": "both session types comparable 2021-2022 with an early-2022 "
             "spike; non-state sessions clearly increase from early 2023",
    "fig02": "echo_OK alone >80% of non-state sessions; top-3 >95%; "
             "wave-like scouts (bbox_scout_cat, uname_a) vs constant ones",
    "fig03a": "mdrfckr >90% of no-exec state modification; >500k "
              "sessions/month; curl_maxred wave Jan-Apr 2024",
    "fig03b": "top-3 exec bots ≈50%; bbox_unlabelled ends abruptly "
              "mid-2022; volumes decline from late 2022",
    "fig04a": "3M file-exists sessions; >100k/month in 2022 collapsing "
              "to ~5k/month from 2023",
    "fig04b": "12M file-missing sessions (scp/ftp/rsync evasion); 4:1 "
              "missing-to-exists ratio",
    "fig05": "90 clusters via elbow+silhouette; clusters ordered by "
             "token count; block-diagonal DLD structure",
    "fig06": "C-1 (mixed) and C-6 (XorDDoS) continuous; C-2 (Gafgyt) / "
             "C-3 (Mirai) in waves; XorDDoS stops early 2024; Mirai "
             "resurges spring 2024 (Corona/Kyton/Ares)",
    "fig07": "80% of downloads use a storage IP ≠ client IP; clients in "
             "ISP/NSP space, storage in Hosting/CDN; 32k clients vs 3k "
             "storage IPs",
    "fig08a": ">35% of sessions use an AS registered <1 year before; "
              ">70% <5 years",
    "fig08b": "~20% of storage ASes announce a single /24; ~50% fewer "
              "than fifty",
    "fig09": "1-week recall: 50% of IPs active one day, 20% ≤4 days, "
             "~30% the full week; ~25% of IPs reappear after ≥6 months",
    "fig10": "3245gs5662d34 tops the chart (24M sessions from 125k IPs "
             "starting 2022-12-08 18:00); dreambox and vertex25ektks123 "
             "synchronized (one TV-box botnet)",
    "fig11": "~30k phil logins from >10k IPs in >1k ASes; >90% issue no "
             "command (honeypot fingerprinting); richard always fails",
    "fig12": "~100k sessions/day from ~7k IPs; eight documented event "
             "windows with collapses to ~100/day; base64 uploads "
             "(cryptominer/shellbot/cleanup) from 1,624 one-shot IPs; "
             "8 C2 IPs; 988 Killnet-overlap IPs; key on >13k servers "
             "(Shadowserver)",
    "fig13": "variant and credential campaign both start 2022-12-08; "
             "variant ≥10x smaller; 99.4% client-IP overlap",
    "fig14": "info-gathering categories form a separate low-distance "
             "block in the inter-category DLD matrix",
    "fig15": "4 client IPs → 180 honeypots; ~200k sessions, ~100 curls "
             "each (~20M requests); unique cookie per request; >100 "
             "RU/UA targets",
    "fig16": "file-missing sessions show more unique commands than "
             "file-exists; Mirai spikes early-2022 and Dec-2022",
    "fig17": "Hosting ASes dominate storage throughout; sporadic "
             "ISP/NSP and CDN appearances",
    "table1": "58 regex categories + unknown; >99% of 162M command "
              "sessions classified",
    "ext_stateful": "(extension) section 10 proposes persistent storage "
                    "so honeypots survive consistency probes",
    "ext_ablation_tokenizer": "(ablation) section 6 claims token-level "
                              "DLD is robust to IP/filename obfuscation",
    "ext_ablation_ruleorder": "(ablation) Table 1 evaluates "
                              "actor-specific signatures before the "
                              "generic gen_* combinations",
    "ext_ablation_detection": "(ablation) sections 9-10 detect "
                              "low-activity windows against a rolling "
                              "baseline",
    "ext_baseline_clustering": "(baseline) the paper picks K-Means over "
                               "the DLD matrix; hierarchical clustering "
                               "is the standard alternative",
    "ext_sensor_coverage": "(extension) sections 3.1/10 describe 221 "
                           "sensors in 55 countries with coverage gaps; "
                           "only curl_maxred targets a sensor subset",
    "ext_validation": "(validation) the regex pipeline should recover "
                      "the generative ground truth it never sees",
}


def result_to_markdown(result: ExperimentResult, max_rows: int = 8) -> str:
    """One experiment as a markdown section."""
    lines = [f"### {result.experiment_id} — {result.title}", ""]
    expectation = PAPER_EXPECTATIONS.get(result.experiment_id)
    if expectation:
        lines.append(f"**Paper:** {expectation}")
        lines.append("")
    lines.append("**Measured (this run):**")
    lines.extend(f"- {note}" for note in result.notes)
    if result.rows:
        lines.append("")
        lines.append("| " + " | ".join(result.headers) + " |")
        lines.append("|" + "---|" * len(result.headers))
        shown = result.rows[:max_rows]
        for row in shown:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        if len(result.rows) > max_rows:
            lines.append(f"| … ({len(result.rows) - max_rows} more rows) |" )
    lines.append("")
    return "\n".join(lines)


def experiments_markdown(
    results: dict[str, ExperimentResult], config: SimulationConfig
) -> str:
    """The full EXPERIMENTS.md document body."""
    header = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `repro report` "
        "(every table and figure of the paper's evaluation).",
        "",
        f"Run configuration: `seed={config.seed}`, `scale={config.scale}` "
        f"(measured counts are ≈ scale × paper counts), window "
        f"{config.start} … {config.end}, {N_HONEYPOTS} honeypots.",
        "",
        "Absolute numbers are not expected to match — the substrate is a "
        "synthetic honeynet at a reduced scale.  The comparisons below "
        "check the *shape*: who dominates, by roughly what factor, and "
        "where the temporal breaks fall.",
        "",
    ]
    body = [result_to_markdown(results[eid]) for eid in results]
    return "\n".join(header) + "\n" + "\n".join(body)
