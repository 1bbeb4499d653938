"""Bot framework: how attacker behaviours become connection intents.

A :class:`Bot` owns an activity model (sessions/day at paper scale), a
client-IP pool and a behaviour generator.  The orchestrator asks each
bot for its sessions day by day; everything is derived deterministically
from the simulation seed, the bot name and the date.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date

from repro.attackers.activity import ActivityModel
from repro.attackers.infrastructure import StorageInfrastructure
from repro.attackers.ippool import ClientIPPool
from repro.attackers.malware import MalwareFactory
from repro.config import SimulationConfig
from repro.honeypot.session import ConnectionIntent, Protocol
from repro.net.population import BasePopulation
from repro.util.rng import RngTree, SeedPrefix, poisson

#: Default SSH client banners rotated by bots.
DEFAULT_SSH_VERSIONS = (
    "SSH-2.0-libssh2_1.8.2",
    "SSH-2.0-Go",
    "SSH-2.0-PUTTY",
    "SSH-2.0-OpenSSH_7.4p1",
    "SSH-2.0-libssh-0.9.6",
)


@dataclass
class BotContext:
    """Shared simulation substrate handed to every bot."""

    config: SimulationConfig
    population: BasePopulation
    infrastructure: StorageInfrastructure
    malware: MalwareFactory
    tree: RngTree
    #: One seed prefix per (stream kind, bot name), built on first use.
    _prefixes: dict[tuple[str, str], SeedPrefix] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def stream(self, kind: str, bot: str, ordinal: int) -> random.Random:
        """A fresh generator for one bot-day stream.

        The same state as ``tree.child(kind, bot, ordinal).rand()``; the
        ``(kind, bot)`` head of the path is hashed once per run.
        """
        key = (kind, bot)
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = self._prefixes[key] = self.tree.prefix(kind, bot)
        return prefix.rand(ordinal)


class Bot:
    """Base class for one attacker behaviour (one ground-truth label)."""

    #: Telnet share of this bot's sessions (the paper analyses SSH only,
    #: but the honeynet records both).
    telnet_fraction: float = 0.0
    #: Boost tiny expected volumes so rare actors stay observable at
    #: small scales (documented deviation; 0 disables).
    min_expected_per_day: float = 0.0
    ssh_versions: tuple[str, ...] = DEFAULT_SSH_VERSIONS

    def __init__(
        self, name: str, activity: ActivityModel, pool: ClientIPPool
    ) -> None:
        self.name = name
        self.activity = activity
        self.pool = pool

    # ------------------------------------------------------------------
    def rate(self, day: date) -> float:
        """Paper-scale sessions/day."""
        return self.activity.rate(day)

    def session_count(self, ctx: BotContext, day: date) -> int:
        """Scaled Poisson draw of today's session count.

        Activity rates are specified as *SSH* sessions/day (the paper's
        volumes are SSH-only); bots with a Telnet share emit extra
        sessions on top so the SSH volume still matches the rate.
        """
        expected = self.rate(day) * ctx.config.scale
        if self.telnet_fraction > 0:
            expected /= 1.0 - min(self.telnet_fraction, 0.9)
        if expected <= 0:
            return 0
        if self.min_expected_per_day > 0:
            expected = max(expected, self.min_expected_per_day)
        rng = ctx.stream("count", self.name, day.toordinal())
        return poisson(rng, expected)

    def sessions_for_day(self, ctx: BotContext, day: date) -> list[ConnectionIntent]:
        """All of this bot's connection intents for ``day``."""
        count = self.session_count(ctx, day)
        if count == 0:
            return []
        rng = ctx.stream("intents", self.name, day.toordinal())
        return [self.build_intent(ctx, day, rng, index) for index in range(count)]

    # ------------------------------------------------------------------
    # helpers available to subclasses
    # ------------------------------------------------------------------
    def start_seconds(self, rng: random.Random, day: date) -> float:
        """Second-of-day at which a session starts (uniform by default)."""
        return rng.uniform(0, 86_400)

    def choose_honeypot_index(
        self, rng: random.Random, fleet_size: int
    ) -> int:
        """Which honeypot a session targets (uniform by default)."""
        return rng.randrange(fleet_size)

    def client_ip(self, rng: random.Random) -> str:
        return self.pool.pick(rng)

    def protocol(self, rng: random.Random) -> Protocol:
        if self.telnet_fraction > 0 and rng.random() < self.telnet_fraction:
            return Protocol.TELNET
        return Protocol.SSH

    def ssh_version(self, rng: random.Random) -> str:
        return rng.choice(list(self.ssh_versions))

    def make_intent(
        self,
        rng: random.Random,
        credentials: tuple[tuple[str, str], ...],
        command_lines: tuple[str, ...] = (),
        remote_files: tuple[tuple[str, bytes], ...] = (),
        duration_s: float | None = None,
        hold_open: bool = False,
        client_ip: str | None = None,
    ) -> ConnectionIntent:
        protocol = self.protocol(rng)
        return ConnectionIntent(
            client_ip=client_ip or self.client_ip(rng),
            client_port=rng.randint(1024, 65000),
            protocol=protocol,
            ssh_version=self.ssh_version(rng) if protocol == Protocol.SSH else None,
            credentials=credentials,
            command_lines=command_lines,
            remote_files=remote_files,
            duration_s=duration_s
            if duration_s is not None
            else rng.uniform(1.0, 20.0),
            hold_open=hold_open,
            bot_label=self.name,
        )

    # ------------------------------------------------------------------
    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        raise NotImplementedError


def random_password(rng: random.Random, length: int, alphabet: str) -> str:
    """A random credential string of the given length."""
    return "".join(rng.choice(alphabet) for _ in range(length))


ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
LOWER_DIGITS = "abcdefghijklmnopqrstuvwxyz0123456789"
UPPER5 = "ABCDEFGHJKLMNPQRSTUVWXYZ"
#: Vowel-free alphabet for generated filenames: no random name can spell
#: a category trigger token ("sora", "dred", "ok", ...).
SAFE_NAME_ALPHABET = "bcdfghjklmnpqrtvwxz"
