"""Bot behaviours: every bot produces intents consistent with its paper
category and the simulator's ground-truth labelling."""

from __future__ import annotations

import random
from datetime import date

import pytest

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.attackers.base import Bot, BotContext
from repro.attackers.bots.curl_proxy import TARGETED_HONEYPOTS
from repro.attackers.bots.mdrfckr import (
    C2_INFRASTRUCTURE,
    MDRFCKR_KEY,
    VARIANT_START,
)
from repro.attackers.fleetplan import build_fleet, find_bot
from repro.attackers.labels import COMMANDLESS_BOTS, EXPECTED_CATEGORY
from repro.attackers.infrastructure import StorageInfrastructure
from repro.attackers.malware import MalwareFactory
from repro.config import DEFAULT_CONFIG
from repro.net.population import build_base_population
from repro.util.rng import RngTree


@pytest.fixture(scope="module")
def context():
    tree = RngTree(13)
    population = build_base_population(tree.child("net"))
    return BotContext(
        config=DEFAULT_CONFIG,
        population=population,
        infrastructure=StorageInfrastructure(
            DEFAULT_CONFIG, population, tree.child("infra")
        ),
        malware=MalwareFactory(tree.child("malware")),
        tree=tree.child("bots"),
    )


@pytest.fixture(scope="module")
def fleet(context):
    return build_fleet(context.population, RngTree(13).child("fleet"), DEFAULT_CONFIG)


_ACTIVE_DAY = {
    # bots whose campaigns are not active on the generic probe day
    "bbox_unlabelled": date(2022, 3, 1),
    "bbox_loaderwget": date(2022, 3, 1),
    "bbox_echo_elf": date(2022, 11, 10),
    "bbox_rand_exec": date(2022, 8, 1),
    "bbox_rand_exec#noexec": date(2022, 8, 1),
    "curl_maxred": date(2024, 2, 1),
    "mdrfckr_variant": date(2023, 6, 1),
    "mdrfckr_base64": date(2022, 10, 12),
    "xorddos": date(2023, 6, 1),
}
_DEFAULT_PROBE_DAY = date(2023, 5, 10)


class TestCategoryMapping:
    def test_every_mapped_bot_exists(self, fleet):
        names = {bot.name for bot in fleet}
        mapped = set(EXPECTED_CATEGORY)
        missing = mapped - names
        assert not missing, f"mapping refers to unknown bots: {missing}"

    def test_every_command_bot_is_mapped(self, fleet):
        unmapped = []
        for bot in fleet:
            if bot.name in EXPECTED_CATEGORY:
                continue
            if bot.name in COMMANDLESS_BOTS:
                continue
            unmapped.append(bot.name)
        assert not unmapped, f"bots without category expectation: {unmapped}"

    @pytest.mark.parametrize("bot_name", sorted(EXPECTED_CATEGORY))
    def test_bot_sessions_classify_as_expected(self, context, fleet, bot_name):
        bot = find_bot(fleet, bot_name)
        day = _ACTIVE_DAY.get(bot_name, _DEFAULT_PROBE_DAY)
        rng = random.Random(99)
        intent = bot.build_intent(context, day, rng, 0)
        text = " ; ".join(intent.command_lines)
        assert DEFAULT_CLASSIFIER.classify_text(text) == EXPECTED_CATEGORY[bot_name]


class TestBotDayStreams:
    def test_streams_equal_tree_children(self, context, fleet):
        first = date(2023, 5, 1).toordinal()
        for bot in fleet:
            for ordinal in range(first, first + 60):
                for kind in ("count", "intents", "route"):
                    stream = context.stream(kind, bot.name, ordinal)
                    child = context.tree.child(kind, bot.name, ordinal)
                    assert stream.getstate() == child.rand().getstate()


class TestVolumeScaling:
    def test_session_count_scales_with_config(self, context, fleet):
        bot = find_bot(fleet, "echo_OK")
        small = sum(
            bot.session_count(context, date(2023, 5, d)) for d in range(1, 29)
        )
        big_config = DEFAULT_CONFIG.replace(scale=DEFAULT_CONFIG.scale * 10)
        big_context = BotContext(
            config=big_config,
            population=context.population,
            infrastructure=context.infrastructure,
            malware=context.malware,
            tree=context.tree,
        )
        big = sum(
            bot.session_count(big_context, date(2023, 5, d)) for d in range(1, 29)
        )
        assert big > small * 4

    def test_zero_outside_activity(self, context, fleet):
        bot = find_bot(fleet, "curl_maxred")
        assert bot.session_count(context, date(2022, 6, 1)) == 0


class TestMdrfckrActor:
    def test_key_constant_and_labelled(self):
        assert "mdrfckr" in MDRFCKR_KEY
        assert "AAAAB3NzaC1yc2EAAAADQAB" not in MDRFCKR_KEY  # sanity

    def test_initial_changes_password(self, context, fleet):
        bot = find_bot(fleet, "mdrfckr")
        intent = bot.build_intent(context, date(2023, 5, 10), random.Random(1), 0)
        text = " ; ".join(intent.command_lines)
        assert "chpasswd" in text
        assert "hosts.deny" not in text

    def test_variant_behaviour_changes(self, context, fleet):
        bot = find_bot(fleet, "mdrfckr_variant")
        intent = bot.build_intent(context, date(2023, 5, 10), random.Random(1), 0)
        text = " ; ".join(intent.command_lines)
        assert "chpasswd" not in text
        assert "rm -rf /tmp/auth.sh /tmp/secure.sh" in text
        assert 'echo "" > /etc/hosts.deny' in text

    def test_variant_starts_2022_12_08(self, fleet):
        bot = find_bot(fleet, "mdrfckr_variant")
        assert bot.rate(VARIANT_START - date.resolution) == 0
        assert bot.rate(VARIANT_START) > 0

    def test_variant_order_of_magnitude_smaller(self, fleet):
        initial = find_bot(fleet, "mdrfckr")
        variant = find_bot(fleet, "mdrfckr_variant")
        day = date(2023, 6, 1)
        assert initial.rate(day) / variant.rate(day) >= 8

    def test_suppression_during_events(self, fleet):
        bot = find_bot(fleet, "mdrfckr")
        assert bot.rate(date(2022, 10, 12)) < 0.01 * bot.rate(date(2022, 11, 15))

    def test_base64_only_in_windows(self, fleet):
        bot = find_bot(fleet, "mdrfckr_base64")
        assert bot.rate(date(2022, 10, 12)) > 0
        assert bot.rate(date(2022, 11, 15)) == 0

    def test_base64_scripts_decode(self, context, fleet):
        import base64 as b64
        import re

        bot = find_bot(fleet, "mdrfckr_base64")
        kinds = set()
        for index in range(12):
            intent = bot.build_intent(
                context, date(2022, 10, 12), random.Random(index), 0
            )
            line = intent.command_lines[-1]
            blob = re.search(r"echo (\S+) \|", line).group(1)
            body = b64.b64decode(blob).decode()
            if "cleanup" in body:
                kinds.add("cleanup")
                for ip, _ in C2_INFRASTRUCTURE:
                    assert ip in body
            elif "irc" in body.lower():
                kinds.add("shellbot")
            else:
                kinds.add("cryptominer")
        assert kinds == {"cleanup", "shellbot", "cryptominer"}

    def test_login3245_no_commands(self, context, fleet):
        bot = find_bot(fleet, "login_3245gs5662d34")
        intent = bot.build_intent(context, date(2023, 1, 10), random.Random(0), 0)
        assert intent.command_lines == ()
        assert intent.credentials == (("root", "3245gs5662d34"),)

    def test_login3245_first_day_after_18utc(self, fleet):
        bot = find_bot(fleet, "login_3245gs5662d34")
        rng = random.Random(0)
        for _ in range(20):
            assert bot.start_seconds(rng, VARIANT_START) >= 18 * 3600

    def test_login3245_ip_pool_mostly_shared(self, fleet):
        mdrfckr = find_bot(fleet, "mdrfckr")
        campaign = find_bot(fleet, "login_3245gs5662d34")
        shared = set(mdrfckr.pool.ips) & set(campaign.pool.ips)
        assert len(shared) == len(mdrfckr.pool.ips)


class TestCurlMaxred:
    def test_exactly_four_client_ips(self, fleet):
        bot = find_bot(fleet, "curl_maxred")
        assert len(bot.pool) == 4

    def test_session_shape(self, context, fleet):
        bot = find_bot(fleet, "curl_maxred")
        intent = bot.build_intent(context, date(2024, 2, 1), random.Random(0), 0)
        assert 90 <= len(intent.command_lines) <= 110
        assert all(line.startswith("curl ") for line in intent.command_lines)
        assert all("--max-redirs" in line for line in intent.command_lines)
        assert intent.hold_open

    def test_unique_cookies(self, context, fleet):
        bot = find_bot(fleet, "curl_maxred")
        intent = bot.build_intent(context, date(2024, 2, 1), random.Random(0), 0)
        cookies = [
            line.split("--cookie '")[1].split("'")[0]
            for line in intent.command_lines
        ]
        assert len(set(cookies)) == len(cookies)

    def test_targets_restricted_honeypots(self, fleet):
        bot = find_bot(fleet, "curl_maxred")
        rng = random.Random(0)
        indexes = {bot.choose_honeypot_index(rng, 221) for _ in range(500)}
        assert max(indexes) < TARGETED_HONEYPOTS


class TestHoneypotHunters:
    def test_phil_mostly_silent(self, context, fleet):
        bot = find_bot(fleet, "phil_scanner")
        silent = 0
        for index in range(100):
            intent = bot.build_intent(
                context, date(2023, 5, 10), random.Random(index), 0
            )
            assert intent.credentials[0][0] == "phil"
            if not intent.command_lines:
                silent += 1
        assert silent >= 80

    def test_richard_always_fails_policy(self, context, fleet):
        from repro.honeypot.auth import accepts

        bot = find_bot(fleet, "richard_scanner")
        intent = bot.build_intent(context, date(2023, 5, 10), random.Random(0), 0)
        username, password = intent.credentials[0]
        assert username == "richard"
        assert not accepts(username, password)


class TestTvBox:
    def test_synchronized_waves(self, fleet):
        dreambox = find_bot(fleet, "tvbox_dreambox")
        vertex = find_bot(fleet, "tvbox_vertex25ektks123")
        for day in (date(2023, 4, 1), date(2024, 2, 1), date(2022, 6, 1)):
            assert (dreambox.rate(day) > 0) == (vertex.rate(day) > 0)

    def test_default_credentials(self, context, fleet):
        bot = find_bot(fleet, "tvbox_dreambox")
        intent = bot.build_intent(context, date(2023, 4, 1), random.Random(0), 0)
        assert intent.credentials == (("root", "dreambox"),)


class TestFleet:
    def test_unique_names(self, fleet):
        names = [bot.name for bot in fleet]
        assert len(names) == len(set(names))

    def test_fleet_size(self, fleet):
        assert len(fleet) > 55

    def test_find_bot_missing(self, fleet):
        with pytest.raises(KeyError):
            find_bot(fleet, "nope")

    def test_xorddos_stops_early_2024(self, fleet):
        bot = find_bot(fleet, "xorddos")
        assert bot.rate(date(2023, 12, 1)) > 0
        assert bot.rate(date(2024, 3, 1)) == 0

    def test_bbox_unlabelled_ends_mid_2022(self, fleet):
        bot = find_bot(fleet, "bbox_unlabelled")
        assert bot.rate(date(2022, 6, 1)) > 0
        assert bot.rate(date(2022, 9, 1)) == 0
