"""Fuzzing: every bot's output must be safe for the honeypot to ingest.

The honeypot must never raise on hostile input; these tests sweep every
bot across many (day, seed) combinations and random shell garbage.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attackers.base import BotContext
from repro.attackers.fleetplan import build_fleet
from repro.attackers.infrastructure import StorageInfrastructure
from repro.attackers.malware import MalwareFactory
from repro.config import DEFAULT_CONFIG
from repro.honeypot.cowrie import CowrieHoneypot
from repro.honeypot.session import ConnectionIntent
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.net.population import build_base_population
from repro.util.rng import RngTree


@pytest.fixture(scope="module")
def context():
    tree = RngTree(31)
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
    return build_fleet(
        context.population, RngTree(31).child("fleet"), DEFAULT_CONFIG
    )


class TestFleetFuzz:
    def test_every_bot_survives_the_honeypot(self, context, fleet):
        honeypot = CowrieHoneypot("hp-fuzz", "192.0.2.1")
        start = DEFAULT_CONFIG.start
        window = (DEFAULT_CONFIG.end - DEFAULT_CONFIG.start).days
        for bot in fleet:
            for trial in range(3):
                rng = random.Random(hash((bot.name, trial)) & 0xFFFF)
                day = start + timedelta(days=rng.randrange(window))
                intent = bot.build_intent(context, day, rng, trial)
                record = honeypot.handle(intent, float(trial))
                assert record.session_id
                # commands executed iff the login policy accepted one
                if record.login_succeeded and intent.command_lines:
                    assert record.commands

    def test_intents_are_serializable_shapes(self, context, fleet):
        rng = random.Random(0)
        day = date(2023, 5, 10)
        for bot in fleet:
            intent = bot.build_intent(context, day, rng, 0)
            assert isinstance(intent.client_ip, str)
            assert all(
                isinstance(u, str) and isinstance(p, str)
                for u, p in intent.credentials
            )
            assert all(isinstance(line, str) for line in intent.command_lines)
            for url, content in intent.remote_files:
                assert isinstance(url, str) and isinstance(content, bytes)

    def test_command_lines_have_no_newlines(self, context, fleet):
        # the honeynet records one input line per command
        rng = random.Random(1)
        day = date(2023, 5, 10)
        for bot in fleet:
            intent = bot.build_intent(context, day, rng, 0)
            for line in intent.command_lines:
                assert "\n" not in line


class TestShellFuzz:
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
                max_size=80,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_engine_never_raises(self, lines):
        context = ShellContext()
        engine = ShellEngine(context)
        for line in lines:
            record = engine.run_line(line)
            assert isinstance(record.output, str)

    @given(st.text(max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_unicode_input_safe(self, line):
        context = ShellContext()
        engine = ShellEngine(context)
        engine.run_line(line)

    @given(
        st.text(
            alphabet=st.sampled_from(list("ab;|&><'\"\\ $")), max_size=40
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_operator_soup_safe(self, line):
        context = ShellContext()
        ShellEngine(context).run_line(line)

    def test_honeypot_full_intent_fuzz(self):
        honeypot = CowrieHoneypot("hp", "192.0.2.1")
        rng = random.Random(7)
        alphabet = "abcdef ;|&><'\"\\$()*?~{}[]\x00\x7f"
        for trial in range(60):
            lines = tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
                for _ in range(rng.randrange(5))
            )
            intent = ConnectionIntent(
                client_ip="1.1.1.1",
                credentials=(("root", "x"),),
                command_lines=lines,
            )
            record = honeypot.handle(intent, float(trial))
            assert record.session_id
