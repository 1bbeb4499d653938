"""The per-sensor line memo and the filesystem fingerprint it keys on.

Each unit case runs on one sensor and fails a memo that drops one part
of its key or of its store rule.  The differential replays every
session of the seed-7 default-scale run through a memo-less twin of its
sensor.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.config import SimulationConfig
from repro.faults.plan import FaultProfile
from repro.honeypot import cowrie
from repro.honeypot.cowrie import CowrieHoneypot
from repro.honeypot.fs import BASELINE_FILES, PRISTINE, FakeFilesystem
from repro.honeypot.session import ConnectionIntent, SessionRecord
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.honeypot.stateful import StatefulCowrieHoneypot
from tests.shell_reference import memo_differential, twin


@pytest.fixture
def honeypot() -> CowrieHoneypot:
    return CowrieHoneypot(honeypot_id="hp-memo", ip="192.0.2.1")


def session(
    honeypot: CowrieHoneypot,
    *lines: str,
    login: tuple[str, str] = ("root", "admin"),
    remote_files: tuple[tuple[str, bytes], ...] = (),
) -> SessionRecord:
    intent = ConnectionIntent(
        client_ip="198.51.100.9",
        credentials=(login,),
        command_lines=lines,
        remote_files=remote_files,
    )
    return honeypot.handle(intent, 0.0)


def outputs(record: SessionRecord) -> list[str]:
    return [command.output for command in record.commands]


class TestKey:
    def test_filesystem_fingerprint(self):
        honeypot = StatefulCowrieHoneypot("hp-memo", "192.0.2.1")
        before = session(honeypot, "cat /tmp/x")
        session(honeypot, "echo hi > /tmp/x")
        after = session(honeypot, "cat /tmp/x")
        assert outputs(before) == ["cat: /tmp/x: No such file or directory\n"]
        assert outputs(after) == ["hi\n"]

    def test_working_directory(self, honeypot):
        assert outputs(session(honeypot, "ls", "cd /tmp", "ls")) == [
            ".ssh\n", "", "",
        ]

    def test_environment(self, honeypot):
        assert outputs(session(honeypot, "echo $X")) == ["\n"]
        for _ in range(2):
            assert outputs(session(honeypot, "export X=1", "echo $X")) == [
                "", "1\n",
            ]

    def test_user(self, honeypot):
        # root's cwd and environment end up equal to phil's at login,
        # so only the user tells the two whoami lines apart
        root = session(
            honeypot, "cd /home/phil", "export HOME=/home/phil USER=phil", "whoami"
        )
        phil = session(honeypot, "whoami", login=("phil", "x"))
        assert outputs(root)[-1] == "root\n"
        assert outputs(phil) == ["phil\n"]


class TestStoreRule:
    def test_remote_files_are_session_bound(self, honeypot):
        for body in (b"one", b"two"):
            record = session(
                honeypot, "curl http://h/f", remote_files=(("http://h/f", body),)
            )
            assert outputs(record) == [body.decode()]

    def test_urandom_is_session_bound(self, honeypot):
        line = "dd if=/dev/urandom bs=8 count=1"
        first, second = session(honeypot, line), session(honeypot, line)
        for record in (first, second):
            expected = ShellEngine(ShellContext(entropy=record.session_id))
            assert outputs(record) == [expected.run_line(line).output]
        assert outputs(first) != outputs(second)

    def test_uris_are_replayed(self, honeypot):
        first = session(honeypot, "echo http://h/x")
        second = session(honeypot, "echo http://h/x")
        assert first.uris == second.uris == ["http://h/x"]
        assert second.commands[0] is first.commands[0]

    def test_exit_and_password_changes_are_never_stored(self, honeypot):
        for _ in range(2):
            record = session(honeypot, "exit", "echo after")
            assert [command.raw for command in record.commands] == ["exit"]
        session(honeypot, "echo root:p|chpasswd")
        stored = {line for _, line in honeypot._line_memo}
        assert "exit" not in stored
        assert "echo root:p|chpasswd" not in stored

    @pytest.mark.parametrize(
        "between", [(), ("",), ('echo "unterminated',)],
        ids=["adjacent", "blank-line", "parse-error"],
    )
    def test_exit_status_is_stored_and_read_per_session(self, honeypot, between):
        reference = twin(honeypot)
        # the second round serves true and false from the memo; a line
        # that runs no pipeline keeps the status, so it is not stored
        for first in ("true", "false") * 2:
            expected = "0\n" if first == "true" else "1\n"
            for sensor in (honeypot, reference):
                record = session(sensor, first, *between, "echo $?")
                assert outputs(record)[-1] == expected
        stored = {line for _, line in honeypot._line_memo}
        assert stored == {"true", "false"}

    def test_memo_is_cleared_when_full(self, honeypot, monkeypatch):
        monkeypatch.setattr(cowrie, "LINE_MEMO_LIMIT", 3)
        session(honeypot, "echo 1", "echo 2", "echo 3")
        assert len(honeypot._line_memo) == 3
        session(honeypot, "echo 4")
        assert len(honeypot._line_memo) == 1


class TestFingerprint:
    def test_skeleton_stays_pristine(self):
        used = ShellContext()
        engine = ShellEngine(used)
        engine.run_line("echo evil >> /etc/passwd")
        engine.run_line("chmod +x /etc/hosts")
        assert used.fs.get("/etc/hosts").executable
        fresh = FakeFilesystem()
        assert fresh.read("/etc/passwd") == BASELINE_FILES["/etc/passwd"]
        assert not fresh.get("/etc/hosts").executable
        assert fresh.fingerprint == PRISTINE != used.fs.fingerprint
        with pytest.raises(FrozenInstanceError):
            fresh.get("/etc/hosts").executable = True

    def test_same_changes_same_fingerprint(self):
        first, second = FakeFilesystem(), FakeFilesystem()
        for fs in (first, second):
            fs.write("/tmp/x", b"1")
            fs.mkdirs("/tmp/d")
            fs.chmod_exec("/tmp/x")
        assert first.fingerprint == second.fingerprint != PRISTINE

    def test_content_is_part_of_it(self):
        first, second = FakeFilesystem(), FakeFilesystem()
        first.write("/tmp/x", b"1")
        second.write("/tmp/x", b"2")
        assert first.fingerprint != second.fingerprint

    def test_changes_without_effect_keep_it(self):
        fs = FakeFilesystem()
        fs.mkdirs("/tmp")
        fs.chmod_exec("/bin/busybox")
        fs.chmod_exec("/tmp/ghost")
        fs.delete("/tmp/ghost")
        fs.delete_tree("/nowhere")
        assert fs.fingerprint == PRISTINE

    @pytest.mark.parametrize(
        "change",
        [
            lambda fs: fs.write("/etc/hosts", b"x", append=True),
            lambda fs: fs.delete("/etc/hosts"),
            lambda fs: fs.delete_tree("/root"),
            lambda fs: fs.mkdirs("/tmp/new"),
            lambda fs: fs.chmod_exec("/etc/hosts"),
        ],
        ids=["append", "delete", "delete_tree", "mkdirs", "chmod"],
    )
    def test_each_change_moves_it(self, change):
        fs = FakeFilesystem()
        change(fs)
        assert fs.fingerprint != PRISTINE


@pytest.mark.parametrize("profile", ["paper", "stress"])
def test_every_session_equals_a_memoless_replay(profile):
    config = SimulationConfig(faults=FaultProfile.from_name(profile))
    result, handled, mismatches = memo_differential(config)
    assert len(handled) > 10_000
    assert mismatches == []
    assert sum(len(hp._line_memo) for hp in result.honeynet.honeypots) > 1_000
