"""Individual emulated commands (via the engine)."""

from __future__ import annotations

import random
import shlex

import pytest

from repro.honeypot.session import CommandRecord, FileOp
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.honeypot.shell.registry import default_registry


@pytest.fixture
def ctx():
    return ShellContext()


@pytest.fixture
def engine(ctx):
    return ShellEngine(ctx)


class TestEcho:
    def test_plain(self, engine):
        assert engine.run_line("echo hello").output == "hello\n"

    def test_hex_escapes(self, engine):
        assert engine.run_line(r'echo -e "\x6F\x6B"').output == "ok\n"

    def test_no_newline(self, engine):
        assert engine.run_line("echo -n hi").output == "hi"

    def test_combined_flags(self, engine):
        assert engine.run_line(r'echo -ne "\x41"').output == "A"

    def test_variable_expansion(self, engine):
        assert engine.run_line("echo $SHELL").output == "/bin/bash\n"

    def test_unset_variable_empty(self, engine):
        assert engine.run_line("echo $NOPE").output == "\n"


class TestUname:
    def test_bare(self, engine):
        assert engine.run_line("uname").output == "Linux\n"

    def test_all(self, engine):
        output = engine.run_line("uname -a").output
        assert "Linux" in output and "x86_64" in output

    def test_flag_sequence(self, engine):
        output = engine.run_line("uname -s -v -n -r -m").output
        assert output.startswith("Linux ")
        assert "x86_64" in output


class TestInfoCommands:
    def test_nproc(self, engine):
        assert engine.run_line("nproc").output == "2\n"

    def test_whoami(self, engine):
        assert engine.run_line("whoami").output == "root\n"

    def test_id(self, engine):
        assert "uid=0(root)" in engine.run_line("id").output

    def test_lscpu_has_cpu_count(self, engine):
        assert "CPU(s):" in engine.run_line("lscpu").output

    def test_free_mem_row(self, engine):
        assert "Mem:" in engine.run_line("free -m").output

    def test_which_known(self, engine):
        assert engine.run_line("which ls").output == "/usr/bin/ls\n"

    def test_which_unknown_fails(self, engine):
        record = engine.run_line("which frobnicator")
        assert record.output == ""


class TestCatGrepPipeline:
    def test_cat_known_file(self, engine):
        assert "root:x:0:0" in engine.run_line("cat /etc/passwd").output

    def test_cat_missing(self, engine):
        assert "No such file" in engine.run_line("cat /nope").output

    def test_grep_filters(self, engine):
        output = engine.run_line("cat /etc/passwd | grep root").output
        assert "root" in output and "phil" not in output

    def test_recon_chain(self, engine):
        line = (
            "cat /proc/cpuinfo | grep name | head -n 1 "
            "| awk '{print $4,$5,$6,$7,$8,$9;}'"
        )
        output = engine.run_line(line).output
        assert "Xeon" in output

    def test_wc(self, engine):
        output = engine.run_line("cat /etc/passwd | wc").output
        assert output.split()[0] == "2"

    def test_sort_uniq(self, engine):
        output = engine.run_line("cat /etc/hosts | sort | uniq").output
        assert "localhost" in output


class TestCdAndDirs:
    def test_cd_changes_cwd(self, ctx, engine):
        engine.run_line("cd /tmp")
        assert ctx.cwd == "/tmp"

    def test_cd_missing_fails(self, ctx, engine):
        record = engine.run_line("cd /does/not/exist")
        assert "No such file" in record.output
        assert ctx.cwd == "/root"

    def test_cd_home_default(self, ctx, engine):
        engine.run_line("cd /tmp")
        engine.run_line("cd")
        assert ctx.cwd == "/root"

    def test_pwd(self, engine):
        assert engine.run_line("pwd").output == "/root\n"

    def test_mkdir_then_cd(self, ctx, engine):
        engine.run_line("mkdir -p /tmp/.work/deep")
        engine.run_line("cd /tmp/.work/deep")
        assert ctx.cwd == "/tmp/.work/deep"

    def test_ls_lists_entries(self, engine):
        output = engine.run_line("ls /etc").output
        assert "passwd" in output


class TestCrontab:
    def test_list_empty(self, engine):
        assert "no crontab" in engine.run_line("crontab -l").output

    def test_install_from_pipe(self, ctx, engine):
        engine.run_line('echo "* * * * * /tmp/m.sh" | crontab -')
        assert b"/tmp/m.sh" in ctx.fs.read("/var/spool/cron/root")
        assert any(
            e.path == "/var/spool/cron/root" and e.op == FileOp.MODIFY
            for e in ctx.file_events
        )

    def test_install_from_file(self, ctx, engine):
        engine.run_line('echo "@reboot /tmp/x" > /tmp/cronfile')
        engine.run_line("crontab /tmp/cronfile")
        assert b"@reboot" in ctx.fs.read("/var/spool/cron/root")

    def test_remove(self, ctx, engine):
        engine.run_line('echo "x" | crontab -')
        engine.run_line("crontab -r")
        assert ctx.fs.read("/var/spool/cron/root") is None


class TestCredentials:
    def test_chpasswd_sets_root_password(self, ctx, engine):
        engine.run_line('echo "root:newpass123"|chpasswd')
        assert ctx.root_password == "newpass123"

    def test_passwd_defaults(self, ctx, engine):
        engine.run_line("passwd")
        assert ctx.root_password is not None

    def test_openssl_passwd(self, engine):
        output = engine.run_line("openssl passwd -1 abcd1234").output
        assert output.startswith("$1$")


class TestBase64:
    def test_roundtrip(self, engine):
        encoded = engine.run_line("echo -n hello | base64").output.strip()
        decoded = engine.run_line(f"echo -n {encoded} | base64 -d").output
        assert decoded == "hello"

    def test_invalid_input(self, engine):
        record = engine.run_line("echo '!!!' | base64 -d")
        assert "invalid" in record.output or record.output == ""


#: Arguments a hostile client might type: bad numbers, dangling
#: options, shell metacharacters (quoted, so they reach argv), odd paths.
HOSTILE_TOKENS = (
    "", "-", "--", "-n", "-c", "-e", "-o", "-O", "-r", "-l", "-i", "-d", "-9",
    "-n1", "-x", "x", "0", "-1", "+5", "1e9", "0x1f", "\u00b2", "-\u00b2",
    "9" * 5000, "-" + "9" * 5000, "/", ".", "..", "~", "*", "?", "/etc/passwd",
    "/dev/urandom", "/dev/null", "/no/such/file", "/tmp/", "$HOME", "${X",
    "$(id)", "`id`", "\\", "'", '"', ";", "|", "&&", ">", "<", "{print $2}",
    "{print $\u00b2}", "if=/dev/urandom", "of=/tmp/x", "bs=x", "bs=\u00b2",
    "count=-1", "s/a/b/", "s/(/", "=", "A=1", "http://", "http://1.2.3.4/x",
    "tftp://h/f", "get", "passwd", "start", "-s", "\x00", "\t", "\u00e9", "a" * 300,
)


class TestHostileArguments:
    """Every registered command survives hostile argv without raising."""

    @pytest.mark.parametrize("name", sorted(default_registry()))
    def test_run_line_never_raises(self, name):
        rng = random.Random(f"hostile-argv:{name}")
        for _ in range(150):
            argv = [rng.choice(HOSTILE_TOKENS) for _ in range(rng.randint(0, 4))]
            line = " ".join(shlex.quote(token) for token in [name, *argv])
            engine = ShellEngine(ShellContext())
            # twice, so a handler that changed the memoized argv shows
            for raw in (line, line, f"cat /etc/passwd | {line}"):
                assert isinstance(engine.run_line(raw), CommandRecord)

    @pytest.mark.parametrize("name", ["head", "tail"])
    def test_line_count_that_is_not_a_number(self, name):
        engine = ShellEngine(ShellContext())
        record = engine.run_line(f"{name} -n x /etc/passwd")
        assert record.known
        assert record.output == f"{name}: invalid number of lines: 'x'\n"
        result = engine.run_line(f"{name} -n x /etc/passwd && echo ran")
        assert "ran" not in result.output
