"""Every example script runs end to end (subprocess smoke tests)."""

from __future__ import annotations

import runpy
import subprocess
import sys
from pathlib import Path

from repro import telemetry


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "--scale", "1e-5")
        assert result.returncode == 0, result.stderr
        assert "Dataset statistics" in result.stdout
        assert "echo_OK" in result.stdout

    def test_quickstart_runs_experiments_through_the_runner(
        self, monkeypatch, capsys
    ):
        # In-process, so the example's telemetry is visible: each of its
        # three experiments must be recorded as a completed run.
        monkeypatch.setattr(sys, "argv", ["quickstart.py", "--scale", "1e-5"])
        with telemetry.collecting() as registry:
            runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
        assert registry.counters.get("experiments.completed", 0) == 3
        assert "Dataset statistics" in capsys.readouterr().out

    def test_honeypot_shell_demo(self):
        result = run_example("honeypot_shell_demo.py")
        assert result.returncode == 0, result.stderr
        assert "file missing" in result.stdout
        assert "ACCEPTED" in result.stdout

    def test_custom_bot(self):
        result = run_example("custom_bot.py")
        assert result.returncode == 0, result.stderr
        assert "consistency_prober" not in result.stderr
        assert "gen_echo" in result.stdout

    def test_mdrfckr_case_study(self):
        result = run_example("mdrfckr_case_study.py", "--scale", "2e-5")
        assert result.returncode == 0, result.stderr
        assert "mdrfckr sessions:" in result.stdout
        assert "C2 IPs" in result.stdout

    def test_storage_infrastructure(self):
        result = run_example("storage_infrastructure.py", "--scale", "2e-5")
        assert result.returncode == 0, result.stderr
        assert "storage-AS census" in result.stdout
        assert "activity-day recall" in result.stdout

    def test_bot_timeline(self):
        result = run_example("bot_timeline.py", "--min-volume", "1000000")
        assert result.returncode == 0, result.stderr
        assert "scout_bruteforce" in result.stdout
        assert "total sessions" in result.stdout

    def test_stateful_honeypot(self):
        result = run_example("stateful_honeypot.py")
        assert result.returncode == 0, result.stderr
        assert "HONEYPOT" in result.stdout
        assert "exposed in 0/25" in result.stdout
