"""Volume budgeting: the fleet's integrated rates match the paper.

These validate the *design* of the activity models (at paper scale,
independent of Poisson sampling): summed over the window, each paper
volume is reproduced within tolerance.
"""

from __future__ import annotations

import pytest

from repro.attackers.activity import total_rate
from repro.attackers.fleetplan import build_fleet, find_bot
from repro.config import DEFAULT_CONFIG, PAPER
from repro.net.population import build_base_population
from repro.util.rng import RngTree


@pytest.fixture(scope="module")
def fleet():
    population = build_base_population(RngTree(7).child("net"))
    return build_fleet(population, RngTree(7).child("fleet"), DEFAULT_CONFIG)


def integrated(fleet, names) -> float:
    return sum(
        total_rate(find_bot(fleet, name).activity, DEFAULT_CONFIG.start, DEFAULT_CONFIG.end)
        for name in names
    )


def within(value: float, target: float, tolerance: float = 0.35) -> bool:
    return (1 - tolerance) * target <= value <= (1 + tolerance) * target


class TestHeadlineVolumes:
    def test_scanning_volume(self, fleet):
        assert within(integrated(fleet, ["scanner"]), PAPER.scanning_sessions)

    def test_scouting_volume(self, fleet):
        assert within(
            integrated(fleet, ["scout_bruteforce"]), PAPER.scouting_sessions, 0.2
        )

    def test_intrusion_volume(self, fleet):
        silent = integrated(fleet, ["silent_intruder"])
        campaign = integrated(fleet, ["login_3245gs5662d34"])
        assert within(silent + campaign, PAPER.intrusion_sessions, 0.25)

    def test_mdrfckr_volume(self, fleet):
        total = integrated(fleet, ["mdrfckr", "mdrfckr_variant"])
        assert within(total, PAPER.mdrfckr_sessions, 0.25)

    def test_login3245_volume(self, fleet):
        assert within(
            integrated(fleet, ["login_3245gs5662d34"]), PAPER.login3245_sessions, 0.25
        )

    def test_curl_maxred_volume(self, fleet):
        assert within(
            integrated(fleet, ["curl_maxred"]), PAPER.curl_maxred_sessions, 0.3
        )

    def test_phil_volume(self, fleet):
        assert within(integrated(fleet, ["phil_scanner"]), PAPER.phil_sessions, 0.3)

    def test_total_command_volume(self, fleet):
        background = {
            "scanner", "scout_bruteforce", "silent_intruder",
            "login_3245gs5662d34", "phil_scanner", "richard_scanner",
        }
        command_total = sum(
            total_rate(bot.activity, DEFAULT_CONFIG.start, DEFAULT_CONFIG.end)
            for bot in fleet
            if bot.name not in background
        )
        assert within(command_total, PAPER.command_sessions, 0.25)

    def test_non_state_split(self, fleet):
        scouts = [
            "echo_OK", "echo_ok_txt", "echo_ssh_check", "echo_os_check",
            "uname_a", "uname_svnrm", "uname_svnr", "uname_svnr_model",
            "uname_a_nproc", "uname_snri_nproc", "bbox_scout_cat",
            "ak47_scout", "shell_fp", "binx86", "export_vei",
            "cloud_print", "juicessh",
        ]
        non_state = integrated(fleet, scouts)
        assert within(non_state, PAPER.non_state_sessions, 0.25)

    def test_echo_ok_dominates_non_state(self, fleet):
        echo = integrated(fleet, ["echo_OK"])
        assert echo / PAPER.non_state_sessions > 0.7

    def test_exec_volume(self, fleet):
        exec_bots = [
            "gen_wget", "gen_curl_wget", "gen_echo_wget", "gen_ftp_wget",
            "gen_curl_echo_ftp_wget", "gen_curl_ftp_wget",
            "gen_echo_ftp_wget", "gen_curl_echo_wget", "gen_echo",
            "gen_curl", "gen_ftp", "gen_curl_echo", "gen_echo_ftp",
            "direct_exec", "bbox_5_char_v2", "bbox_unlabelled",
            "bbox_loaderwget", "bbox_echo_elf", "bbox_rand_exec",
            "fslur_attack", "ohshit_attack", "onions_attack",
            "sora_attack", "heisen_attack", "zeus_attack", "update_attack",
            "wget_dget", "rm_obf_pattern_1", "rm_obf_pattern_7",
            "passwd123_daemon", "rapperbot", "gafgyt_wave", "mirai_wave",
            "mirai_coinminer", "xorddos", "tvbox_dreambox",
            "tvbox_vertex25ektks123",
        ]
        assert within(integrated(fleet, exec_bots), PAPER.exec_sessions, 0.35)
