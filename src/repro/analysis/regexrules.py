"""The 59-category command classification of Table 1.

58 regex rules plus the ``unknown`` fallback, evaluated in precedence
order against a session's concatenated command text (first match wins,
as in the paper's iterative construction: actor-specific signatures
first, then busybox patterns, then the generic ``gen_*``
file-introduction combinations keyed on wget/curl/ftp/echo).

Sanitization note (see DESIGN.md): the two slur-named categories from
the paper are reproduced as ``fslur_attack`` / ``gslur_echo`` with
placeholder trigger tokens, preserving the matching structure without
reproducing hate speech.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Name of the fallback category.
UNKNOWN_CATEGORY = "unknown"


@dataclass(frozen=True)
class CategoryRule:
    """One behavioural signature."""

    name: str
    pattern: re.Pattern
    description: str

    def matches(self, text: str) -> bool:
        return self.pattern.search(text) is not None


def _rule(name: str, pattern: str, description: str) -> CategoryRule:
    # Lookahead-combination rules are anchored at the start of the text:
    # the (?=.*X) scans cover the whole string from position 0, and the
    # anchor keeps re.search from re-trying the lookaheads at every
    # offset (which is quadratic on long sessions).
    if pattern.startswith("(?="):
        pattern = r"\A" + pattern
    return CategoryRule(name, re.compile(pattern, re.DOTALL), description)


#: Ordered rule table (first match wins).
RULES: tuple[CategoryRule, ...] = (
    # --- actor-specific signatures -----------------------------------
    _rule("mdrfckr", r"mdrfckr",
          "Outlaw-linked persistence key install (section 9)"),
    _rule("curl_maxred", r"max-redir",
          "curl proxy-abuse campaign with --max-redirs"),
    _rule("rapperbot", r"ssh-rsa\s+AAAAB3NzaC1yc2EAAAADAQABA",
          "RapperBot persistence key prefix"),
    _rule("fslur_attack", r"fslurtoken",
          "slur-named campaign (sanitized token)"),
    _rule("gslur_echo", r"gslurtoken",
          "slur-named echo campaign (sanitized token)"),
    _rule("ohshit_attack", r"ohshit", "ohshit loader campaign"),
    _rule("onions_attack", r"onions1337", "onions1337 loader campaign"),
    _rule("sora_attack", r"sora", "Sora (Mirai variant) loader"),
    _rule("heisen_attack", r"Heisenberg", "Heisenberg loader campaign"),
    _rule("zeus_attack", r"Zeus", "Zeus loader campaign"),
    _rule("update_attack", r"update\.sh", "update.sh dropper"),
    _rule("lenni_0451", r"lenni0451", "lenni0451 write-and-check probe"),
    _rule("juicessh", r"juicessh", "JuiceSSH client fingerprint"),
    _rule("clamav", r"\bclamav\b", "clamav-themed cron staging"),
    _rule("passwd123_daemon", r"(?=.*Password123)(?=.*daemon)",
          "daemon:Password123 credential rotation + dropper"),
    _rule("wget_dget", r"(?=.*wget\s+-4)(?=.*dget\s+-4)",
          "wget -4 / dget -4 double fetch"),
    _rule("openssl_passwd", r"openssl passwd -1 \S{8}",
          "openssl-hashed credential rotation"),
    _rule("perl_dred_miner", r"(?=.*perl)(?=.*dred)",
          "perl 'dred' miner staging"),
    _rule("stx_miner", r"(?=.*stx)(?=.*LC_ALL)", "stx miner staging"),
    _rule("export_vei", r"export VEI", "VEI environment marker"),
    _rule("cloud_print", r"cloud\s+print", "cloud-print probe"),
    _rule("binx86", r"(?=.*CPU\(s\):)(?=.*bin\.x86_64)",
          "CPU fingerprint + bin.x86_64 marker"),
    _rule("root_17_char_pwd", r"root:[A-Za-z0-9]{15,}\"?\s*\|\s*chpasswd",
          "long-random root password rotation"),
    _rule("root_12_char_echo321",
          r"(?=.*root:[A-Za-z0-9]{12}\")(?=.*echo 321)",
          "12-char root rotation + echo 321 marker"),
    _rule("root_12_char_capscout",
          r"(?=.*root:[A-Za-z0-9]{12}\")"
          r"(?=.*awk\s+'\{print\s+\$4,\$5,\$6,\$7,\$8,\$9;\}')",
          "12-char root rotation + CPU scouting awk"),
    # --- scouting signatures -----------------------------------------
    _rule("ak47_scout", r"(?=.*\\x41\\x4b\\x34\\x37)(?=.*writable)",
          "AK47 hex marker + writability probe"),
    _rule("echo_ssh_check", r"SSH check", "echo 'SSH check' liveness probe"),
    _rule("echo_os_check",
          r"\becho\b\s+[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-"
          r"[0-9a-fA-F]{4}-[0-9a-fA-F]{12}",
          "UUID echo consistency probe"),
    _rule("echo_ok", r"\\x6F\\x6B", "hex-escaped 'ok' liveness probe"),
    _rule("echo_ok_txt", r"echo ok", "plain 'echo ok' liveness probe"),
    _rule("shell_fp", r"(?=.*\$SHELL)(?=.*bs=22)",
          "$SHELL + dd bs=22 shell fingerprint"),
    _rule("uname_a_nproc", r"(?=.*nproc)(?=.*\buname\s+-a\b)",
          "uname -a with core count"),
    _rule("uname_snri_nproc",
          r"(?=.*nproc)(?=.*\buname\s+-s\s+-n\s+-r\s+-i\b)",
          "uname -s -n -r -i with core count"),
    _rule("uname_svnrm", r"uname\s+-s\s+-v\s+-n\s+-r\s+-m",
          "five-field uname fingerprint"),
    _rule("uname_svnr_model",
          r"(?=.*uname\s+-s\s+-v\s+-n\s+-r\b)(?=.*model name)",
          "four-field uname + CPU model"),
    _rule("uname_svnr", r"uname\s+-s\s+-v\s+-n\s+-r\b",
          "four-field uname fingerprint"),
    _rule("uname_a", r"\buname\s+-a\b", "plain uname -a"),
    # --- busybox signatures ------------------------------------------
    _rule("bbox_scout_cat",
          r"/bin/busybox\s+cat\s+/proc/self/exe\s*\|\|\s*cat\s+/proc/self/exe",
          "busybox self-cat architecture probe"),
    _rule("bbox_loaderwget", r"loader\.wget", "loader.wget stager"),
    _rule("bbox_echo_elf", r"(?=.*busybox)(?=.*\\x45\\x4c\\x46)",
          "busybox + echoed ELF magic"),
    _rule("bbox_rand_exec", r"(?=.*busybox)(?=.*urandom)",
          "busybox random-file consistency probe"),
    _rule("bbox_5_char_v2",
          r"(?=.*/bin/busybox\s+[A-Z0-9]{5}\b)(?=.*(tftp|wget))",
          "five-char busybox applet check + tftp/wget loader"),
    _rule("rm_obf_pattern_1", r"(?=.*rm\s+-rf\s+\*;\s*cd\s+/tmp)(?=.*x0x0x0)",
          "rm-obfuscated loader with x0x0x0 marker"),
    _rule("rm_obf_pattern_7",
          r"cd\s+/tmp;rm\s+-rf\s+/tmp/\*\s*\|\|\s*cd\s+/var/run",
          "cascading cd/rm loader preamble"),
    _rule("bbox_unlabelled", r"(?:/bin/)?busybox\s",
          "other busybox-driven sessions"),
    # --- generic file-introduction combinations ----------------------
    _rule("gen_curl_echo_ftp_wget",
          r"(?=.*curl)(?=.*echo)(?=.*ftp)(?=.*wget)",
          "loader using curl+echo+ftp+wget"),
    _rule("gen_curl_ftp_wget", r"(?=.*curl)(?=.*ftp)(?=.*wget)",
          "loader using curl+ftp+wget"),
    _rule("gen_curl_echo_wget", r"(?=.*curl)(?=.*echo)(?=.*wget)",
          "loader using curl+echo+wget"),
    _rule("gen_echo_ftp_wget", r"(?=.*echo)(?=.*ftp)(?=.*wget)",
          "loader using echo+ftp+wget"),
    _rule("gen_curl_wget", r"(?=.*curl)(?=.*wget)", "loader using curl+wget"),
    _rule("gen_curl_echo", r"(?=.*curl)(?=.*echo)", "loader using curl+echo"),
    _rule("gen_echo_wget", r"(?=.*echo)(?=.*wget)", "loader using echo+wget"),
    _rule("gen_ftp_wget", r"(?=.*ftp)(?=.*wget)", "loader using ftp+wget"),
    _rule("gen_echo_ftp", r"(?=.*echo)(?=.*ftp)", "loader using echo+ftp"),
    _rule("gen_curl", r"(?=.*curl)", "loader using curl"),
    _rule("gen_wget", r"(?=.*wget)", "loader using wget"),
    _rule("gen_ftp", r"(?=.*ftp)", "loader using ftp"),
    _rule("gen_echo", r"(?=.*echo)", "loader using echo"),
)

#: All category names, including the fallback, in table order.
CATEGORY_NAMES: tuple[str, ...] = tuple(r.name for r in RULES) + (
    UNKNOWN_CATEGORY,
)
