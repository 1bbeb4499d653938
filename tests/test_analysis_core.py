"""Categories, state change, tokenizer, DLD."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.categories import SessionCategory, categorize, category_counts
from repro.analysis.distance import distance_matrix
from repro.analysis.dld import pairwise_dld
from repro.analysis.statechange import (
    ExecOutcome,
    StateClass,
    changes_state,
    exec_outcome,
    state_class,
)
from repro.analysis.tokenizer import normalize_tokens, tokenize_text
from repro.honeypot.session import (
    CommandRecord,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)


def session(
    logins=(),
    commands=(),
    file_events=(),
) -> SessionRecord:
    return SessionRecord(
        session_id="s",
        honeypot_id="hp",
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="1.1.1.1",
        client_port=1,
        start=0.0,
        end=1.0,
        logins=list(logins),
        commands=[CommandRecord(raw=c, known=True) for c in commands],
        file_events=list(file_events),
    )


OK = LoginAttempt("root", "x", True)
FAIL = LoginAttempt("root", "root", False)


class TestCategories:
    def test_scanning(self):
        assert categorize(session(), None) == SessionCategory.SCANNING

    def test_scouting(self):
        assert categorize(session(logins=[FAIL]), None) == SessionCategory.SCOUTING

    def test_intrusion(self):
        assert categorize(session(logins=[FAIL, OK]), OK) == SessionCategory.INTRUSION

    def test_command_execution(self):
        record = session(logins=[OK], commands=["uname -a"])
        assert categorize(record, OK) == SessionCategory.COMMAND_EXECUTION

    def test_counts(self):
        counts = category_counts([session(), session(logins=[OK])], [None, OK])
        assert counts[SessionCategory.SCANNING] == 1
        assert counts[SessionCategory.INTRUSION] == 1


class TestStateChange:
    def test_info_only_is_non_state(self):
        record = session(logins=[OK], commands=["uname -a", "nproc"])
        assert state_class(record) == StateClass.NON_STATE

    def test_file_event_is_state(self):
        record = session(
            logins=[OK],
            commands=["echo x > f"],
            file_events=[FileEvent("/tmp/f", FileOp.CREATE, "aa")],
        )
        assert state_class(record) == StateClass.STATE_NO_EXEC

    def test_failed_download_is_state_by_intent(self):
        record = session(logins=[OK], commands=["wget http://h/f"])
        assert changes_state(record)

    def test_chpasswd_is_state(self):
        record = session(logins=[OK], commands=['echo "root:x"|chpasswd'])
        assert changes_state(record)

    def test_echo_without_redirect_not_state(self):
        record = session(logins=[OK], commands=["echo ok"])
        assert not changes_state(record)

    def test_exec_event_wins(self):
        record = session(
            logins=[OK],
            commands=["./f"],
            file_events=[FileEvent("/tmp/f", FileOp.EXECUTE, "aa")],
        )
        assert state_class(record) == StateClass.STATE_EXEC

    def test_exec_outcome_exists(self):
        record = session(
            logins=[OK],
            file_events=[FileEvent("/tmp/f", FileOp.EXECUTE, "aa")],
        )
        assert exec_outcome(record) == ExecOutcome.FILE_EXISTS

    def test_exec_outcome_missing(self):
        record = session(
            logins=[OK],
            file_events=[FileEvent("/tmp/f", FileOp.EXECUTE_MISSING, None)],
        )
        assert exec_outcome(record) == ExecOutcome.FILE_MISSING

    def test_mixed_outcome_counts_as_exists(self):
        record = session(
            logins=[OK],
            file_events=[
                FileEvent("/tmp/a", FileOp.EXECUTE_MISSING, None),
                FileEvent("/tmp/b", FileOp.EXECUTE, "bb"),
            ],
        )
        assert exec_outcome(record) == ExecOutcome.FILE_EXISTS

    def test_no_exec_is_none(self):
        assert exec_outcome(session(logins=[OK])) is None

    def test_scp_attempt_is_state(self):
        record = session(logins=[OK], commands=["scp evil:/x /tmp/x"])
        assert changes_state(record)


class TestTokenizer:
    def test_splits_on_operators(self):
        assert tokenize_text("mkdir /tmp;cd /tmp") == ["mkdir", "/tmp", "cd", "/tmp"]

    def test_strips_quotes(self):
        assert tokenize_text("echo 'ok'") == ["echo", "ok"]

    def test_collapses_blobs(self):
        blob = "A" * 60
        assert tokenize_text(f"echo {blob}") == ["echo", "<blob>"]

    def test_normalize_ip(self):
        assert normalize_tokens(["1.2.3.4"]) == ["<ip>"]
        assert normalize_tokens(["1.2.3.4:8080"]) == ["<ip>"]

    def test_normalize_url(self):
        assert normalize_tokens(["http://h/f"]) == ["<url>"]

    def test_normalize_credentials(self):
        assert normalize_tokens(['root:Ab12Cd34"']) == ["<cred>"]
        assert normalize_tokens(["root:x"]) == ["root:x"]  # too short

    def test_keeps_ordinary_tokens(self):
        assert normalize_tokens(["wget", "-q"]) == ["wget", "-q"]


class TestDld:
    @staticmethod
    def dld(a: list[str], b: list[str]) -> int:
        return int(pairwise_dld([a, b])[0, 1])

    def test_identical(self):
        assert self.dld(["a", "b"], ["a", "b"]) == 0

    def test_paper_example(self):
        # "mkdir /tmp" vs "cd /tmp" → one token substitution
        assert self.dld(["mkdir", "/tmp"], ["cd", "/tmp"]) == 1

    def test_insertion_deletion(self):
        assert self.dld(["a"], ["a", "b"]) == 1
        assert self.dld(["a", "b"], ["a"]) == 1

    def test_transposition(self):
        assert self.dld(["a", "b"], ["b", "a"]) == 1

    def test_empty_sequences(self):
        assert self.dld([], []) == 0
        assert self.dld([], ["x", "y"]) == 2

    def test_disjoint_is_max_length(self):
        assert self.dld(["a", "b"], ["c", "d", "e"]) == 3

    def test_normalized_bounds(self):
        assert distance_matrix([[], []])[0, 1] == 0.0
        assert distance_matrix([["a"], ["b"]])[0, 1] == 1.0

    _token_lists = st.lists(
        st.sampled_from(["cd", "/tmp", "wget", "<url>", "chmod", "rm"]),
        max_size=12,
    )

    @given(_token_lists, _token_lists)
    @settings(max_examples=120)
    def test_metric_properties(self, a, b):
        matrix = pairwise_dld([a, b])
        distance = matrix[0, 1]
        assert matrix[1, 0] == distance                # symmetry
        assert distance >= abs(len(a) - len(b))       # length lower bound
        assert distance <= max(len(a), len(b))        # substitution upper bound
        if a == b:
            assert distance == 0
        norm = distance_matrix([a, b])[0, 1]
        assert 0.0 <= norm <= 1.0

    @given(_token_lists)
    @settings(max_examples=60)
    def test_identity_property(self, a):
        assert self.dld(a, a) == 0
