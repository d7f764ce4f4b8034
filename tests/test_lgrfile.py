import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_spaces import ParseError
from labelled_spaces import fixtures
from labelled_spaces.lgrfile import format_graph_file, load_graph_file, parse_graph_file
from labelled_spaces.util import parse_vset_list
from oracles import parse_vset_list_by_reslicing


def fset(*items):
    return frozenset(items)


LOOPS4_TEXT = """\
# four vertices, one letter
vertices 1 2 3 4
edge e1: 2 a 1
edge e2: 1 a 2
edge e3: 1 a 3
edge e4: 1 a 4
family explicit {}{1}{1 2 3 4}{1 2 4}{1 3}{2 3 4}{2 4}{3}
"""


class TestParsing:
    def test_loops4_document(self):
        g, fam = parse_graph_file(LOOPS4_TEXT)
        assert g.vertices == ("1", "2", "3", "4")
        assert len(g.edges) == 4
        assert len(fam.sets) == 8

    def test_auto_edge_ids(self):
        g, _ = parse_graph_file(
            "vertices u v\nedge u a v\nedge v a u\nfamily powerset\n"
        )
        assert [e.eid for e in g.edges] == ["e1", "e2"]

    def test_powerset_directive(self, single_loop):
        g, fam = parse_graph_file("vertices v\nedge e1: v a v\nfamily powerset\n")
        assert fam.sets == single_loop[1].sets

    def test_closure_directive(self, loops4):
        text = (
            "vertices 1 2 3 4\nedge 2 a 1\nedge 1 a 2\nedge 1 a 3\nedge 1 a 4\n"
            "family closure {1}\n"
        )
        _, fam = parse_graph_file(text)
        assert fset("2", "3", "4") in fam

    def test_comments_and_blanks_ignored(self):
        text = "\n# hi\nvertices u\n\n# there\nfamily powerset\n"
        g, _ = parse_graph_file(text)
        assert g.vertices == ("u",)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vertices u u\nfamily powerset\n", "duplicate vertex"),
            ("edge u a v\nvertices u v\nfamily powerset\n", "before vertices"),
            ("vertices u\nedge u a w\nfamily powerset\n", "unknown vertex"),
            ("vertices u\nedge x: u a u\nedge x: u a u\nfamily powerset\n", "duplicate edge"),
            ("vertices u\nfamily powerset\nfamily powerset\n", "duplicate family"),
            ("vertices u\nbogus line\nfamily powerset\n", "unknown directive"),
            ("vertices u\n", "missing family"),
            ("family powerset\n", "missing vertices"),
            ("vertices u\nedge u a u\nfamily explicit {w}\n", "unknown vertices"),
            ("vertices u\nedge u a u\nfamily guess\n", "unknown family kind"),
        ],
    )
    def test_malformed_documents(self, text, fragment):
        with pytest.raises(ParseError) as info:
            parse_graph_file(text)
        assert fragment in str(info.value)

    def test_line_numbers_reported(self):
        with pytest.raises(ParseError) as info:
            parse_graph_file("vertices u\nedge u a w\nfamily powerset\n")
        assert "line 2" in str(info.value)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("loops4", "explicit"),
            ("loops4_powerset", "powerset"),
            ("chain7", "explicit"),
            ("twins2", "powerset"),
            ("twins3", "powerset"),
            ("single_loop", "powerset"),
        ],
    )
    def test_shipped_fixtures_are_byte_stable(self, name, kind):
        path = fixtures.path(name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        g, fam = parse_graph_file(text)
        assert format_graph_file(g, fam, family_kind=kind) == text

    def test_fixture_files_match_builders(self):
        for name, builder in [
            ("loops4", fixtures.loops4),
            ("chain7", lambda: fixtures.chain7(10)),
            ("twins2", fixtures.twins2),
            ("twins3", fixtures.twins3),
        ]:
            g, fam = load_graph_file(fixtures.path(name))
            g2, fam2 = builder()
            assert g == g2
            assert fam.sets == fam2.sets


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "error: %s" % exc


# set literals with padding drawn from every kind of whitespace str.strip
# removes; a malformed list gets one piece of stray text or a set left open
SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"), max_size=3)
SET = st.builds(lambda pad, vs: "{%s%s%s}" % (pad, pad.join(vs), pad),
                SPACE, st.lists(st.sampled_from(["v1", "v2", "a", "{b"]), max_size=3))
WELL_FORMED = st.builds("".join, st.lists(st.builds(str.__add__, SPACE, SET), max_size=6))
MALFORMED = st.builds(
    lambda head, junk, tail: head + junk + tail,
    WELL_FORMED,
    st.sampled_from(["x", "{a b", "}", "{", " x{a}", "{}}"]) | st.text(max_size=4),
    WELL_FORMED,
)


class TestSetListParser:
    """``parse_vset_list`` walks one index through the text; the routine it
    replaced (``oracles.parse_vset_list_by_reslicing``) must give the same
    sets and the same error texts."""

    @settings(max_examples=300, deadline=None)
    @given(WELL_FORMED)
    def test_same_sets(self, text):
        assert parse_vset_list(text) == parse_vset_list_by_reslicing(text)

    @settings(max_examples=300, deadline=None)
    @given(MALFORMED)
    def test_same_sets_or_errors(self, text):
        assert _parsed_or_error(parse_vset_list, text) == _parsed_or_error(
            parse_vset_list_by_reslicing, text)

    def test_both_error_texts_are_met(self):
        assert _parsed_or_error(parse_vset_list, " {a}\tx {b} ") == (
            "error: expected '{' in set list, got 'x {b}'")
        assert _parsed_or_error(parse_vset_list, "{a} {b c ") == (
            "error: unterminated set in '{b c'")
