import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_spaces import (
    Edge,
    InputError,
    LabelledGraph,
    is_labelled_path,
    is_left_resolving,
    label_edge_set,
    range_of,
    relative_range,
    singular_vertices,
    sinks,
)
from labelled_spaces import fixtures
from oracles import relative_range_brute


def fset(*items):
    return frozenset(items)


class TestRelativeRange:
    def test_loops4_single_letter(self, loops4):
        g, _ = loops4
        assert relative_range(g, {"1"}, ("a",)) == fset("2", "3", "4")

    def test_empty_source_set(self, loops4):
        g, _ = loops4
        assert relative_range(g, frozenset(), ("a", "a")) == frozenset()

    def test_empty_word_is_identity(self, loops4):
        g, _ = loops4
        assert relative_range(g, {"1", "3"}, ()) == fset("1", "3")

    def test_matches_path_enumeration(self, loops4, twins3):
        for g in (loops4[0], twins3[0]):
            subsets = [frozenset(), g.vertex_set] + [frozenset([v]) for v in g.vertices]
            words = [()] + [(b,) for b in g.alphabet] + [
                (a, b) for a in g.alphabet for b in g.alphabet
            ]
            for members in subsets:
                for word in words:
                    assert relative_range(g, members, word) == relative_range_brute(
                        g, members, word
                    )

    def test_unknown_vertex_rejected(self, loops4):
        g, _ = loops4
        with pytest.raises(InputError):
            relative_range(g, {"9"}, ("a",))

    def test_unknown_letter_rejected(self, loops4):
        g, _ = loops4
        with pytest.raises(InputError):
            relative_range(g, {"1"}, ("b",))


    def test_ranges_do_not_keep_the_graph_alive(self):
        g = LabelledGraph(("u", "v"), (Edge("e1", "u", "a", "v"),))
        assert relative_range(g, {"u"}, ("a",)) == fset("v")
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None


class TestRange:
    def test_loops4(self, loops4):
        g, _ = loops4
        assert range_of(g, ("a",)) == fset("1", "2", "3", "4")

    def test_chain7_first_letter(self, chain7):
        g, _ = chain7
        assert range_of(g, ("a1",)) == fset("v2", "v4")

    def test_empty_word_gives_all_vertices(self, chain7):
        g, _ = chain7
        assert range_of(g, ()) == g.vertex_set


class TestLabelledPaths:
    def test_loops4_aa(self, loops4):
        g, _ = loops4
        assert is_labelled_path(g, ("a", "a"))

    def test_chain7_bad_order(self, chain7):
        g, _ = chain7
        assert not is_labelled_path(g, ("a2", "a1"))

    def test_empty_word(self, loops4):
        g, _ = loops4
        assert is_labelled_path(g, ())

    def test_iff_nonempty_range(self, twins3):
        g, _ = twins3
        for a in g.alphabet:
            for b in g.alphabet:
                for c in g.alphabet:
                    word = (a, b, c)
                    assert is_labelled_path(g, word) == bool(range_of(g, word))


class TestLabelEdgeSet:
    def test_loops4(self, loops4):
        g, _ = loops4
        assert label_edge_set(g, {"1"}) == fset("a")
        assert label_edge_set(g, {"3"}) == frozenset()
        assert label_edge_set(g, frozenset()) == frozenset()


class TestVertexClasses:
    def test_loops4_sinks(self, loops4):
        g, _ = loops4
        assert sinks(g) == fset("3", "4")

    def test_single_loop_has_none(self, single_loop):
        g, _ = single_loop
        assert sinks(g) == frozenset()

    def test_chain7_sinks(self, chain7):
        g, _ = chain7
        assert sinks(g) == fset("v3", "v10")

    def test_singular_equals_sinks_on_finite_graphs(self, loops4, chain7):
        for g in (loops4[0], chain7[0]):
            assert singular_vertices(g) == sinks(g)


class TestLeftResolving:
    def test_loops4(self, loops4):
        assert is_left_resolving(loops4[0])

    def test_parallel_equal_labels(self):
        g = LabelledGraph(
            ("u", "v", "x"),
            (Edge("e1", "u", "a", "x"), Edge("e2", "v", "a", "x")),
        )
        assert not is_left_resolving(g)

    def test_identity_labelling(self, loops4):
        g, _ = loops4
        ident = LabelledGraph(
            g.vertices, tuple(Edge(e.eid, e.src, e.eid, e.dst) for e in g.edges)
        )
        assert is_left_resolving(ident)


@st.composite
def loops4_subset(draw):
    verts = draw(st.sets(st.sampled_from(["1", "2", "3", "4"])))
    return frozenset(verts)


class TestAlgebraicLaws:
    @settings(max_examples=80)
    @given(loops4_subset(), loops4_subset(), st.integers(0, 3))
    def test_union_law(self, a, b, n):
        g, _ = fixtures.loops4()
        word = ("a",) * n
        assert relative_range(g, a | b, word) == relative_range(g, a, word) | relative_range(
            g, b, word
        )

    @settings(max_examples=80)
    @given(loops4_subset(), st.integers(0, 2), st.integers(0, 2))
    def test_composition_law(self, a, n, m):
        g, _ = fixtures.loops4()
        first, second = ("a",) * n, ("a",) * m
        assert relative_range(g, relative_range(g, a, first), second) == relative_range(
            g, a, first + second
        )

    @settings(max_examples=80)
    @given(loops4_subset(), loops4_subset(), st.integers(0, 3))
    def test_monotone(self, a, b, n):
        g, _ = fixtures.loops4()
        word = ("a",) * n
        assert relative_range(g, a & b, word) <= relative_range(g, a, word)


class TestGraphValidation:
    def test_duplicate_edge_ids(self):
        with pytest.raises(InputError):
            LabelledGraph(("u",), (Edge("e", "u", "a", "u"), Edge("e", "u", "b", "u")))

    def test_unknown_endpoint(self):
        with pytest.raises(InputError):
            LabelledGraph(("u",), (Edge("e", "u", "a", "w"),))

    def test_alphabet_is_label_image(self, chain7):
        g, _ = chain7
        assert set(g.alphabet) == {e.label for e in g.edges}
