import pytest

from labelled_spaces import (
    DomainError,
    LassoFilterFamily,
    UnsupportedFamilyError,
    UltrafilterTransitionGraph,
    is_es_ultrafilter,
)
from labelled_spaces.transition import UTGNode


def fset(*items):
    return frozenset(items)


E0 = fset("1", "2", "3", "4")


def brute_ultra_lassos(fam, pool, max_prefix, max_cycle):
    """All canonical all-atom complete lasso towers within the bounds, found
    by trying every (letter, generator) sequence from the pool.  Entirely
    independent of the transition-graph walk enumeration."""
    letters = fam.graph.alphabet
    pairs = [(b, g) for b in letters for g in pool]

    def sequences(length):
        if length == 0:
            yield ()
            return
        for rest in sequences(length - 1):
            for pair in pairs:
                yield rest + (pair,)

    found = {}
    for c in range(1, max_cycle + 1):
        for cycle in sequences(c):
            for p in range(0, max_prefix + 1):
                for prefix in sequences(p):
                    try:
                        fam_obj = LassoFilterFamily(
                            fam,
                            tuple(b for b, _ in prefix),
                            tuple(b for b, _ in cycle),
                            tuple(g for _, g in prefix),
                            tuple(g for _, g in cycle),
                        )
                    except DomainError:
                        continue
                    if fam_obj.prefix_len > max_prefix or fam_obj.cycle_len > max_cycle:
                        continue
                    if fam_obj.is_complete() and is_es_ultrafilter(fam, fam_obj):
                        found[fam_obj.canonical_key()] = fam_obj
    return found


class TestLoops4Graph:
    def test_nodes(self, loops4):
        _, fam = loops4
        utg = UltrafilterTransitionGraph(fam)
        assert utg.nodes == (
            UTGNode(E0, fset("1")),
            UTGNode(E0, fset("2", "4")),
            UTGNode(E0, fset("3")),
        )

    def test_edges_orientation(self, loops4):
        # source at level n, target at level n+1: the target's preimage is
        # the source, so up{3} is enterable from up{1} but has no way out
        _, fam = loops4
        utg = UltrafilterTransitionGraph(fam)
        short = {(s.atom, b, d.atom) for s, b, d in utg.edges}
        assert short == {
            (fset("1"), "a", fset("2", "4")),
            (fset("1"), "a", fset("3")),
            (fset("2", "4"), "a", fset("1")),
        }

    def test_no_branching(self, loops4):
        _, fam = loops4
        assert not UltrafilterTransitionGraph(fam).has_branching_cycles()

    def test_listing_has_both_orientations(self, loops4):
        _, fam = loops4
        text = UltrafilterTransitionGraph(fam).format_listing()
        assert "level orientation" in text
        assert "preimage-map orientation" in text


class TestRefusals:
    def test_chain7_family_refused(self, chain7):
        _, fam = chain7
        with pytest.raises(UnsupportedFamilyError):
            UltrafilterTransitionGraph(fam)


class TestLassoEnumeration:
    def test_loops4_two_phases(self, loops4):
        _, fam = loops4
        lassos = UltrafilterTransitionGraph(fam).lassos(3, 2)
        assert [l.format() for l in lassos] == [
            "(a.a)^inf ; gens=({1}{2 4})^inf ; f0={2 4}",
            "(a.a)^inf ; gens=({2 4}{1})^inf ; f0={1}",
        ]
        for l in lassos:
            assert l.is_complete()
            assert is_es_ultrafilter(fam, l)

    def test_single_loop(self, single_loop):
        _, fam = single_loop
        lassos = UltrafilterTransitionGraph(fam).lassos(2, 1)
        assert len(lassos) == 1
        assert lassos[0].cycle_letters == ("a",)

    def test_graph_without_transition_cycles_has_no_lassos(self):
        # an acyclic graph has no infinite labelled paths, hence no
        # infinite-type filters at all
        from labelled_spaces import Edge, LabelledGraph, powerset_family

        g = LabelledGraph(
            ("u", "v", "w"),
            (Edge("e1", "u", "a", "v"), Edge("e2", "v", "b", "w")),
        )
        fam = powerset_family(g)
        assert UltrafilterTransitionGraph(fam).lassos(2, 3) == ()

    def test_acyclic_chain_gives_a_single_node_path(self):
        # one-way chains produce transition graphs that are simple paths
        from labelled_spaces import Edge, LabelledGraph, powerset_family

        g = LabelledGraph(
            ("u", "v", "w"),
            (Edge("e1", "u", "a", "v"), Edge("e2", "v", "b", "w")),
        )
        utg = UltrafilterTransitionGraph(powerset_family(g))
        assert [(s.atom, b, d.atom) for s, b, d in utg.edges] == [
            (frozenset("v"), "b", frozenset("w"))
        ]
        assert not utg.has_branching_cycles()

    def test_matches_brute_force_loops4(self, loops4):
        _, fam = loops4
        pool = [fset("1"), fset("2", "4"), fset("3")]
        brute = brute_ultra_lassos(fam, pool, 2, 2)
        walked = UltrafilterTransitionGraph(fam).lassos(2, 2)
        assert set(brute) == {l.canonical_key() for l in walked}

    def test_matches_brute_force_twins3(self, twins3):
        _, fam = twins3
        pool = [fset(v) for v in fam.graph.vertices]
        brute = brute_ultra_lassos(fam, pool, 2, 2)
        walked = UltrafilterTransitionGraph(fam).lassos(2, 2)
        assert set(brute) == {l.canonical_key() for l in walked}

    def test_twins_have_branching(self, twins2, twins3):
        for _, fam in (twins2, twins3):
            assert UltrafilterTransitionGraph(fam).has_branching_cycles()
