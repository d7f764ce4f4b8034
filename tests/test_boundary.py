import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_spaces import (
    DomainError,
    Edge,
    LabelledGraph,
    boundary_paths,
    isolated_points,
    make_finite_path,
    make_infinite_path,
)
from labelled_spaces import boundary
from labelled_spaces.boundary import FinitePath, InfinitePath
from oracles import (
    deterministic_cycles_by_trail,
    finite_boundary_brute,
    finite_boundary_paths_unpruned,
    isolated_points_by_dedup,
    recursive_infinite_boundary_paths,
)


def by_str(points):
    return [str(p) for p in points]


class TestFiniteBoundary:
    def test_loops4_short(self, loops4_pow):
        g, _ = loops4_pow
        rep = boundary_paths(g, 1, 1)
        assert by_str(rep.finite) == ["3", "4", "1 -[e3]a-> 3", "1 -[e4]a-> 4"]
        assert rep.infinite == ()

    def test_matches_brute_force(self, loops4_pow, chain7, twins3):
        for g in (loops4_pow[0], chain7[0], twins3[0]):
            rep = boundary_paths(g, 3, 1)
            got = {(p.base, p.edges) for p in rep.finite}
            assert got == finite_boundary_brute(g, 3)

    def test_counts_grow_two_per_length(self, loops4_pow):
        g, _ = loops4_pow
        for max_len in range(5):
            rep = boundary_paths(g, max_len, 1)
            assert len(rep.finite) == 2 * (max_len + 1)


class TestFiniteBoundaryTowardSinks:
    """The finite boundary paths are the edge walks that end at a sink, grown
    only while a sink is within reach; the listing that grew every walk
    (``oracles.finite_boundary_paths_unpruned``) must give the same paths,
    in the same order."""

    @staticmethod
    def graph(rng):
        """A ``sparse_graph``, half the time with a loop on every sink."""
        g = sparse_graph(rng)
        if rng.random() < 0.5:
            return g
        loops = [Edge("s%s" % v, v, "a", v) for v in g.vertices if not g.edges_from(v)]
        return LabelledGraph(g.vertices, g.edges + tuple(loops))

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 6))
    def test_same_paths(self, rng, max_len):
        g = self.graph(rng)
        assert boundary_paths(g, max_len, 0).finite == finite_boundary_paths_unpruned(g, max_len)

    def test_draws_with_and_without_sinks(self):
        graphs = [self.graph(random.Random(seed)) for seed in range(200)]
        with_sinks = [g for g in graphs if any(not g.edges_from(v) for v in g.vertices)]
        assert 30 <= len(with_sinks) <= 170
        for g in graphs:
            assert boundary_paths(g, 4, 0).finite == finite_boundary_paths_unpruned(g, 4)

    def test_no_walk_without_sinks(self, monkeypatch, twins3):
        g, _ = twins3
        calls = []
        edges_from = LabelledGraph.edges_from

        def counted(self, vertex):
            calls.append(vertex)
            return edges_from(self, vertex)

        monkeypatch.setattr(LabelledGraph, "edges_from", counted)
        assert boundary_paths(g, 20, 0).finite == ()
        assert calls == []


class TestInfiniteBoundary:
    def test_single_loop(self, single_loop):
        g, _ = single_loop
        rep = boundary_paths(g, 2, 1)
        assert rep.finite == ()
        assert len(rep.infinite) == 1
        assert rep.infinite[0].prefix == ()

    def test_loops4_two_phases(self, loops4_pow):
        g, _ = loops4_pow
        rep = boundary_paths(g, 4, 2)
        assert len(rep.infinite) == 2
        assert {p.cycle[0].eid for p in rep.infinite} == {"e1", "e2"}

    def test_twins3_contains_the_loop_path(self, twins3):
        g, _ = twins3
        rep = boundary_paths(g, 1, 1)
        assert "v3 ([l3]0)^inf" in by_str(rep.infinite)

    def test_branching_flags(self, loops4_pow, twins2, twins3, single_loop):
        assert not boundary_paths(loops4_pow[0], 1, 2).has_branching_cycles
        assert not boundary_paths(single_loop[0], 1, 1).has_branching_cycles
        assert boundary_paths(twins2[0], 1, 2).has_branching_cycles
        assert boundary_paths(twins3[0], 1, 2).has_branching_cycles


class TestCanonicalLassos:
    def test_redundant_representations_collapse(self, single_loop):
        g, _ = single_loop
        e = g.edges[0]
        a = make_infinite_path(g, (), (e,))
        b = make_infinite_path(g, (e, e), (e, e))
        assert a == b
        assert a.prefix == () and len(a.cycle) == 1

    def test_phase_is_preserved(self, loops4_pow):
        g, _ = loops4_pow
        e12 = next(e for e in g.edges if e.eid == "e2")
        e21 = next(e for e in g.edges if e.eid == "e1")
        one = make_infinite_path(g, (), (e12, e21))
        other = make_infinite_path(g, (), (e21, e12))
        assert one != other

    def test_chaining_validated(self, loops4_pow):
        g, _ = loops4_pow
        e13 = next(e for e in g.edges if e.eid == "e3")
        with pytest.raises(DomainError):
            make_infinite_path(g, (), (e13,))


class TestFinitePathValidation:
    def test_must_end_singular(self, loops4_pow):
        g, _ = loops4_pow
        e12 = next(e for e in g.edges if e.eid == "e2")
        with pytest.raises(DomainError):
            make_finite_path(g, (e12,))

    def test_vertex_path(self, loops4_pow):
        g, _ = loops4_pow
        p = make_finite_path(g, (), base="3")
        assert p.terminal == "3" and p.labels() == ()


class TestIsolatedPoints:
    def test_loops4_sink_paths(self, loops4_pow):
        g, _ = loops4_pow
        points = isolated_points(g, 1)
        assert by_str(points) == ["3", "4", "1 -[e3]a-> 3", "1 -[e4]a-> 4"]
        assert all(isinstance(p, FinitePath) for p in points)

    def test_twins2_has_none(self, twins2):
        g, _ = twins2
        for bound in (0, 1, 2, 3):
            assert isolated_points(g, bound) == ()

    def test_twins3_loop_lasso(self, twins3):
        g, _ = twins3
        assert by_str(isolated_points(g, 0)) == ["v3 ([l3]0)^inf"]

    def test_twins3_with_prefixes(self, twins3):
        g, _ = twins3
        points = isolated_points(g, 2)
        assert len(points) == 4
        assert all(isinstance(p, InfinitePath) for p in points)
        assert all(p.cycle[0].eid == "l3" for p in points)

    def test_single_loop_everything_isolated(self, single_loop):
        g, _ = single_loop
        assert len(isolated_points(g, 0)) == 1


def sparse_graph(rng):
    """A random graph on at most six vertices with zero to two out-edges per
    vertex, so that deterministic cycles, with chains into them, are common."""
    verts = tuple("v%d" % i for i in range(rng.randint(1, 6)))
    edges = [(v, rng.choice("ab"), rng.choice(verts))
             for v in verts for _ in range(rng.choice((0, 1, 1, 1, 2)))]
    return LabelledGraph(verts, tuple(Edge("e%d" % i, *e) for i, e in enumerate(edges)))


class TestIsolatedPointsAgainstDedup:
    """``isolated_points`` builds only canonical (chain, rotation) pairs from
    cycles read off the strongly connected components; the
    build-then-deduplicate listing over trail-walked cycles it replaced must
    give the same points."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    def test_same_points(self, rng, bound):
        g = sparse_graph(rng)
        assert isolated_points(g, bound) == isolated_points_by_dedup(g, bound)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_cycles(self, rng):
        g = sparse_graph(rng)
        assert boundary._deterministic_cycles(g) == deterministic_cycles_by_trail(g)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 5))
    def test_count_is_the_listing_length(self, rng, bound):
        g = sparse_graph(rng)
        counted = []
        with mock.patch.object(boundary, "_refuse_past_budget",
                               lambda n, *_: counted.append(n)):
            points = isolated_points(g, bound)
        assert counted == [len(points)]

    def test_draws_have_cycles_of_several_lengths(self):
        lengths = {len(c) for s in range(200)
                   for c in deterministic_cycles_by_trail(sparse_graph(random.Random(s)))}
        assert {1, 2, 3} <= lengths

    def test_each_path_is_built_once(self, monkeypatch, twins3, single_loop):
        cases = [twins3[0], single_loop[0]] + [sparse_graph(random.Random(s)) for s in range(50)]
        built = []

        def counted(*args):
            built.append(InfinitePath(*args))
            return built[-1]

        counted.sort_key = InfinitePath.sort_key
        monkeypatch.setattr(boundary, "InfinitePath", counted)
        for g in cases:
            for bound in (0, 2):
                built.clear()
                infinite = [p for p in isolated_points(g, bound) if isinstance(p, InfinitePath)]
                assert sorted(built, key=InfinitePath.sort_key) == infinite


def counting_edges_from(monkeypatch):
    """The vertices ``LabelledGraph.edges_from`` is called with, in order."""
    calls = []
    edges_from = LabelledGraph.edges_from

    def counted(self, vertex):
        calls.append(vertex)
        return edges_from(self, vertex)

    monkeypatch.setattr(LabelledGraph, "edges_from", counted)
    return calls


# a loop at v0 with a tail of 30 vertices from v0 into a sink
TAIL = ["t%02d" % i for i in range(30)]
LOOP_AND_TAIL = LabelledGraph(
    ["v0"] + TAIL,
    [Edge("loop", "v0", "a", "v0"), Edge("out", "v0", "b", TAIL[0])]
    + [Edge("e%d" % i, u, "a", v) for i, (u, v) in enumerate(zip(TAIL, TAIL[1:]))],
)


class TestInfiniteBoundaryPruned:
    """Lassos are walked only along edges whose target can reach a cycle:
    the listing and its count are those of the unpruned recursive oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3), st.integers(0, 3))
    def test_same_paths_and_count(self, rng, max_len, max_cycle):
        g = sparse_graph(rng)
        rep = boundary_paths(g, max_len, max_cycle)
        assert by_str(rep.infinite) == by_str(
            recursive_infinite_boundary_paths(g, max_len, max_cycle))
        assert boundary._boundary_counts(g, max_len, max_cycle)[:2] == (
            len(rep.finite), len(rep.infinite))

    def test_no_walk_into_a_dead_end(self, monkeypatch):
        # the lasso walks, with no finite walk to end: the tail is never read
        calls = counting_edges_from(monkeypatch)
        lassos = boundary._edge_walks(LOOP_AND_TAIL, {}).lassos(4, 3)
        assert by_str(InfinitePath(prefix, cycle) for prefix, cycle in lassos) == [
            "v0 ([loop]a)^inf"]
        assert set(calls) == {"v0"}
        calls.clear()
        assert boundary._edge_walks(LOOP_AND_TAIL, {}).count(4, 3)[1] == 1
        assert set(calls) == {"v0"}

    def test_finite_count(self):
        # one path of each length ends at the sink: along the tail, and past
        # 30 edges with ever more turns of v0's loop first
        assert boundary._boundary_counts(LOOP_AND_TAIL, 40, 1)[:2] == (41, 1)
