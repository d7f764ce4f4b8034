"""The walk system behind the boundary and the tight spectrum
(``labelled_spaces.transition._Walks``).

Its four answers, the finite walks and the canonical lassos each listed and
counted, are compared with the walkers it replaced (kept in ``oracles.py``).
Its work is pinned as the arcs it reads and the walks it explores, counts
past what can be printed are refused in one error line, and the command-line
contract of the four walk commands is fuzzed on every fixture.
"""

import io
import re
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from labelled_spaces import (
    Edge,
    LabelledGraph,
    UltrafilterTransitionGraph,
    boundary,
    boundary_paths,
    cli,
    isolated_points,
    powerset_family,
    spectra,
    tight_spectrum,
)
from labelled_spaces.boundary import FinitePath
from labelled_spaces.graph import singular_vertices
from labelled_spaces import transition
from labelled_spaces.errors import InputError
from labelled_spaces.transition import _COUNT_CAP, _advance, _count_text, _times, _Walks
from test_boundary import LOOP_AND_TAIL, sparse_graph
from test_lasso_walker import random_spaces


def edge_answers(g, max_len, max_cycle):
    """The edge system's finite walks, lassos and their two counts."""
    walks = boundary._edge_walks(g)
    return (sorted(walks.finite(max_len)), sorted(walks.lassos(max_len, max_cycle)),
            walks.count(max_len, max_cycle)[:2])


def edge_oracles(g, max_len, max_cycle):
    """The same four answers from the backward chains into the sinks, the
    stack walker and the counters they replaced."""
    sing = singular_vertices(g)
    steps = oracles.edge_lasso_steps(g)
    return (sorted(c for s in sing for c in oracles.backward_chains(g, s, max_len) if c),
            sorted(oracles.canonical_lassos(*steps, max_len, max_cycle)),
            (oracles.count_finite_boundary_paths(g, max_len) - len(sing),
             oracles.count_canonical_lassos(*steps, max_len, max_cycle)))


def tower_answers(utg, max_len, max_cycle):
    """The transition graph system's four answers; (letter, atom) items are
    not ordered, so the listings are compared as multisets."""
    walks = utg._walks
    return (Counter(walks.finite(max_len)), Counter(walks.lassos(max_len, max_cycle)),
            walks.count(max_len, max_cycle)[:2])


def tower_oracles(utg, max_len, max_cycle):
    steps = oracles.transition_lasso_steps(utg)
    return (Counter(oracles.finite_tower_walks(utg, max_len)),
            Counter(oracles.canonical_lassos(*steps, max_len, max_cycle)),
            (oracles.count_finite_tower_walks(utg, max_len),
             oracles.count_canonical_lassos(*steps, max_len, max_cycle)))


class TestAgainstTheReplacedWalkers:
    @settings(max_examples=200, deadline=None)
    @given(random_spaces(), st.integers(0, 4), st.integers(0, 4))
    def test_random_spaces(self, space, max_len, max_cycle):
        g, fam = space
        assert edge_answers(g, max_len, max_cycle) == edge_oracles(g, max_len, max_cycle)
        utg = UltrafilterTransitionGraph(fam)
        assert tower_answers(utg, max_len, max_cycle) == tower_oracles(utg, max_len, max_cycle)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 5), st.integers(0, 4))
    def test_sparse_graphs(self, rng, max_len, max_cycle):
        g = sparse_graph(rng)
        assert edge_answers(g, max_len, max_cycle) == edge_oracles(g, max_len, max_cycle)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 5))
    def test_isolated_count(self, rng, max_prefix):
        # the points counted and the edges they hold, walk and cycle
        g = sparse_graph(rng)
        counted = []
        with mock.patch.object(boundary, "_refuse_past_budget",
                               lambda n, steps, _: counted.append((n, steps))):
            points = isolated_points(g, max_prefix)
        steps = sum(len(p.edges) if isinstance(p, FinitePath) else len(p.prefix) + len(p.cycle)
                    for p in points)
        assert counted == [(oracles.count_isolated_points(g, max_prefix), steps)]

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 6), st.integers(0, 4))
    def test_steps(self, rng, max_len, max_cycle):
        # the labels of every finite walk and every lasso listed
        walks = boundary._edge_walks(sparse_graph(rng))
        finite = sum(map(len, walks.finite(max_len)))
        assert walks.count(max_len, 0)[2] == finite
        lassos = walks.lassos(max_len, max_cycle)
        assert walks.count(max_len, max_cycle)[2] == finite + sum(
            len(p) + len(c) for p, c in lassos)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.lists(st.dictionaries(st.integers(0, k - 1), st.integers(1, 3), max_size=k),
                 min_size=k, max_size=k),
        st.dictionaries(st.integers(0, k - 1), st.integers(1, 5), max_size=k))),
        st.integers(0, 300))
    def test_squaring_is_stepping(self, matrix_and_vector, n):
        rows, vec = matrix_and_vector
        rows = [Counter(row) for row in rows]
        stepped = Counter(vec)
        for _ in range(n):
            stepped = _times(stepped, rows)
        assert _advance(Counter(vec), rows, n) == stepped

    def test_long_prefixes(self, twins3, loops4_pow):
        # past the square of the labels the counts square the arc matrix
        for g, _ in (twins3, loops4_pow):
            steps, sing = oracles.edge_lasso_steps(g), singular_vertices(g)
            for max_len in (20, 40, 60):
                assert boundary._edge_walks(g).count(max_len, 2)[:2] == (
                    oracles.count_finite_boundary_paths(g, max_len) - len(sing),
                    oracles.count_canonical_lassos(*steps, max_len, 2))

    def test_saturation(self, twins3):
        walks = boundary._edge_walks(twins3[0])
        assert walks.count(1, 10 ** 6)[1] == walks.count(10 ** 6, 1)[1] == _COUNT_CAP
        assert _count_text(_COUNT_CAP) == "at least 10^640"
        assert _count_text(_COUNT_CAP - 1) == "9" * 640


class TestCountsPastTheCap:
    """At huge cycle bounds the count reads closed walks only at the labels a
    counted walk reaches, and stops at the first whose closed walks reach the
    cap and at which a walk of max_len + 1 labels ends.  The counts stay the
    oracle's, capped at 10^640, and so do the refusals."""

    @settings(max_examples=60, deadline=None)
    @given(random_spaces(), st.integers(0, 3), st.sampled_from([2200, 3100]))
    def test_random_spaces(self, space, max_len, max_cycle):
        g, fam = space
        lassos = min(oracles.count_canonical_lassos(
            *oracles.edge_lasso_steps(g), max_len, max_cycle), _COUNT_CAP)
        assert boundary._edge_walks(g).count(max_len, max_cycle)[1] == lassos
        finite = oracles.count_finite_boundary_paths(g, max_len)
        if finite + lassos > transition.LISTING_BUDGET:
            with pytest.raises(InputError) as caught:
                boundary_paths(g, max_len, max_cycle)
            assert str(caught.value) == (
                "the boundary up to length %d and cycle %d has %s points; at most 100000 are "
                "listed" % (max_len, max_cycle, _count_text(finite + lassos)))
        utg = UltrafilterTransitionGraph(fam)
        assert utg._walks.count(max_len, max_cycle)[1] == min(oracles.count_canonical_lassos(
            *oracles.transition_lasso_steps(utg), max_len, max_cycle), _COUNT_CAP)

    def test_stops_at_the_first_capped_end(self, twins3):
        products = []
        with mock.patch.object(transition, "_times",
                               lambda *args: products.append(1) or _times(*args)):
            assert boundary._edge_walks(twins3[0]).count(1, 25000)[1] == _COUNT_CAP
        # one of the three branching labels reaches the cap after about 3,060
        # products; counting all three took 9,199
        assert len(products) < 3500, len(products)


@pytest.fixture
def systems(monkeypatch):
    """Every walk system built, in order."""
    built = []
    init = _Walks.__init__

    def recorded(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_Walks, "__init__", recorded)
    return built


@pytest.fixture
def explored(monkeypatch):
    """The walks each listing explores, one count per listing, in order."""
    counts = []
    grow = _Walks._grow

    def counted(roots, more):
        counts.append(0)
        for path in grow(roots, more):
            counts[-1] += 1
            yield path

    monkeypatch.setattr(_Walks, "_grow", staticmethod(counted))
    return counts


@pytest.fixture
def arcs_read(monkeypatch):
    """The transition nodes and graph vertices whose arcs are read, in order."""
    read = []
    successors, edges_from = UltrafilterTransitionGraph.successors, LabelledGraph.edges_from

    def read_successors(self, node):
        read.append(node)
        return successors(self, node)

    def read_edges_from(self, vertex):
        read.append(vertex)
        return edges_from(self, vertex)

    monkeypatch.setattr(UltrafilterTransitionGraph, "successors", read_successors)
    monkeypatch.setattr(LabelledGraph, "edges_from", read_edges_from)
    return read


class TestCostFollowsTheOutput:
    def test_no_arc_read_without_a_point(self, arcs_read, systems, explored, twins3):
        # twins3 has no sink and no cycle fits a bound of 0
        spec = tight_spectrum(twins3[1], 20, 0)
        assert spec.finite == spec.infinite == ()
        assert arcs_read == []
        assert len(systems) == 1 and explored == []

    def test_single_loop_at_long_bounds(self, arcs_read, systems, explored, single_loop):
        g, fam = single_loop
        assert len(boundary_paths(g, 1, 10 ** 6).infinite) == 1
        assert len(tight_spectrum(fam, 1, 10 ** 6).infinite) == 1
        assert len(boundary_paths(g, 10 ** 5, 1).infinite) == 1
        # one lasso listing per system, each exploring one walk
        assert len(systems) == 3 and explored == [1, 1, 1]
        # one state per system, read once: the vertex, the node, the vertex
        assert len(arcs_read) == 3 and arcs_read[0] == arcs_read[2] == "v"
        # no component branches, so the cycle bound is clamped to 1: one
        # lasso of one step
        assert boundary._edge_walks(g).count(1, 10 ** 6) == (0, 1, 1)

    def test_states_read_once(self, arcs_read, twins3, loops4):
        for fam in (twins3[1], loops4[1]):
            utg = UltrafilterTransitionGraph(fam)
            arcs_read.clear()
            list(utg._walks.lassos(6, 3))
            list(utg._walks.finite(6))
            utg._walks.count(6, 3)
            assert len(arcs_read) == len(set(arcs_read)) <= len(utg.nodes)

    def test_cycles_stay_in_their_component(self, explored):
        # the loop at a leads into a component with two cycles that no walk
        # of one label enters: a's lasso is counted and listed at once
        arcs = {"a": [("a", "a"), ("b", "b")], "b": [("b", "b"), ("c", "c")], "c": [("b", "b")]}
        walks = _Walks([("a", "a")], arcs.__getitem__, {})
        start = time.perf_counter()
        assert walks.count(0, 10 ** 6)[:2] == (0, 1)
        assert list(walks.lassos(0, 40)) == [((), ("a",))]
        assert time.perf_counter() - start < 1
        assert explored == [1]

    def test_lasso_walks_stay_in_the_cycle_component(self, explored):
        # a and a2 carry two cycles, and a also leads into b and c, which
        # carry two more: with no prefix every lasso cycles through a, so
        # walks never leave a's component
        arcs = {"a": [("a", "a"), ("a2", "a2"), ("b", "b")], "a2": [("a", "a")],
                "b": [("b", "b"), ("c", "c")], "c": [("b", "b")]}
        walks = _Walks([("a", "a")], arcs.__getitem__, {})
        lassos = list(walks.lassos(0, 12))
        assert len(lassos) == walks.count(0, 12)[1] and all(not p for p, _ in lassos)
        inside, layer = 0, [("a",)]
        for _ in range(12):
            inside += len(layer)
            layer = [w + (y,) for w in layer for y, _ in arcs[w[-1]] if y in ("a", "a2")]
        assert explored == [inside]

    def test_finite_walks_grow_toward_a_sink(self, explored):
        # a loop with a tail of 30 edges into a sink: at length 40 the walks
        # that turn the loop 0 to 10 times before the tail
        finite = boundary_paths(LOOP_AND_TAIL, 40, 1).finite
        assert len(finite) == 41
        assert explored[0] <= sum(len(p.edges) for p in finite) + 1


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_command(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestLongBounds:
    @pytest.mark.parametrize("argv, infinite", [
        (["boundary", "single_loop.lgr", "--max-len", "1", "--max-cycle", "1000000"],
         "infinite paths (1):\n  v ([e1]a)^inf\n"),
        (["tight", "single_loop.lgr", "--max-word", "1", "--max-cycle", "1000000"],
         "infinite type (1):\n  (a)^inf ; gens=({v})^inf ; f0={v}\n"),
        (["boundary", "single_loop.lgr", "--max-len", "100000", "--max-cycle", "1"],
         "infinite paths (1):\n  v ([e1]a)^inf\n"),
        (["tight", "twins3.lgr", "--max-word", "20", "--max-cycle", "0"],
         "finite type (0):\ninfinite type (0):\n"),
    ])
    def test_listed_at_once(self, argv, infinite):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert infinite in out

    @pytest.mark.parametrize("argv, what", [
        (["tight", "twins3.lgr", "--max-word", "1", "--max-cycle", "21000"],
         "the tight spectrum up to word length 1 and cycle 21000"),
        (["tight", "twins3.lgr", "--max-word", "1", "--max-cycle", "1000000"],
         "the tight spectrum up to word length 1 and cycle 1000000"),
        (["boundary", "twins3.lgr", "--max-len", "1", "--max-cycle", "25000"],
         "the boundary up to length 1 and cycle 25000"),
    ])
    def test_uncountable_refused_at_once(self, argv, what):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "error: %s has at least 10^640 points; at most 100000 are listed\n" % what

    def test_compare_names_the_cap(self):
        code, out, err = run(["compare", "twins3.lgr", "--max-len", "1", "--max-cycle", "25000"])
        assert (code, err) == (0, "")
        assert out == ("boundary: 0 finite + at least 10^640 infinite | "
                       "spectrum: 0 finite + at least 10^640 infinite\nbijection: yes\n")

    def test_steps_past_the_budget(self):
        # 8002 paths of up to 4000 edges: few points, but 16004000 edges
        code, out, err = run(["boundary", "loops4.lgr", "--max-len", "4000", "--max-cycle", "0"])
        assert (code, out) == (2, "")
        assert err == ("error: the boundary up to length 4000 and cycle 0 has 8002 points of "
                       "16004000 steps in all; at most 10000000 steps are listed\n")
        code, out, _ = run(["boundary", "chain7.lgr", "--max-len", "1000000", "--max-cycle", "8"])
        assert code == 0 and out.startswith("finite paths (")

    def test_steps_are_those_listed(self):
        # four one-edge lassos hold four steps, however long the prefix bound
        loops = LabelledGraph(list("uvwx"), [Edge("l" + v, v, "a", v) for v in "uvwx"])
        assert boundary._boundary_counts(loops, 10 ** 6, 1) == (0, 4, 4)
        assert len(boundary_paths(loops, 10 ** 6, 1).infinite) == 4


FIXTURE_FILES = ("chain7.lgr", "loops4.lgr", "loops4_powerset.lgr", "single_loop.lgr",
                 "twins2.lgr", "twins3.lgr")
FLAGS = {
    "tight": ("--max-word", "--max-cycle"),
    "boundary": ("--max-len", "--max-cycle"),
    "isolated": ("--max-prefix",),
    "compare": ("--max-len", "--max-cycle"),
}
BOUNDS = st.integers(0, 8) | st.sampled_from([3000, 21000, 10 ** 6])


class TestWalkCommandContract:
    """On every fixture and at small and huge bounds, ``tight``,
    ``boundary``, ``isolated`` and ``compare`` exit 0, 1 or 2 with at most
    one error line, repeat their bytes, and list as many points as the
    walk systems count."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(FLAGS)), st.sampled_from(FIXTURE_FILES), BOUNDS, BOUNDS)
    def test_contract(self, command, fixture, first, second):
        argv = [command, fixture]
        for flag, bound in zip(FLAGS[command], (first, second)):
            argv += [flag, str(bound)]
        counted = []

        def recorded(n, steps, what):
            counted.append(n)
            refuse(n, steps, what)

        refuse = boundary._refuse_past_budget
        with mock.patch.object(boundary, "_refuse_past_budget", recorded), \
                mock.patch.object(spectra, "_refuse_past_budget", recorded):
            code, out, err = run(argv)
        assert code in (0, 1, 2)
        assert err == "" if code == 0 else re.fullmatch(r"error: [^\n]*\n", err)
        assert run(argv) == (code, out, err)
        if code:
            return
        if command != "compare":
            assert counted == [sum(map(int, re.findall(r"\((\d+)\):$", out, re.M)))]
            return
        g, fam = cli._load(fixture)
        if len(fam.sets) != 1 << len(g.vertices):
            fam = powerset_family(g)
        certified = spectra._certified_counts(fam, first, second)
        if certified is not None:
            assert out == spectra._COUNTS_LINE % tuple(map(_count_text, certified)) + (
                "\nbijection: yes\n")
        else:
            numbers = list(map(int, re.findall(r"\d+", out.splitlines()[0])))
            assert counted == [numbers[0] + numbers[1], numbers[2] + numbers[3]]
