"""The lasso walker shared by the transition graph and the boundary.

Its answers are compared with the widened and recursive enumerators kept in
``oracles.py``, with the paper's bijection between boundary lassos and
infinite-type tight filters, and its work is pinned as a count: one tower
built per lasso returned.  The exact lasso counter is compared with the
walker's listings.
"""

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from labelled_spaces import (
    Edge,
    LabelledGraph,
    LassoFilterFamily,
    UltrafilterTransitionGraph,
    boundary_paths,
    closure,
    compare_spectrum_with_boundary,
    powerset_family,
)
from labelled_spaces import boundary
from labelled_spaces.spectra import _spectrum_counts
from oracles import (
    StepCapExceeded,
    node_lasso,
    recursive_infinite_boundary_paths,
    widened_lassos,
)

# walk extensions after which a draw is skipped: the widened oracle grows
# exponentially with the number of ranges, the walker does not
ORACLE_STEP_CAP = 5000


@st.composite
def random_spaces(draw, powerset=None):
    """A graph on 2-5 vertices and 1-2 letters with the powerset family or
    the closure of a few seed sets, complement closed and weakly left
    resolving.  Powerset graphs are left resolving (at most one edge per
    letter into each vertex); closure graphs may have up to two more.
    ``powerset`` fixes the kind; by default it is drawn."""
    verts = tuple("v%d" % i for i in range(1, draw(st.integers(2, 5)) + 1))
    alphabet = "ab"[: draw(st.integers(1, 2))]
    slots = [(b, dst) for dst in verts for b in alphabet]
    if powerset is None:
        powerset = draw(st.booleans())
    if not powerset:
        slots += draw(st.lists(st.sampled_from(slots), max_size=2))
    edges = []
    for b, dst in slots:
        src = draw(st.none() | st.sampled_from(verts))
        if src is not None:
            edges.append(Edge("e%d" % (len(edges) + 1), src, b, dst))
    g = LabelledGraph(verts, tuple(edges))
    if powerset:
        return g, powerset_family(g)
    fam = closure(g, draw(st.lists(st.frozensets(st.sampled_from(verts)), max_size=2)))
    if not fam.weakly_left_resolving:
        reject()
    return g, fam


class TestAgainstTheWidenedEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(random_spaces(), st.integers(0, 2), st.integers(0, 2))
    def test_same_lassos_and_boundary_paths(self, space, max_prefix, max_cycle):
        g, fam = space
        utg = UltrafilterTransitionGraph(fam)
        try:
            expected = widened_lassos(utg, max_prefix, max_cycle, ORACLE_STEP_CAP)
            expected_paths = recursive_infinite_boundary_paths(
                g, max_prefix, max_cycle, ORACLE_STEP_CAP)
        except StepCapExceeded:
            reject()
        walked = utg.lassos(max_prefix, max_cycle)
        assert [l.format() for l in walked] == [l.format() for l in expected]
        assert [node_lasso(l) for l in walked] == [node_lasso(l) for l in expected]
        paths = boundary_paths(g, max_prefix, max_cycle).infinite
        assert [str(p) for p in paths] == [str(p) for p in expected_paths]


# a left-resolving powerset space on which the widened enumeration walks
# about 2.6e7 steps for lassos(1, 2) (walks of up to 12 nodes over 6 ranges)
# while there are only two lassos
WIDE = LabelledGraph(
    ("v1", "v2", "v3", "v4", "v5", "v6", "v7"),
    (
        Edge("e1", "v4", "a", "v1"),
        Edge("e2", "v1", "c", "v1"),
        Edge("e3", "v1", "a", "v3"),
        Edge("e4", "v3", "c", "v5"),
        Edge("e5", "v7", "c", "v6"),
    ),
)


class TestWideRangeSpace:
    @pytest.mark.parametrize("bounds", [(1, 2), (3, 3)])
    def test_boundary_and_spectrum_are_in_bijection(self, bounds):
        report = compare_spectrum_with_boundary(WIDE, *bounds)
        assert report.bijective
        assert len(report.spectrum.infinite) == len(report.boundary.infinite) == 2


@pytest.fixture
def towers_built(monkeypatch):
    """A counter of the LassoFilterFamily objects constructed, by the
    checking constructor or by the unchecked builder."""
    built = [0]
    init, unchecked = LassoFilterFamily.__init__, LassoFilterFamily._unchecked.__func__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counting_unchecked(cls, *args, **kwargs):
        built[0] += 1
        return unchecked(cls, *args, **kwargs)

    monkeypatch.setattr(LassoFilterFamily, "__init__", counting)
    monkeypatch.setattr(LassoFilterFamily, "_unchecked", classmethod(counting_unchecked))
    return built


class TestOutputSensitive:
    @pytest.mark.parametrize(
        "space, bounds, count",
        [("loops4", (3, 2), 2), ("loops4", (4, 3), 2), ("twins3", (3, 3), 33),
         ("wide", (1, 2), 2)],
    )
    def test_one_tower_per_lasso(self, request, towers_built, space, bounds, count):
        fam = powerset_family(WIDE) if space == "wide" else request.getfixturevalue(space)[1]
        utg = UltrafilterTransitionGraph(fam)
        lassos = utg.lassos(*bounds)
        assert len(lassos) == count
        assert towers_built[0] == count


class TestLassoCount:
    """The walk system counts, without listing them, the lassos it lists: on
    the edges of random graphs and on the (letter, atom) items of random
    complement-closed spaces."""

    @settings(max_examples=300, deadline=None)
    @given(random_spaces(), st.integers(0, 4), st.integers(0, 4))
    def test_boundary_paths(self, space, max_prefix, max_cycle):
        g, _ = space
        assert boundary._edge_walks(g).count(max_prefix, max_cycle)[1] == len(
            boundary_paths(g, max_prefix, max_cycle).infinite)

    @settings(max_examples=300, deadline=None)
    @given(random_spaces(), st.integers(0, 4), st.integers(0, 4))
    def test_transition_lassos(self, space, max_prefix, max_cycle):
        _, fam = space
        utg = UltrafilterTransitionGraph(fam)
        assert utg._walks.count(max_prefix, max_cycle)[1] == len(
            utg.lassos(max_prefix, max_cycle))

    def test_twins3_long_prefix(self, twins3):
        g, fam = twins3
        walks = boundary._edge_walks(g)
        listed = sum(1 for _ in walks.lassos(20, 2))
        assert listed == walks.count(20, 2)[1] == 75024
        assert _spectrum_counts(UltrafilterTransitionGraph(fam), 20, 2)[:2] == (0, 75024)

    @pytest.mark.parametrize("bounds, count", [((30, 2), 9227464), ((25, 3), 1346268)])
    def test_twins3_counts_past_any_listing(self, twins3, bounds, count):
        g, fam = twins3
        assert boundary._boundary_counts(g, *bounds)[:2] == (0, count)
        assert _spectrum_counts(UltrafilterTransitionGraph(fam), *bounds)[:2] == (0, count)

    def test_long_cycles(self, single_loop, twins3):
        """Primitive cycles only: the lassos of twins3 with no prefix are its
        primitive closed walks, and one loop has one at every cycle bound."""
        assert boundary._edge_walks(single_loop[0]).count(0, 3000)[1] == 1
        walks = boundary._edge_walks(twins3[0])
        for max_cycle in range(8):
            assert walks.count(0, max_cycle)[1] == sum(
                1 for _ in walks.lassos(0, max_cycle))
