import contextlib
import copy
import io
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_spaces import (
    CoverError,
    DomainError,
    Edge,
    FiniteFilterFamily,
    LabelledGraph,
    LassoFilterFamily,
    PrincipalFilter,
    boundary_paths,
    boundary_to_filter,
    closure,
    compare_spectrum_with_boundary,
    enumerate_complete_families,
    is_es_ultrafilter,
    is_tight,
    is_tight_finite_type,
    make_element,
    powerset_family,
    refute_tightness,
    sink_ultrafilters,
    tight_spectrum,
    ultrafilters,
    union_cover,
)
from labelled_spaces import UltrafilterTransitionGraph, cli, fixtures
from labelled_spaces.graph import labelled_words_up_to
from labelled_spaces.spectra import _certified_counts, _phi_certified, _spectrum_counts
from oracles import finite_towers_by_words, is_tight_finite_type_by_elements
from test_family import random_family
from test_lasso_walker import random_spaces


def fset(*items):
    return frozenset(items)


E0 = fset("1", "2", "3", "4")


class TestSinkUltrafilters:
    def test_loops4(self, loops4):
        _, fam = loops4
        assert [f.gen for f in sink_ultrafilters(fam, ("a",))] == [fset("3")]

    def test_chain7_none_at_depth_one(self, chain7):
        _, fam = chain7
        assert sink_ultrafilters(fam, ("a1",)) == ()

    def test_all_ranges_are_sinks(self):
        g = LabelledGraph(("u", "v"), (Edge("e1", "v", "a", "u"),))
        fam = powerset_family(g)
        flts = sink_ultrafilters(fam, ("a",))
        assert [f.gen for f in flts] == [fset("u")]
        assert flts == ultrafilters(fam.algebra(("a",)))


class TestTightFiniteType:
    def test_loops4_only_the_sink_atom(self, loops4):
        _, fam = loops4
        alg = fam.algebra(("a",))
        verdicts = {f.gen: is_tight_finite_type(fam, ("a",), f) for f in ultrafilters(alg)}
        assert verdicts == {fset("1"): False, fset("2", "4"): False, fset("3"): True}

    def test_non_ultrafilter_is_never_tight(self, loops4):
        _, fam = loops4
        from labelled_spaces import PrincipalFilter

        flt = PrincipalFilter(fam.algebra(("a",)), fset("1", "2", "4"))
        assert not is_tight_finite_type(fam, ("a",), flt)


class TestTightFiniteTypeAgainstElements:
    """``is_tight_finite_type``, ``sink_ultrafilters`` and the finite branch
    of ``is_es_ultrafilter`` all test an ultrafilter generator inside the
    sinks; the element scan this replaced
    (``oracles.is_tight_finite_type_by_elements``) must give the same verdict
    for every principal filter, on rings and on lattices that are not rings."""

    @staticmethod
    def verdicts(fam):
        out = []
        for word in labelled_words_up_to(fam.graph, 2):
            alg = fam.algebra(word)
            sink_gens = {f.gen for f in sink_ultrafilters(fam, word)}
            for flt in (PrincipalFilter(alg, gen) for gen in alg.elements if gen):
                expected = is_tight_finite_type_by_elements(fam, word, flt)
                # a tower along ``word`` whose deepest filter is ``flt``: each
                # level below is generated by its algebra's top, and level 0
                # is empty when the vertex set is not a member
                tower = FiniteFilterFamily(
                    fam, word, [fam.algebra(word[:n]).top for n in range(len(word))] + [flt.gen]
                )
                assert is_tight_finite_type(fam, word, flt) == expected, (word, flt)
                assert (flt.gen in sink_gens) == expected, (word, flt)
                assert is_es_ultrafilter(fam, tower) == expected, (word, flt)
                out.append(expected)
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_verdicts(self, rng):
        self.verdicts(random_family(rng)[1])

    def test_draws_give_both_verdicts(self):
        seen = set()
        for seed in range(100):
            seen.update(self.verdicts(random_family(random.Random(seed))[1]))
        assert seen == {False, True}

    def test_fixtures(self, loops4, loops4_pow, twins3):
        chains = [fixtures.chain7(n) for n in (6, 7, 10)]
        for _, fam in [loops4, loops4_pow, twins3] + chains:
            self.verdicts(fam)

    def test_chain7_has_tight_towers(self):
        # a non-ring family whose algebras hold members made of sinks
        assert any(self.verdicts(fixtures.chain7(7)[1]))


class TestTightSpectrum:
    def test_loops4_contents(self, loops4):
        _, fam = loops4
        spec = tight_spectrum(fam, 3, 2)
        assert [d.format() for d in spec.finite] == [
            "@ ; gen={3}",
            "a ; gen={3}",
            "a.a ; gen={3}",
            "a.a.a ; gen={3}",
        ]
        assert [d.format() for d in spec.infinite] == [
            "(a.a)^inf ; gens=({1}{2 4})^inf ; f0={2 4}",
            "(a.a)^inf ; gens=({2 4}{1})^inf ; f0={1}",
        ]
        assert not spec.has_branching_cycles

    def test_single_loop(self, single_loop):
        _, fam = single_loop
        spec = tight_spectrum(fam, 2, 1)
        assert spec.finite == ()
        assert len(spec.infinite) == 1

    def test_powerset_counts_match_boundary(self, loops4_pow):
        g, fam = loops4_pow
        spec = tight_spectrum(fam, 2, 2)
        rep = boundary_paths(g, 2, 2)
        assert len(spec.finite) == len(rep.finite)
        assert len(spec.infinite) == len(rep.infinite)

    def test_chain7_refused(self, chain7):
        _, fam = chain7
        from labelled_spaces import UnsupportedFamilyError

        with pytest.raises(UnsupportedFamilyError):
            tight_spectrum(fam, 2, 2)


class TestClassificationConsistency:
    def test_exhaustive_over_short_words(self, loops4):
        # every complete tower with word length at most 3: a refutation
        # implies non-tight, and tight towers survive refutation; the
        # ultrafilters among them are all tight
        _, fam = loops4
        for word in labelled_words_up_to(fam.graph, 3):
            for cf in enumerate_complete_families(fam, word):
                refuted = refute_tightness(fam, cf, 4)
                tight = is_tight(fam, cf)
                if refuted is not None:
                    assert not tight
                if tight:
                    assert refuted is None
                if is_es_ultrafilter(fam, cf):
                    assert tight

    def test_nontight_nonultrafilter_towers_are_refuted(self, loops4):
        # with complements available, a tower with a non-atom level admits an
        # atom partition certificate at that level
        _, fam = loops4
        for word in labelled_words_up_to(fam.graph, 3):
            for cf in enumerate_complete_families(fam, word):
                tops_atom = cf.filter_at(len(word)).is_ultrafilter
                if not tops_atom:
                    assert refute_tightness(fam, cf, 4) is not None

    def test_infinite_type_tight_iff_ultrafilter(self, loops4):
        _, fam = loops4
        good = LassoFilterFamily(fam, (), ("a", "a"), (), (fset("1"), fset("2", "4")))
        fat = LassoFilterFamily(fam, (), ("a",), (), (fset("1", "2", "4"),))
        assert is_tight(fam, good) and is_es_ultrafilter(fam, good)
        assert not is_tight(fam, fat) and not is_es_ultrafilter(fam, fat)


class TestPhi:
    def test_edge_to_sink(self, loops4_pow):
        g, fam = loops4_pow
        e13 = next(e for e in g.edges if e.eid == "e3")
        from labelled_spaces import make_finite_path

        ff = boundary_to_filter(fam, make_finite_path(g, (e13,)))
        assert ff.word == ("a",)
        assert ff.top_gen() == fset("3")

    def test_bare_vertex(self, loops4_pow):
        g, fam = loops4_pow
        from labelled_spaces import make_finite_path

        ff = boundary_to_filter(fam, make_finite_path(g, (), base="4"))
        assert ff.word == ()
        assert ff.top_gen() == fset("4")

    def test_alternating_infinite_path(self, loops4_pow):
        g, fam = loops4_pow
        from labelled_spaces import make_infinite_path

        e12 = next(e for e in g.edges if e.eid == "e2")
        e21 = next(e for e in g.edges if e.eid == "e1")
        lasso = boundary_to_filter(fam, make_infinite_path(g, (), (e12, e21)))
        assert lasso.cycle_gens == (fset("2"), fset("1"))

    def test_images_are_complete_and_tight(self, loops4_pow, twins3):
        for g, fam in (loops4_pow, twins3):
            rep = boundary_paths(g, 3, 2)
            for path in rep.all_points():
                image = boundary_to_filter(fam, path)
                assert image.is_complete()
                assert is_tight(fam, image)

    def test_hypotheses_enforced(self, loops4):
        g, fam = loops4
        from labelled_spaces import make_finite_path

        with pytest.raises(DomainError):
            boundary_to_filter(fam, make_finite_path(g, (), base="3"))

    def test_non_left_resolving_refused(self):
        g = LabelledGraph(
            ("u", "v", "x"),
            (Edge("e1", "u", "a", "x"), Edge("e2", "v", "a", "x")),
        )
        with pytest.raises(DomainError):
            compare_spectrum_with_boundary(g, 2, 1)


class TestCompare:
    def test_loops4_powerset(self, loops4_pow):
        g, _ = loops4_pow
        rep = compare_spectrum_with_boundary(g, 4, 2)
        assert rep.bijective
        assert len(rep.boundary.finite) == 10
        assert len(rep.boundary.infinite) == 2

    def test_every_bound_pair(self, loops4_pow, single_loop, twins2, twins3):
        for g, _ in (loops4_pow, single_loop, twins2, twins3):
            for max_len in range(3):
                for max_cycle in range(1, 3):
                    rep = compare_spectrum_with_boundary(g, max_len, max_cycle)
                    assert rep.bijective, (g.vertices, max_len, max_cycle)

    def test_identity_labelling(self, loops4_pow):
        g, _ = loops4_pow
        ident = LabelledGraph(
            g.vertices, tuple(Edge(e.eid, e.src, e.eid, e.dst) for e in g.edges)
        )
        rep = compare_spectrum_with_boundary(ident, 3, 2)
        assert rep.bijective


class TestCovers:
    def test_valid_certificate(self, loops4):
        _, fam = loops4
        x = make_element(fam, (), E0, ())
        cert = union_cover(fam, x, [fset("1", "3"), fset("2", "4")])
        assert cert.parts == (fset("1", "3"), fset("2", "4"))

    def test_singleton_cover(self, loops4):
        _, fam = loops4
        x = make_element(fam, ("a",), {"2", "4"}, ("a",))
        assert union_cover(fam, x, [fset("2", "4")]).parts == (fset("2", "4"),)

    def test_rejection_carries_residue(self, loops4):
        _, fam = loops4
        x = make_element(fam, (), E0, ())
        with pytest.raises(CoverError) as info:
            union_cover(fam, x, [fset("1", "3")])
        assert info.value.residue == fset("2", "4")

    def test_parts_must_live_below(self, loops4):
        _, fam = loops4
        x = make_element(fam, (), fset("1", "3"), ())
        with pytest.raises(DomainError):
            union_cover(fam, x, [fset("2", "4")])


class TestRefuter:
    def test_constant_fat_family(self, loops4):
        _, fam = loops4
        fat = LassoFilterFamily(fam, (), ("a",), (), (fset("1", "2", "4"),))
        x, cert = refute_tightness(fam, fat, 0)
        assert x == make_element(fam, (), E0, ())
        assert cert.parts == (fset("1", "3"), fset("2", "4"))

    def test_tight_tower_survives(self, loops4):
        _, fam = loops4
        ff = FiniteFilterFamily.from_top(fam, ("a",), fset("3"))
        assert refute_tightness(fam, ff, 4) is None

    def test_ultrafilters_survive(self, loops4):
        _, fam = loops4
        spec = tight_spectrum(fam, 3, 2)
        for d in spec.all_points():
            assert refute_tightness(fam, d, 4) is None

    def test_requires_complete_tower(self, loops4):
        _, fam = loops4
        adm = LassoFilterFamily(fam, (), ("a",), (), (E0,), f0_gen=E0)
        with pytest.raises(DomainError):
            refute_tightness(fam, adm, 2)


def test_spectrum_respects_bounds(loops4):
    _, fam = loops4
    for max_word in range(4):
        spec = tight_spectrum(fam, max_word, 2)
        assert len(spec.finite) == max_word + 1
        assert all(len(d.word) <= max_word for d in spec.finite)


def test_coarse_family_hides_the_sinks():
    # two letters, and the smallest complement-closed family; no family
    # member fits inside the sinks, so the spectrum has no finite-type
    # points even though the graph's boundary has sink paths
    from labelled_spaces import closure

    g = LabelledGraph(
        ("1", "2", "3", "4"),
        (
            Edge("e1", "2", "b", "1"),
            Edge("e2", "1", "a", "2"),
            Edge("e3", "1", "a", "3"),
            Edge("e4", "1", "a", "4"),
        ),
    )
    fam = closure(g, [])
    assert len(fam.sets) == 4
    spec = tight_spectrum(fam, 3, 2)
    assert spec.finite == ()
    assert [d.format() for d in spec.infinite] == [
        "(a.b)^inf ; gens=({2 3 4}{1})^inf ; f0={1}",
        "(b.a)^inf ; gens=({1}{2 3 4})^inf ; f0={2 3 4}",
    ]
    rep = boundary_paths(g, 3, 2)
    assert len(rep.finite) > 0


def test_acyclic_powerset_spectrum_is_boundary_like():
    # on a left resolving acyclic graph with the powerset family, the tight
    # points are exactly the sink-terminated paths
    g = LabelledGraph(
        ("u", "v", "w"),
        (Edge("e1", "u", "a", "v"), Edge("e2", "v", "b", "w")),
    )
    fam = powerset_family(g)
    spec = tight_spectrum(fam, 5, 2)
    rep = boundary_paths(g, 5, 2)
    assert len(spec.finite) == len(rep.finite) == 3
    assert spec.infinite == () and rep.infinite == ()
    assert compare_spectrum_with_boundary(g, 5, 2).bijective


class TestCoverSemantics:
    def test_certified_parts_meet_everything_below(self, loops4):
        # the union law turns an exact union into a cover: every idempotent
        # below x has nonzero product with at least one part
        _, fam = loops4
        x = make_element(fam, (), E0, ())
        cert = union_cover(fam, x, [fset("1", "3"), fset("2", "4")])
        from labelled_spaces import ZERO, leq, multiply
        from labelled_spaces.semigroup import idempotents_up_to

        part_idems = [make_element(fam, (), p, ()) for p in cert.parts]
        for y in idempotents_up_to(fam, 3):
            if leq(fam, y, x):
                assert any(multiply(fam, z, y) != ZERO for z in part_idems)


class TestTowersFromWalks:
    """``tight_spectrum`` reads every tower off the transition graph's walks,
    level 0 included: its finite-type towers must be the word enumeration's
    (``oracles.finite_towers_by_words``), and each lasso must equal the same
    tower with its level 0 derived by the preimage scan."""

    @staticmethod
    def check(fam, max_word, max_cycle):
        spec = tight_spectrum(fam, max_word, max_cycle)
        assert spec.finite == finite_towers_by_words(fam, max_word)
        for tower in spec.infinite:
            assert tower == LassoFilterFamily(fam, tower.prefix_letters, tower.cycle_letters,
                                              tower.prefix_gens, tower.cycle_gens)
        return spec

    @settings(max_examples=300, deadline=None)
    @given(random_spaces(), st.integers(0, 4), st.integers(0, 3))
    def test_random_spaces(self, space, max_word, max_cycle):
        self.check(space[1], max_word, max_cycle)

    def test_fixtures(self, loops4, loops4_pow, twins2, twins3, single_loop):
        for _, fam in (loops4, loops4_pow, twins2, twins3, single_loop):
            self.check(fam, 3, 2)

    def test_not_left_resolving_with_empty_level0(self):
        # u and v enter the sink x with one letter; x has a b-loop in ``looped``
        edges = (Edge("e1", "u", "a", "x"), Edge("e2", "v", "a", "x"))
        sink = LabelledGraph(("u", "v", "x"), edges)
        looped = LabelledGraph(("u", "v", "x"), edges + (Edge("e3", "x", "b", "x"),))
        level0 = []
        for g in (sink, looped):
            for seeds in ((), ({"u", "v"},)):
                spec = self.check(closure(g, seeds), 3, 2)
                level0 += [t.gens[0] for t in spec.finite if t.word]
                level0 += [t.f0_gen for t in spec.infinite]
        # {u v} generates level 0 when it is a member, and nothing does otherwise
        assert set(level0) == {None, fset("u", "v"), fset("x")}


class TestSpectrumCounts:
    """``_spectrum_counts`` counts off the transition graph what
    ``tight_spectrum`` lists."""

    @settings(max_examples=200, deadline=None)
    @given(random_spaces(), st.integers(0, 4), st.integers(0, 3))
    def test_random_spaces(self, space, max_word, max_cycle):
        _, fam = space
        spec = tight_spectrum(fam, max_word, max_cycle)
        assert _spectrum_counts(UltrafilterTransitionGraph(fam), max_word, max_cycle)[:2] == (
            len(spec.finite), len(spec.infinite))

    def test_counted_off_the_one_graph_listed(self, monkeypatch, loops4):
        built = []
        init = UltrafilterTransitionGraph.__init__

        def counted(self, fam):
            built.append(fam)
            init(self, fam)

        monkeypatch.setattr(UltrafilterTransitionGraph, "__init__", counted)
        tight_spectrum(loops4[1], 3, 2)
        assert built == [loops4[1]]

    def test_fixtures(self, loops4, loops4_pow, twins2, twins3, single_loop):
        for _, fam in (loops4, loops4_pow, twins2, twins3, single_loop):
            utg = UltrafilterTransitionGraph(fam)
            for bounds in ((0, 0), (1, 1), (3, 2), (5, 3)):
                spec = tight_spectrum(fam, *bounds)
                assert _spectrum_counts(utg, *bounds)[:2] == (len(spec.finite), len(spec.infinite))


def compare_run(space, max_len, max_cycle, listing=False):
    """``lspace compare``'s exit code, output and error text on a loaded
    ``space`` (graph, family): as it runs, or, with ``listing``, with the
    certificate switched off so that both sides are listed."""
    out, err = io.StringIO(), io.StringIO()
    no_certificate = mock.patch.object(cli, "_certified_counts", return_value=None)
    with mock.patch.object(cli, "_load", return_value=space), (
            no_certificate if listing else contextlib.nullcontext()):
        code = cli.run_command(
            ["compare", "-", "--max-len", str(max_len), "--max-cycle", str(max_cycle)], out, err)
    return code, out.getvalue(), err.getvalue()


class TestPhiCertificate:
    """``compare`` decides from the arc certificate and the counts; the
    listing of ``compare_spectrum_with_boundary`` must print the same."""

    @settings(max_examples=200, deadline=None)
    @given(random_spaces(powerset=True), st.integers(0, 4), st.integers(0, 3))
    def test_same_output_as_listing(self, space, max_len, max_cycle):
        assert _certified_counts(space[1], max_len, max_cycle) is not None
        run = compare_run(space, max_len, max_cycle)
        assert run[0] == 0
        assert run == compare_run(space, max_len, max_cycle, listing=True)

    def test_fixtures(self, loops4_pow, single_loop, twins2, twins3):
        for space in (loops4_pow, single_loop, twins2, twins3):
            for bounds in ((0, 1), (2, 2), (4, 3)):
                assert _certified_counts(space[1], *bounds) is not None
                assert compare_run(space, *bounds) == compare_run(space, *bounds, listing=True)

    def test_refusals_are_the_listings(self, loops4):
        not_left_resolving = LabelledGraph(
            ("u", "v", "x"), (Edge("e1", "u", "a", "x"), Edge("e2", "v", "a", "x")))
        too_big = LabelledGraph(
            ["v%02d" % i for i in range(17)],
            [Edge("e%d" % i, "v%02d" % i, "a", "v%02d" % ((i + 1) % 17)) for i in range(17)])
        # loaded with a family that is not the powerset, which compare builds
        for g in (not_left_resolving, too_big):
            space = (g, closure(g, ()))
            run = compare_run(space, 2, 1)
            assert run[0] in (1, 2) and run[1] == "" and run[2].count("error:") == 1
            assert run == compare_run(space, 2, 1, listing=True)

    @staticmethod
    def tampered(utg, how):
        """A copy of ``utg`` with one arc dropped, one added, or one arc's
        destination swapped for another node."""
        bad = copy.copy(utg)
        succ = {node: list(arcs) for node, arcs in utg._succ.items()}
        node = next(n for n in utg.nodes if succ.get(n))
        b, dst = succ[node][0]
        other = next(n for n in utg.nodes if (b, n) not in succ[node])
        if how == "drop":
            del succ[node][0]
        elif how == "add":
            succ[node].append((b, other))
        else:
            succ[node][0] = (b, other)
        bad._succ = succ
        return bad

    @pytest.mark.parametrize("how", ["drop", "add", "swap"])
    def test_tampered_arcs_are_refused(self, loops4_pow, twins2, twins3, how):
        for _, fam in (loops4_pow, twins2, twins3):
            utg = UltrafilterTransitionGraph(fam)
            assert _phi_certified(utg)
            assert not _phi_certified(self.tampered(utg, how))

    def test_tampered_entries_are_refused(self, twins3):
        utg = UltrafilterTransitionGraph(twins3[1])
        bad = copy.copy(utg)
        bad._first = dict(utg._first)
        letters = sorted(bad._first)
        bad._first[letters[0]] = utg._first[letters[1]]
        assert utg._first[letters[0]] != utg._first[letters[1]]
        assert not _phi_certified(bad)

    def test_non_singleton_atoms_are_refused(self, loops4):
        # loops4's own family is complement closed with coarser atoms
        assert not _phi_certified(UltrafilterTransitionGraph(loops4[1]))
