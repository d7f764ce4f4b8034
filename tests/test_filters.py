import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from labelled_spaces import (
    DomainError,
    FiniteFilterFamily,
    InputError,
    LassoFilterFamily,
    PrincipalFilter,
    UnsupportedFamilyError,
    all_filters,
    enumerate_complete_families,
    is_es_ultrafilter,
    is_maximal_complete_family,
    make_element,
    preimage_filter,
    tight_spectrum,
    ultrafilters,
)
from labelled_spaces import fixtures
from labelled_spaces.filters import parse_filter_family
from labelled_spaces.semigroup import idempotents_up_to
from labelled_spaces.graph import LabelledGraph
from oracles import TowerOracle, filters_brute, from_top_by_prefixes, tower_gens_by_prefixes
from test_lasso_walker import random_spaces


def fset(*items):
    return frozenset(items)


E0 = fset("1", "2", "3", "4")


def fixture_algebras(loops4, loops4_pow, chain7, twins3):
    _, fam4 = loops4
    _, famp = loops4_pow
    _, famc = chain7
    _, famt = twins3
    algs = [
        fam4.algebra(()),
        fam4.algebra(("a",)),
        famp.algebra(("a",)),
        famt.algebra(("0",)),
        famt.algebra(("1",)),
    ]
    for depth in (1, 2, 3, 6):
        algs.append(famc.algebra(fixtures.chain7_word(depth)))
    return algs


class TestUltrafilters:
    def test_loops4(self, loops4):
        _, fam = loops4
        gens = [u.gen for u in ultrafilters(fam.algebra(("a",)))]
        assert gens == [fset("1"), fset("2", "4"), fset("3")]

    def test_chain7_depth_one(self, chain7):
        _, fam = chain7
        assert [u.gen for u in ultrafilters(fam.algebra(("a1",)))] == [fset("v2")]

    def test_trivial_algebra(self, loops4):
        _, fam = loops4
        assert ultrafilters(fam.algebra_over(frozenset())) == ()

    def test_principal_enumeration_matches_brute_force(
        self, loops4, loops4_pow, chain7, twins3
    ):
        # every up-closed, meet-closed, zero-free subset is the up-set of its
        # minimum, and the maximal ones are the up-sets of atoms
        for alg in fixture_algebras(loops4, loops4_pow, chain7, twins3):
            brute = set(filters_brute(alg.elements))
            principal = {frozenset(f.members()) for f in all_filters(alg)}
            assert brute == principal
            brute_ultra = {
                f for f in brute if not any(f < other for other in brute)
            }
            ultra = {frozenset(f.members()) for f in ultrafilters(alg)}
            assert brute_ultra == ultra

    def test_intersection_criterion(self, loops4, loops4_pow, chain7, twins3):
        # a filter is an ultrafilter iff it already contains everything that
        # meets all of its members
        for alg in fixture_algebras(loops4, loops4_pow, chain7, twins3):
            for flt in all_filters(alg):
                members = set(flt.members())
                meets_all = {
                    y
                    for y in alg.elements
                    if y and all(y & x for x in members)
                }
                assert (meets_all <= members) == flt.is_ultrafilter

    def test_boolean_criterion(self, loops4, loops4_pow):
        # in a complement-closed algebra over a nonempty word: ultrafilter
        # iff exactly one of each element and its complement is a member
        for _, fam in (loops4, loops4_pow):
            alg = fam.algebra(("a",))
            top = alg.top
            for flt in all_filters(alg):
                exactly_one = all(
                    (x in flt) != ((top - x) in flt) for x in alg.elements
                )
                assert exactly_one == flt.is_ultrafilter


class TestPreimage:
    def test_loops4_table(self, loops4):
        _, fam = loops4
        alg = fam.algebra(("a",))
        table = {}
        for flt in ultrafilters(alg):
            src = PrincipalFilter(fam.algebra(("a", "a")), flt.gen)
            table[flt.gen] = preimage_filter(fam, ("a",), ("a",), src).gen
        assert table == {
            fset("1"): fset("2", "4"),
            fset("2", "4"): fset("1"),
            fset("3"): fset("1"),
        }

    def test_table_is_word_independent(self, loops4):
        _, fam = loops4
        for n in (0, 1, 2):
            alpha = ("a",) * n
            src = PrincipalFilter(fam.algebra(alpha + ("a",)), fset("3"))
            assert preimage_filter(fam, alpha, ("a",), src).gen == fset("1")

    def test_empty_extension_is_identity(self, loops4):
        _, fam = loops4
        flt = PrincipalFilter(fam.algebra(("a",)), fset("2", "4"))
        assert preimage_filter(fam, ("a",), (), flt).gen == flt.gen

    def test_empty_result_over_empty_word(self):
        from labelled_spaces import Edge, LabelledGraph, closure

        g = LabelledGraph(("u", "v"), (Edge("e1", "v", "a", "u"),))
        fam = closure(g, [])
        flt = PrincipalFilter(fam.algebra(("a",)), fset("u"))
        assert preimage_filter(fam, (), ("a",), flt) is None

    def test_composition_law(self, loops4):
        _, fam = loops4
        words = [(), ("a",), ("a", "a")]
        for alpha in words:
            for beta in words:
                for gamma in words:
                    if not (beta or gamma):
                        continue
                    whole = fam.algebra(alpha + beta + gamma)
                    for flt in ultrafilters(whole):
                        direct = preimage_filter(fam, alpha, beta + gamma, flt)
                        mid = preimage_filter(fam, alpha + beta, gamma, flt)
                        via = (
                            None
                            if mid is None
                            else preimage_filter(fam, alpha, beta, mid)
                        )
                        assert (direct is None) == (via is None)
                        if direct is not None:
                            assert direct.gen == via.gen

    def test_ultrafilter_preimages_are_ultrafilters(self, loops4, loops4_pow):
        # complement-closed case: the preimage of an atom filter over a
        # nonempty word is again an atom filter
        for _, fam in (loops4, loops4_pow):
            for n in (1, 2):
                alpha = ("a",) * n
                for flt in ultrafilters(fam.algebra(alpha + ("a",))):
                    pre = preimage_filter(fam, alpha, ("a",), flt)
                    assert pre is not None and pre.is_ultrafilter


class TestFiniteFamilies:
    def test_from_top_derives_lower_levels(self, loops4):
        _, fam = loops4
        ff = FiniteFilterFamily.from_top(fam, ("a",), fset("3"))
        assert ff.gens == (fset("1"), fset("3"))

    def test_chain7_example_family_is_complete(self, chain7):
        _, fam = chain7
        gens = [
            fset("v1"),
            fset("v2", "v4"),
            fset("v3", "v5"),
            fset("v6"),
            fset("v7"),
            fset("v8"),
            fset("v9"),
        ]
        ff = FiniteFilterFamily(fam, fixtures.chain7_word(6), gens)
        assert ff.is_admissible()
        assert ff.is_complete()

    def test_constant_top_family_admissible_not_complete(self, loops4):
        _, fam = loops4
        ff = FiniteFilterFamily(fam, ("a", "a", "a"), [E0] * 4)
        assert ff.is_admissible()
        assert not ff.is_complete()

    def test_empty_word_family_trivially_complete(self, loops4):
        _, fam = loops4
        ff = FiniteFilterFamily(fam, (), [fset("3")])
        assert ff.is_complete()

    def test_empty_level_zero_only_for_nonempty_words(self, loops4):
        _, fam = loops4
        with pytest.raises(DomainError):
            FiniteFilterFamily(fam, (), [None])

    def test_level_sets_must_live_in_their_algebras(self, chain7):
        _, fam = chain7
        with pytest.raises(DomainError):
            FiniteFilterFamily(fam, ("a1",), [fset("v1"), fset("v4")])


def outcome(fn, *args):
    """What ``fn(*args)`` gives: ("ok", the tower's generators) or (error
    type, message)."""
    try:
        value = fn(*args)
        return "ok", getattr(value, "gens", value)
    except Exception as exc:  # the refusals themselves are compared
        return type(exc).__name__, str(exc)


class TestTowersCarryTheirRanges:
    """A finite tower finds each level's algebra from the range of the level
    before, one step per letter; looking up every prefix's algebra (the
    oracles ``tower_gens_by_prefixes`` and ``from_top_by_prefixes``, which
    return generators) must give the same towers and the same refusals."""

    def test_long_word_steps_linearly(self, loops4, monkeypatch):
        _, fam = loops4
        calls = [0]
        step = LabelledGraph.step

        def counted(self, members, letter):
            calls[0] += 1
            return step(self, members, letter)

        monkeypatch.setattr(LabelledGraph, "step", counted)
        k = 2000
        word = ("a",) * k
        ff = FiniteFilterFamily.from_top(fam, word, fset("3"))
        # once from the top and once in the constructor's check, plus the few
        # relative ranges of single members; a lookup per prefix took k^2 / 2
        assert calls[0] <= 2 * k + 50, calls[0]
        assert ff.gens[-2:] == (fset("1"), fset("3"))
        assert set(ff.gens[:-1]) == {fset("1"), fset("2", "4")}
        calls[0] = 0
        built = FiniteFilterFamily(fam, word, ff.gens)
        assert built == ff
        assert calls[0] <= k + 50, calls[0]
        # checking and reading the levels reuses the ranges the check carried
        calls[0] = 0
        assert built.is_complete()
        assert [built.filter_at(n).gen for n in built.levels()] == list(ff.gens)
        assert calls[0] <= 50, calls[0]

    @staticmethod
    def draw_tower(data, fam):
        """A word over the letters and one unknown letter, with a generator
        per level: mostly a nonzero element of that level's algebra, else an
        arbitrary, empty or missing set."""
        letters = list(fam.graph.alphabet) + ["z"]
        word = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=5)))
        gens = []
        for n in range(len(word) + 1):
            try:
                elements = [a for a in fam.algebra(word[:n]).elements if a]
            except (DomainError, InputError):
                elements = []
            pick = data.draw(st.integers(0, 9))
            if elements and pick < 7:
                gens.append(data.draw(st.sampled_from(elements)))
            elif pick == 7:
                gens.append(None)
            else:
                gens.append(data.draw(st.frozensets(st.sampled_from(fam.graph.vertices))))
        return word, gens

    @settings(max_examples=300, deadline=None)
    @given(random_spaces(), st.data())
    def test_same_towers_and_refusals(self, space, data):
        _, fam = space
        word, gens = self.draw_tower(data, fam)
        built = outcome(FiniteFilterFamily, fam, word, gens)
        assert built == outcome(tower_gens_by_prefixes, fam, word, gens)
        if built[0] == "ok":
            tower = FiniteFilterFamily(fam, word, gens)
            assert all(tower.algebra_at(n) is fam.algebra(word[:n]) for n in tower.levels())
        top = gens[-1] or fset()
        assert outcome(FiniteFilterFamily.from_top, fam, word, top) == outcome(
            from_top_by_prefixes, fam, word, top)

    def test_spectrum_towers_read_their_algebras(self, loops4):
        """``tight_spectrum`` builds its towers off transition-graph walks
        without the constructor's check; their levels still read the algebra
        of each prefix, and they are the towers the constructor accepts."""
        _, fam = loops4
        for tower in tight_spectrum(fam, 4, 0).finite:
            assert all(tower.algebra_at(n) is fam.algebra(tower.word[:n])
                       for n in tower.levels())
            assert tower.is_complete()
            assert FiniteFilterFamily(fam, tower.word, tower.gens) == tower

    def test_fixture_refusals(self, chain7, loops4):
        _, fam = chain7
        cases = [
            (("a1", "z", "y"), [fset("v1"), fset("v2", "v4"), fset("v3"), fset("v3")]),
            (("a1", "a1"), [None, fset("v2", "v4"), fset("v3")]),
            (("a1", "a2"), [None, fset("v2", "v4"), None]),
            (("a1", "a2"), [None, fset(), fset("v3")]),
            (("a1",), [fset("v1"), fset("v4")]),
        ]
        for word, gens in cases:
            built = outcome(FiniteFilterFamily, fam, word, gens)
            assert built[0] != "ok" and built == outcome(tower_gens_by_prefixes, fam, word, gens)
            assert outcome(FiniteFilterFamily.from_top, fam, word, gens[-1]) == outcome(
                from_top_by_prefixes, fam, word, gens[-1])


class TestLassoFamilies:
    def test_canonical_form_rolls_prefix(self, loops4):
        _, fam = loops4
        g1, g24 = fset("1"), fset("2", "4")
        rolled = LassoFilterFamily(fam, ("a",), ("a", "a"), (g1,), (g24, g1))
        pure = LassoFilterFamily(fam, (), ("a", "a"), (), (g1, g24))
        assert rolled.canonical_key() == pure.canonical_key()

    def test_primitive_cycle_reduction(self, loops4):
        _, fam = loops4
        g1, g24 = fset("1"), fset("2", "4")
        doubled = LassoFilterFamily(
            fam, (), ("a",) * 4, (), (g1, g24, g1, g24)
        )
        assert doubled.cycle_len == 2

    def test_constant_family_admissible_not_complete(self, loops4):
        _, fam = loops4
        adm = LassoFilterFamily(fam, (), ("a",), (), (E0,), f0_gen=E0)
        assert adm.is_admissible()
        assert not adm.is_complete()

    def test_alternating_family_complete(self, loops4):
        _, fam = loops4
        lasso = LassoFilterFamily(fam, (), ("a", "a"), (), (fset("1"), fset("2", "4")))
        assert lasso.is_complete()
        assert lasso.f0_gen == fset("2", "4")

    def test_levels_follow_the_preimage_recurrence(self, loops4):
        # the level below an atom filter is its preimage, here for the tight
        # tower ending at up{3}: the level under it is up{1}, then up{2 4}
        _, fam = loops4
        ff = FiniteFilterFamily.from_top(fam, ("a",) * 3, fset("3"))
        assert ff.gens == (fset("1"), fset("2", "4"), fset("1"), fset("3"))

    def test_node_lasso_can_outgrow_gen_cycle(self, twins3):
        # ranges may oscillate with a longer period than the generators
        _, fam = twins3
        lasso = LassoFilterFamily(fam, ("1",), ("0",), (fset("v3"),), (fset("v3"),))
        prefix_nodes, cycle_nodes = lasso.node_lasso()
        assert lasso.cycle_len == 1
        assert len(cycle_nodes) == 2
        assert {node[0] for _, node in cycle_nodes} == {
            fset("v1", "v3"),
            fset("v2", "v3"),
        }


class TestCompletion:
    def test_constant_full_set_completes_to_124(self, loops4):
        _, fam = loops4
        adm = LassoFilterFamily(fam, (), ("a",), (), (E0,), f0_gen=E0)
        comp = adm.completion()
        assert comp.cycle_gens == (fset("1", "2", "4"),)
        assert comp.f0_gen == fset("1", "2", "4")
        assert comp.is_complete()

    def test_completion_grows_levels(self, loops4):
        _, fam = loops4
        adm = FiniteFilterFamily(fam, ("a", "a"), [E0] * 3)
        comp = adm.completion()
        for n in adm.levels():
            assert comp.gens[n] <= adm.gens[n]

    def test_completion_idempotent_and_fixes_complete(self, loops4, chain7):
        _, fam = loops4
        adm = LassoFilterFamily(fam, (), ("a",), (), (E0,), f0_gen=E0)
        comp = adm.completion()
        assert comp.completion() == comp
        _, famc = chain7
        cf = enumerate_complete_families(famc, fixtures.chain7_word(6))[0]
        assert cf.completion().gens == cf.gens

    @pytest.mark.parametrize(
        "space, cycle, cycle_gens, f0",
        [
            ("loops4", ("a",), (E0,), E0),
            # {v1 v2} sits at level 0 and again at level 1; a membership walk
            # that gives level 0 the phase of level 1 stops there, one level
            # before it reaches up{v1} (f0 is the derived level-0 filter)
            ("twins3", ("0", "0", "1"), (fset("v2", "v3"), fset("v1"), fset("v1", "v3")),
             fset("v1", "v3")),
        ],
        ids=["loops4", "twins3"],
    )
    def test_membership_agreement_under_completion(self, request, space, cycle, cycle_gens, f0):
        _, fam = request.getfixturevalue(space)
        adm = LassoFilterFamily(fam, (), cycle, (), cycle_gens, f0_gen=f0)
        assert adm.is_admissible() and not adm.is_complete()
        comp = adm.completion()
        for p in idempotents_up_to(fam, 4):
            assert adm.contains_idempotent(p) == comp.contains_idempotent(p)

    def test_completion_over_an_inflating_window(self, twins3):
        # the ranges along 1(0)^inf alternate between {v1,v3} and {v2,v3},
        # so the completion is computed over the full window and then
        # re-canonicalized; the level-0 filter tightens to up{v1}
        _, fam = twins3
        adm = LassoFilterFamily(
            fam,
            ("1",),
            ("0",),
            (fset("v1", "v3"),),
            (fset("v3"),),
            f0_gen=fset("v1", "v2", "v3"),
        )
        assert adm.is_admissible() and not adm.is_complete()
        comp = adm.completion()
        assert comp.is_complete()
        assert comp.prefix_gens == (fset("v3"),)
        assert comp.cycle_gens == (fset("v3"),)
        assert comp.f0_gen == fset("v1")
        for q in idempotents_up_to(fam, 4):
            assert adm.contains_idempotent(q) == comp.contains_idempotent(q)

    def test_completion_requires_admissible(self, loops4):
        _, fam = loops4
        bad = FiniteFilterFamily(fam, ("a",), [fset("3"), fset("3")])
        assert not bad.is_admissible()
        with pytest.raises(DomainError):
            bad.completion()


class TestMembership:
    def test_loops4_tight_tower(self, loops4):
        _, fam = loops4
        ff = FiniteFilterFamily.from_top(fam, ("a",), fset("3"))
        inside = make_element(fam, (), {"1"}, ())
        outside = make_element(fam, ("a",), {"2", "4"}, ("a",))
        assert ff.contains_idempotent(inside)
        assert not ff.contains_idempotent(outside)

    def test_longer_word_not_member(self, loops4):
        _, fam = loops4
        ff = FiniteFilterFamily.from_top(fam, ("a",), fset("3"))
        deeper = make_element(fam, ("a", "a"), {"3"}, ("a", "a"))
        assert not ff.contains_idempotent(deeper)

    def test_prefix_determination(self, chain7):
        # in a complete tower every level is the preimage of any deeper level
        _, fam = chain7
        cf = enumerate_complete_families(fam, fixtures.chain7_word(6))[0]
        for n in range(6):
            for m in range(n + 1, 7):
                flt = PrincipalFilter(cf.algebra_at(m), cf.gens[m])
                pre = preimage_filter(
                    fam, cf.word[:n], cf.word[n:m], flt
                )
                assert pre.gen == cf.gens[n]


class TestCompleteFamilySearch:
    def test_chain7_unique_to_depth_six(self, chain7):
        _, fam = chain7
        found = enumerate_complete_families(fam, fixtures.chain7_word(6))
        assert len(found) == 1
        cf = found[0]
        assert cf.gens[2] == fset("v3", "v5")
        assert not cf.filter_at(2).is_ultrafilter
        atom = ultrafilters(fam.algebra(fixtures.chain7_word(2)))[0]
        assert atom.gen == fset("v3")
        assert atom.gen <= cf.gens[2]
        assert is_maximal_complete_family(fam, cf)

    def test_loops4_maximal_towers_have_atom_tops(self, loops4):
        _, fam = loops4
        word = ("a",) * 3
        families = enumerate_complete_families(fam, word)
        assert len(families) == 7
        for cf in families:
            is_max = is_maximal_complete_family(fam, cf)
            assert is_max == (cf.gens[-1] in fam.algebra(word).atoms)


class TestEsUltrafilters:
    def test_finite_type(self, loops4):
        _, fam = loops4
        tight = FiniteFilterFamily.from_top(fam, ("a",), fset("3"))
        live = FiniteFilterFamily.from_top(fam, ("a",), fset("1"))
        assert is_es_ultrafilter(fam, tight)
        assert not is_es_ultrafilter(fam, live)

    def test_infinite_type(self, loops4):
        _, fam = loops4
        lasso = LassoFilterFamily(fam, (), ("a", "a"), (), (fset("1"), fset("2", "4")))
        assert is_es_ultrafilter(fam, lasso)
        fat = LassoFilterFamily(fam, (), ("a",), (), (fset("1", "2", "4"),))
        assert not is_es_ultrafilter(fam, fat)

    def test_infinite_type_needs_complements(self, chain7):
        _, fam = chain7
        # no eventually periodic labelled path exists here, so fabricate the
        # request via the finite-word route and check the refusal directly
        with pytest.raises(UnsupportedFamilyError):
            fam.require_complements()


class TestFilterSyntax:
    def test_finite_round_trip(self, loops4):
        _, fam = loops4
        ff = parse_filter_family(fam, "a ; gen={3}")
        assert ff.format() == "a ; gen={3}"
        assert ff.gens == (fset("1"), fset("3"))

    def test_lasso_round_trip(self, loops4):
        _, fam = loops4
        lf = parse_filter_family(fam, "(a)^inf ; gens=({1 2 4})^inf")
        assert lf.format() == "(a)^inf ; gens=({1 2 4})^inf ; f0={1 2 4}"

    def test_lasso_with_prefix(self, twins3):
        _, fam = twins3
        lf = parse_filter_family(fam, "1(0)^inf ; gens={v3}({v3})^inf")
        assert lf.prefix_letters == ("1",)
        assert lf.cycle_letters == ("0",)


class TestBooleanCollapse:
    def test_tight_equals_ultrafilter_in_complement_closed_algebras(
        self, loops4, loops4_pow
    ):
        # inside a complement-closed algebra, the filters meeting all covers
        # of their members are exactly the ultrafilters
        from oracles import tight_filters_brute

        for _, fam in (loops4, loops4_pow):
            alg = fam.algebra(("a",))
            tight = set(tight_filters_brute(alg.elements))
            ultra = {frozenset(f.members()) for f in ultrafilters(alg)}
            assert tight == ultra

    def test_nonultrafilter_tower_level_survives_in_the_semilattice(self, chain7):
        # the unique complete tower of the chain is maximal although its
        # depth-two filter is not an ultrafilter of its own algebra; the
        # non-ultrafilter level is therefore not a defect of the tower
        _, fam = chain7
        cf = enumerate_complete_families(fam, fixtures.chain7_word(6))[0]
        assert is_maximal_complete_family(fam, cf)
        assert not cf.filter_at(2).is_ultrafilter


TOWER_SPACES = {name: getattr(fixtures, name)()[1] for name in
                ("loops4", "loops4_powerset", "twins2", "twins3")}


@st.composite
def random_towers(draw):
    """A finite or lasso tower, admissible or not, with each generator drawn
    from the algebra along the first pass of its word, and its oracle."""
    fam = TOWER_SPACES[draw(st.sampled_from(sorted(TOWER_SPACES)))]
    g = fam.graph
    lasso = draw(st.booleans())
    n_pre = draw(st.integers(0, 2 if lasso else 3))
    rng, pairs = g.vertex_set, []
    for _ in range(n_pre + (draw(st.integers(1, 3)) if lasso else 0)):
        letter = draw(st.sampled_from([b for b in g.alphabet if g.step(rng, b)]))
        rng = g.step(rng, letter)
        pairs.append((letter, draw(st.sampled_from([s for s in fam.sets if s and s <= rng]))))
    letters, gens = [b for b, _ in pairs], [s for _, s in pairs]
    f0 = draw(st.sampled_from(["derive", None] + [s for s in fam.sets if s]))
    try:
        if not lasso:
            f0 = None if f0 == "derive" else f0
            return fam, FiniteFilterFamily(fam, letters, [f0] + gens), TowerOracle(fam, pairs, (), f0)
        tower = LassoFilterFamily(
            fam, letters[:n_pre], letters[n_pre:], gens[:n_pre], gens[n_pre:],
            **({} if f0 == "derive" else {"f0_gen": f0})
        )
    except DomainError:
        reject()
    oracle = TowerOracle(fam, pairs[:n_pre], pairs[n_pre:], tower.f0_gen)
    if f0 == "derive":
        # the derived level-0 filter is the pullback of level 1
        assert oracle.up(0) == oracle.pullback(0)
    return fam, tower, oracle


class TestTowerCore:
    @settings(max_examples=250, deadline=None)
    @given(random_towers())
    def test_matches_the_definitions(self, case):
        fam, tower, oracle = case
        assert tower.is_admissible() == oracle.is_admissible()
        assert tower.is_complete() == oracle.is_complete()
        for p in idempotents_up_to(fam, 3):
            assert tower.contains_idempotent(p) == oracle.contains(p)
        if not oracle.is_admissible():
            with pytest.raises(DomainError):
                tower.completion()
            return
        comp = tower.completion()
        for n in range(oracle.last + 1):
            gen = comp.gen_at(n)
            members = {a for a in oracle.algebra(n) if gen is not None and gen <= a}
            assert members == oracle.completion_level(n)
