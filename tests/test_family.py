import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_spaces import (
    AccommodatingFamily,
    DomainError,
    Edge,
    InputError,
    LabelledGraph,
    UltrafilterTransitionGraph,
    UnsupportedFamilyError,
    closure,
    is_left_resolving,
    powerset_family,
    range_of,
    relative_range,
    validate,
)
from labelled_spaces import family, fixtures
from labelled_spaces.lgrfile import parse_graph_file
from labelled_spaces.util import vkey
from oracles import (
    atoms_by_pairs,
    closure_by_pairs,
    preimage_arcs,
    sort_sets,
    step_brute,
    validate_by_pairs,
)


def fset(*items):
    return frozenset(items)


E0 = fset("1", "2", "3", "4")

LOOPS4_SETS = sort_sets(
    [
        frozenset(),
        fset("1"),
        fset("3"),
        fset("1", "3"),
        fset("2", "4"),
        fset("1", "2", "4"),
        fset("2", "3", "4"),
        E0,
    ]
)


def non_wlr_space():
    """Two sources feeding one vertex under the same letter; the powerset
    family then fails the weak-left-resolving identity."""
    g = LabelledGraph(
        ("u", "v", "x", "y"),
        (
            Edge("e1", "u", "a", "x"),
            Edge("e2", "v", "a", "x"),
            Edge("e3", "x", "b", "y"),
        ),
    )
    return g, powerset_family(g)


class TestClosure:
    def test_loops4_seed_singleton(self, loops4):
        g, _ = loops4
        fam = closure(g, [fset("1")])
        assert fam.sets == sort_sets([frozenset(), fset("1"), fset("2", "3", "4"), E0])

    def test_empty_seeds(self, loops4):
        g, _ = loops4
        fam = closure(g, [])
        assert fam.sets == (frozenset(), E0)

    def test_eight_set_family_is_already_closed(self, loops4):
        g, fam = loops4
        assert closure(g, fam.sets).sets == LOOPS4_SETS

    def test_closure_output_is_complement_closed(self, twins3):
        g, _ = twins3
        fam = closure(g, [fset("v1")])
        assert fam.complement_closed
        assert fam.weakly_left_resolving in (True, False)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sets(st.sampled_from(["1", "2", "3", "4"])), max_size=3))
    def test_extensive_monotone_idempotent(self, seeds):
        g, _ = fixtures.loops4()
        seeds = [frozenset(s) for s in seeds]
        fam = closure(g, seeds)
        for s in seeds:
            assert s in fam
        again = closure(g, fam.sets)
        assert again.sets == fam.sets
        bigger = closure(g, seeds + [fset("2")])
        assert set(fam.sets) <= set(bigger.sets)


class TestValidate:
    def test_loops4_all_flags(self, loops4):
        g, fam = loops4
        report = validate(g, fam.sets)
        assert report.accommodating
        assert report.weakly_left_resolving
        assert report.complement_closed

    def test_chain7_flags_and_witness(self, chain7):
        g, fam = chain7
        report = validate(g, fam.sets)
        assert report.accommodating
        assert report.weakly_left_resolving
        assert not report.complement_closed
        a, b = report.witnesses["complement_closed"]
        assert a in fam and b in fam and (a - b) not in fam

    def test_missing_letter_range(self, chain7):
        g, _ = chain7
        report = validate(g, [frozenset(), g.vertex_set])
        assert not report.accommodating
        assert report.witnesses["accommodating"][0] == "missing range of letter"

    def test_non_wlr_witness(self):
        g, fam = non_wlr_space()
        report = validate(g, fam.sets)
        assert report.accommodating
        assert not report.weakly_left_resolving
        a, b, letter = report.witnesses["weakly_left_resolving"]
        assert relative_range(g, a & b, (letter,)) != relative_range(
            g, a, (letter,)
        ) & relative_range(g, b, (letter,))

    def test_validation_never_raises_for_closure_failures(self, loops4):
        g, _ = loops4
        report = validate(g, [fset("1")])
        assert not report.accommodating

    def test_malformed_sets_are_input_errors(self, loops4):
        g, _ = loops4
        with pytest.raises(InputError):
            validate(g, [fset("nope")])


class TestFamilyConstruction:
    def test_rejects_non_accommodating(self, loops4):
        g, _ = loops4
        with pytest.raises(InputError):
            AccommodatingFamily(g, (frozenset(), fset("1")))

    def test_flags_are_recorded(self, chain7):
        _, fam = chain7
        assert fam.weakly_left_resolving
        assert not fam.complement_closed

    def test_non_wlr_family_constructs(self):
        _, fam = non_wlr_space()
        assert not fam.weakly_left_resolving

    def test_refusals_name_the_kept_witness(self, chain7):
        _, fam = non_wlr_space()
        a, b, letter = fam.report.witnesses["weakly_left_resolving"]
        with pytest.raises(DomainError) as caught:
            fam.require_wlr()
        assert str(caught.value) == "family is not weakly left resolving: %s %s %s" % (
            "{%s}" % " ".join(sorted(a)), "{%s}" % " ".join(sorted(b)), letter)
        _, fam = chain7
        with pytest.raises(UnsupportedFamilyError) as caught:
            fam.require_complements()
        assert str(caught.value) == (
            "family is not closed under relative complements: {v1 v10 v2 v3 v4} {v1 v10 v2}"
        )


def _close(g, gens, meets, ranges):
    """The smallest family holding the generators and the empty set that is
    closed under union, and optionally under intersection and under letter
    ranges and single-letter relative ranges (computed off the edge list)."""
    family = set(gens) | {frozenset()}
    if ranges:
        family |= {step_brute(g, g.vertex_set, b) for b in g.alphabet}
    while True:
        new = {a | b for a in family for b in family}
        if meets:
            new |= {a & b for a in family for b in family}
        if ranges:
            new |= {step_brute(g, a, b) for a in family for b in g.alphabet}
        if new <= family:
            return family
        family |= new


def random_graph(rng):
    """A random graph on at most five vertices with two letters; its edges
    are drawn at random, so it is often not weakly left resolving."""
    verts = tuple(str(i) for i in range(1, rng.randint(1, 5) + 1))
    edges = tuple(
        Edge("e%d" % i, rng.choice(verts), rng.choice("ab"), rng.choice(verts))
        for i in range(1, rng.randint(0, 2 * len(verts)) + 1)
    )
    return LabelledGraph(verts, edges)


def random_case(rng):
    """A ``random_graph`` and a family of one kind: arbitrary subsets, all
    unions of generators (optionally also closed under intersection, and
    under ranges), or a ``closure``; then, at random, one member dropped or
    one random set added."""
    g = random_graph(rng)
    verts = g.vertices

    def subset():
        return frozenset(v for v in verts if rng.random() < 0.5)

    gens = [subset() for _ in range(rng.randint(0, 4))]
    kind = rng.choice(("subsets", "unions", "lattice", "closure"))
    if kind == "subsets":
        sets = set(gens + [subset() for _ in range(rng.randint(0, 8))])
    elif kind == "closure":
        sets = set(closure(g, gens).sets)
    else:
        sets = _close(g, gens, kind == "lattice", rng.random() < 0.5)
    sets = sorted(sets, key=vkey)
    change = rng.choice(("none", "drop", "add"))
    if change == "drop" and sets:
        sets.pop(rng.randrange(len(sets)))
    elif change == "add":
        sets.append(subset())
    return g, sets


class TestValidateAgainstPairScans:
    """``validate`` decides its flags from the per-vertex meets; the pair
    scans it replaced (``oracles.validate_by_pairs``) must give the same
    report, flags and first witnesses alike."""

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_report(self, rng):
        g, sets = random_case(rng)
        assert validate(g, sets) == validate_by_pairs(g, sets)

    def test_draws_cover_every_outcome(self):
        seen = {}
        for seed in range(1500):
            g, sets = random_case(random.Random(seed))
            report = validate(g, sets)
            assert report == validate_by_pairs(g, sets), seed
            key = (report.accommodating, report.weakly_left_resolving, report.complement_closed)
            seen[key] = seen.get(key, 0) + 1
        # rings, lattices that are not rings, complement-closed non-lattices,
        # and failures of weak left resolving on and off lattices
        for key in [(True, True, True), (True, True, False), (False, True, True),
                    (True, False, True), (True, False, False), (False, False, False)]:
            assert seen.get(key, 0) >= 10, (key, seen)

    @pytest.mark.parametrize(
        "sets, flags",
        [
            ([(), ("1",), ("2",)], (False, True, True)),
            ([(), ("1",), ("1", "2"), ("1", "2", "3")], (True, True, False)),
            ([(), ("1",), ("2", "3"), ("1", "2", "3")], (True, True, True)),
        ],
        ids=["complement-closed-not-lattice", "chain", "ring"],
    )
    def test_edge_cases(self, sets, flags):
        g = LabelledGraph(("1", "2", "3"), (Edge("e1", "1", "a", "1"),
                                            Edge("e2", "2", "a", "2"),
                                            Edge("e3", "3", "a", "3")))
        sets = [frozenset(s) for s in sets]
        report = validate(g, sets)
        assert report == validate_by_pairs(g, sets)
        assert (report.accommodating, report.weakly_left_resolving,
                report.complement_closed) == flags


def powerset_text(n):
    """A left-resolving graph on n vertices (v_i -a-> v_i+1 and v_i -b->
    v_i+2, indices mod n) with the powerset family."""
    lines = ["vertices %s" % " ".join("v%d" % i for i in range(n))]
    for i in range(n):
        lines.append("edge v%d a v%d" % (i, (i + 1) % n))
        lines.append("edge v%d b v%d" % (i, (i + 2) % n))
    return "\n".join(lines + ["family powerset"]) + "\n"


class TestValidationScale:
    def test_powerset_steps_once_per_meet_and_letter(self, monkeypatch):
        n = 12
        calls = [0]
        step = LabelledGraph.step

        def counted(self, members, letter):
            calls[0] += 1
            return step(self, members, letter)

        monkeypatch.setattr(LabelledGraph, "step", counted)
        g, fam = parse_graph_file(powerset_text(n))
        assert is_left_resolving(g) and len(fam) == 2**n
        assert fam.weakly_left_resolving and fam.complement_closed
        # the pair scans stepped every member: |F| * |letters| = 8192 calls
        assert calls[0] <= (n + 1) * len(g.alphabet)

    def test_fourteen_vertex_powerset_parses(self):
        g, fam = parse_graph_file(powerset_text(14))
        assert len(fam) == 2**14
        assert fam.weakly_left_resolving and fam.complement_closed


class TestFamiliesByConstruction:
    """``powerset_family`` and ``closure`` build their report from their
    blocks instead of validating: it must equal ``validate``'s on the same
    members, witnesses and atoms alike, and the members come out in
    canonical order."""

    @staticmethod
    def draw(rng):
        g = random_graph(rng)
        if rng.random() < 0.5:
            return g, powerset_family(g)
        seeds = [frozenset(v for v in g.vertices if rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))]
        return g, closure(g, seeds)

    @staticmethod
    def check(g, fam):
        report = validate(g, fam.sets)
        assert fam.report == report
        assert fam.report.atoms == report.atoms
        assert fam.sets == sort_sets(fam.sets)
        return fam.weakly_left_resolving

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_report(self, rng):
        self.check(*self.draw(rng))

    def test_draws_are_often_not_wlr(self):
        wlr = [self.check(*self.draw(random.Random(seed))) for seed in range(600)]
        assert 100 <= sum(wlr) <= 500, sum(wlr)

    def test_fixtures(self, loops4, twins3):
        for g, fam in (loops4, twins3):
            self.check(g, powerset_family(g))
            self.check(g, closure(g, [fam.sets[1]]))
        self.check(*non_wlr_space())

    def test_report_is_not_a_positional_argument(self, loops4):
        g, fam = loops4
        with pytest.raises(TypeError):
            AccommodatingFamily(g, fam.sets, fam.report)

    @pytest.mark.parametrize("spec", ["powerset", "closure {v0}"])
    def test_parse_never_validates(self, spec, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(family, "validate", counted("validate", family.validate))
        monkeypatch.setattr(family, "_validate_members",
                            counted("_validate_members", family._validate_members))
        g, fam = parse_graph_file(powerset_text(6).replace("family powerset", "family " + spec))
        assert fam.weakly_left_resolving and fam.complement_closed
        assert calls == []


def random_family(rng):
    """A ``random_graph`` with an accommodating family of one kind: a
    ``closure`` of random seeds, the powerset, or a lattice closed under
    ranges generated by random sets (often not a ring)."""
    g = random_graph(rng)
    gens = [frozenset(v for v in g.vertices if rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))]
    kind = rng.choice(("closure", "powerset", "lattice"))
    if kind == "closure":
        return g, closure(g, gens)
    if kind == "powerset":
        return g, powerset_family(g)
    return g, AccommodatingFamily(g, tuple(_close(g, gens, True, True)))


def cycle_graph(n):
    """The one-letter cycle v00 -a-> v01 -a-> ... -a-> v00 on n vertices."""
    verts = tuple("v%02d" % i for i in range(n))
    return LabelledGraph(
        verts, tuple(Edge("e%d" % i, v, "a", verts[(i + 1) % n]) for i, v in enumerate(verts))
    )


class TestClosureAgainstPairs:
    """``closure`` refines a partition; the pairwise fixed point it replaced
    (``oracles.closure_by_pairs``) must give the same family."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_family(self, rng):
        g = random_graph(rng)
        seeds = [frozenset(v for v in g.vertices if rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))]
        assert closure(g, seeds).sets == closure_by_pairs(g, seeds).sets

    def test_fixtures(self, loops4, twins3):
        for g, fam in (loops4, twins3):
            for seeds in ([], [fam.sets[1]], list(fam.sets)):
                assert closure(g, seeds).sets == closure_by_pairs(g, seeds).sets

    def test_cycle_steps_per_block_and_letter(self, monkeypatch):
        n = 12
        g = cycle_graph(n)
        calls = [0]
        step = LabelledGraph.step

        def counted(self, members, letter):
            calls[0] += 1
            return step(self, members, letter)

        monkeypatch.setattr(LabelledGraph, "step", counted)
        fam = closure(g, [fset("v00")])
        assert len(fam) == 2**n and fam.complement_closed
        # the pairwise fixed point stepped every member of every round: 8,214 calls
        assert calls[0] <= 4 * n * len(g.alphabet)


class TestAtomsAgainstPairs:
    """A restricted algebra reads its atoms off the family's minimal meets;
    the pair scan over its elements (``oracles.atoms_by_pairs``) must agree,
    on rings and on lattices that are not rings."""

    @staticmethod
    def restrictions(g, fam, rng):
        words = [(b,) for b in g.alphabet] + [(b, c) for b in g.alphabet for c in g.alphabet]
        yield g.vertex_set
        yield from fam.sets
        yield from (range_of(g, w) for w in words)
        for _ in range(3):
            yield frozenset(v for v in g.vertices if rng.random() < 0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_atoms(self, rng):
        g, fam = random_family(rng)
        for r in self.restrictions(g, fam, rng):
            assert fam.algebra_over(r).atoms == atoms_by_pairs(fam, r)

    def test_fixtures(self, loops4, chain7, twins3):
        for g, fam in (loops4, chain7, twins3):
            for r in self.restrictions(g, fam, random.Random(0)):
                assert fam.algebra_over(r).atoms == atoms_by_pairs(fam, r)


class TestArcsAgainstPreimages:
    """The transition graph adds (R, A) -b-> (r(R, b), A') when A' <= r(A, b);
    the preimage scan it replaced (``oracles.preimage_arcs``) must give the
    same arcs on every family the graph accepts."""

    @staticmethod
    def check(fam):
        try:
            utg = UltrafilterTransitionGraph(fam)
        except DomainError:
            assert not (fam.complement_closed and fam.weakly_left_resolving)
            return False
        assert utg.edges == preimage_arcs(fam)
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_arcs(self, rng):
        self.check(random_family(rng)[1])

    def test_draws_build_graphs(self):
        built = sum(self.check(random_family(random.Random(seed))[1]) for seed in range(400))
        assert built >= 200, built

    def test_fixtures(self, loops4, loops4_pow, twins2, twins3, single_loop):
        for _, fam in (loops4, loops4_pow, twins2, twins3, single_loop):
            assert self.check(fam)


class TestFamilySizeBudget:
    def test_powerset_past_the_budget_is_refused(self):
        with pytest.raises(InputError, match="family would have 131072 members"):
            powerset_family(cycle_graph(17))

    def test_closure_past_the_budget_is_refused(self):
        with pytest.raises(InputError, match="family would have 131072 members"):
            closure(cycle_graph(17), [fset("v00")])

    def test_sixteen_blocks_are_listed(self):
        assert len(closure(cycle_graph(16), [fset("v00")])) == 2**16


class TestComplementIdentity:
    def test_range_of_difference(self, loops4):
        g, fam = loops4
        # needs both flags: weakly left resolving and complement closed
        words = [("a",) * n for n in range(4)]
        for a in fam.sets:
            for b in fam.sets:
                for word in words:
                    assert relative_range(g, a - b, word) == relative_range(
                        g, a, word
                    ) - relative_range(g, b, word)

    def test_disjoint_sets_have_disjoint_ranges(self, loops4):
        g, fam = loops4
        for a in fam.sets:
            for b in fam.sets:
                if not (a & b):
                    for n in range(4):
                        word = ("a",) * n
                        assert not (
                            relative_range(g, a, word) & relative_range(g, b, word)
                        )


class TestRestrictedAlgebra:
    def test_chain7_depth_one(self, chain7):
        _, fam = chain7
        alg = fam.algebra(("a1",))
        assert alg.elements == (frozenset(), fset("v2"), fset("v2", "v4"))
        assert alg.atoms == (fset("v2"),)

    def test_chain7_depth_two(self, chain7):
        _, fam = chain7
        alg = fam.algebra(("a1", "a2"))
        assert alg.elements == (frozenset(), fset("v3"), fset("v3", "v5"))

    def test_loops4_word_a_is_whole_family(self, loops4):
        _, fam = loops4
        assert fam.algebra(("a",)).elements == fam.sets

    def test_atoms_dominate(self, loops4, chain7, twins3):
        for _, fam in (loops4, chain7, twins3):
            for word in [(), (fam.graph.alphabet[0],)]:
                alg = fam.algebra(word)
                for e in alg.elements:
                    if e:
                        assert any(a <= e for a in alg.atoms)

    def test_empty_word_algebra_may_lack_top(self):
        g = LabelledGraph(("u", "v"), (Edge("e1", "v", "a", "u"),))
        fam = closure(g, [])
        alg = fam.algebra(())
        assert alg.top is None
        assert g.vertex_set not in fam

    def test_nonempty_word_algebra_has_top(self, loops4):
        _, fam = loops4
        assert fam.algebra(("a",)).top == E0


def vertex_names(scheme, n):
    """n vertex names whose string order is not their numeric order once n
    passes 9: ``v1 v10 v2 ...`` or ``1 10 2 ...``."""
    return tuple((scheme + "%d") % i for i in range(1, n + 1))


def meet_atoms_brute(g, sets):
    """The minimal per-vertex meets of a collection of sets, in canonical
    order, each meet intersected out of the members that hold its vertex."""
    members = sort_sets(frozenset(s) for s in sets)
    meets = {frozenset.intersection(*[a for a in members if v in a])
             for v in g.vertices if any(v in a for a in members)}
    return tuple(sorted((m for m in meets if not any(o < m for o in meets)), key=vkey))


class TestMaskCore:
    """Families are built and validated on vertex masks, the first vertex of
    ``g.vertices`` on the highest bit, and sorted by the closed-form index
    of a mask in canonical order; members, flags, witnesses, atoms and
    refusals must be what the frozenset scans give."""

    @pytest.mark.parametrize("n", range(11))
    def test_rank_is_the_canonical_index(self, n):
        g = LabelledGraph(vertex_names("v", n), ())
        bit, rank = family._layout(g)
        subsets = sorted((frozenset(v for v in g.vertices if m & bit[v]) for m in range(1 << n)),
                         key=vkey)
        assert [rank(family._mask(bit, s)) for s in subsets] == list(range(1 << n))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["v", ""]), st.integers(1, 14), st.data())
    def test_rank_order_is_vkey_order(self, scheme, n, data):
        g = LabelledGraph(vertex_names(scheme, n), ())
        bit, rank = family._layout(g)
        sets = data.draw(st.lists(st.frozensets(st.sampled_from(g.vertices)), max_size=30))
        assert sorted(set(sets), key=lambda s: rank(family._mask(bit, s))) == sorted(
            set(sets), key=vkey)

    @staticmethod
    def explicit_case(rng):
        """A ``random_case`` family, its sets shuffled and some repeated."""
        g, sets = random_case(rng)
        sets = sets + [sets[rng.randrange(len(sets))] for _ in range(rng.randint(0, 3)) if sets]
        rng.shuffle(sets)
        return g, sets

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_as_the_pair_scans(self, rng):
        g, sets = self.explicit_case(rng)
        report, expected = validate(g, sets), validate_by_pairs(g, sets)
        assert report == expected and report.atoms == meet_atoms_brute(g, sets)
        if not expected.accommodating:
            with pytest.raises(InputError) as caught:
                AccommodatingFamily(g, sets)
            assert str(caught.value) == ("family is not accommodating: %s"
                                         % expected.witness_text("accommodating"))
            return
        fam = AccommodatingFamily(g, sets)
        assert fam.sets == sort_sets(sets)
        assert fam.report == expected and fam.report.atoms == report.atoms

    def test_draws_are_shuffled_and_repeated(self):
        draws = [self.explicit_case(random.Random(seed))[1] for seed in range(300)]
        assert sum(len(set(s)) < len(s) for s in draws) >= 50
        assert sum(s != sorted(set(s), key=vkey) for s in draws) >= 150

    @pytest.mark.parametrize("sets, family_error, validate_error", [
        ([{"2", "y"}, {"1", "z"}], "z", "y"),
        ([{"1", "x"}, {"0"}], "0", "x"),
        ([set(), {"1"}, {"10", "q", "p"}, {"1", "r"}], "r", "p q"),
        ([{"2", "y"}, {"2", "y"}, {"10", "x"}], "x", "y"),
        ([{"2", "b"}, {"2", "a", "c"}], "a c", "b"),
    ])
    def test_unknown_vertices(self, sets, family_error, validate_error):
        # a family refuses the first set in canonical order holding an unknown
        # vertex, ``validate`` and ``closure`` the first in the order given
        g = LabelledGraph(("1", "2", "10"), (Edge("e1", "1", "a", "2"),
                                              Edge("e2", "2", "a", "10")))
        sets = [frozenset(s) for s in sets]
        for build, unknown in ((AccommodatingFamily, family_error), (validate, validate_error),
                               (closure, validate_error)):
            with pytest.raises(InputError) as caught:
                build(g, sets)
            assert str(caught.value) == "unknown vertices: " + unknown
        with pytest.raises(InputError) as caught:
            parse_graph_file("vertices 1 2 10\nedge 1 a 2\nfamily explicit {2 y}{}{1 z}\n")
        assert str(caught.value) == "line 3: unknown vertices: z"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["v", ""]), st.integers(1, 12), st.data())
    def test_unions_in_canonical_order(self, scheme, n, data):
        g = LabelledGraph(vertex_names(scheme, n), ())
        part = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        blocks = [frozenset(v for v, p in zip(g.vertices, part) if p == k) for k in range(1, 5)]
        blocks = [b for b in blocks if b]
        unions = {frozenset()}
        for b in blocks:
            unions |= {u | b for u in unions}
        fam = family._unions(g, blocks)
        assert fam.sets == sort_sets(unions)
        assert fam.report.atoms == tuple(sorted(blocks, key=vkey))
