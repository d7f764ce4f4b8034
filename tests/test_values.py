"""The library's values are immutable, and each is compared and hashed by
its defining fields, so that set order, dict order and output order stay
put however the values are built."""

import copy
import pickle

import pytest

from labelled_spaces import (
    FiniteFilterFamily,
    LassoFilterFamily,
    PrincipalFilter,
    UltrafilterTransitionGraph,
    boundary_paths,
    compare_spectrum_with_boundary,
    make_element,
    tight_spectrum,
    ultrafilters,
    union_cover,
)
from labelled_spaces.family import ValidationReport

# each value type, by name, with one of its attributes
ATTRIBUTES = {
    "edge": "eid",
    "graph": "vertices",
    "family": "sets",
    "report": "witnesses",
    "algebra": "elements",
    "filter": "gen",
    "element": "vset",
    "node": "atom",
    "finite path": "edges",
    "infinite path": "cycle",
    "certificate": "parts",
    "boundary report": "finite",
    "spectrum": "finite",
    "phi report": "bijective",
}

# the fields each value is compared and hashed by
HASHED_BY = {
    "edge": ("eid", "src", "label", "dst"),
    "graph": ("vertices", "edges"),
    "family": ("graph", "sets"),
    "algebra": ("family", "restriction"),
    "filter": ("algebra", "gen"),
    "element": ("alpha", "vset", "beta"),
    "node": ("range_set", "atom"),
    "finite path": ("base", "edges"),
    "infinite path": ("prefix", "cycle"),
    "certificate": ("element", "parts"),
    "boundary report": ("finite", "infinite", "has_branching_cycles"),
    "spectrum": ("finite", "infinite", "has_branching_cycles"),
    "phi report": ("bijective", "boundary", "spectrum", "unmatched_boundary",
                   "unmatched_spectrum", "not_injective"),
}


@pytest.fixture(scope="module")
def made(loops4, loops4_pow):
    g, fam = loops4
    alg = fam.algebra(("a",))
    flt = ultrafilters(alg)[0]
    x = make_element(fam, ("a",), flt.gen, ("a",))
    bnd = boundary_paths(g, 2, 2)
    return {
        "edge": g.edges[0],
        "graph": g,
        "family": fam,
        "report": fam.report,
        "algebra": alg,
        "filter": flt,
        "element": x,
        "node": UltrafilterTransitionGraph(fam).nodes[0],
        "finite path": bnd.finite[0],
        "infinite path": bnd.infinite[0],
        "certificate": union_cover(fam, x, [x.vset]),
        "boundary report": bnd,
        "spectrum": tight_spectrum(fam, 2, 2),
        "phi report": compare_spectrum_with_boundary(loops4_pow[0], 1, 1),
    }


@pytest.mark.parametrize("name", sorted(ATTRIBUTES))
def test_assignment_is_refused(made, name):
    value, attr = made[name], ATTRIBUTES[name]
    before = getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, attr)
    assert getattr(value, attr) is before
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name", sorted(ATTRIBUTES))
def test_copy_and_pickle_give_equal_values(made, name):
    value = made[name]
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)
        assert getattr(twin, ATTRIBUTES[name]) == getattr(value, ATTRIBUTES[name])


@pytest.mark.parametrize("name", sorted(HASHED_BY))
def test_hash_is_the_hash_of_the_fields(made, name):
    value = made[name]
    assert hash(value) == hash(tuple(getattr(value, f) for f in HASHED_BY[name]))


def test_plain_values_equal_by_fields_and_type(made):
    flt = made["filter"]
    same = PrincipalFilter(flt.algebra, frozenset(flt.gen))
    assert same == flt and same is not flt and not same != flt
    assert flt != (flt.algebra, flt.gen)
    assert made["graph"] != made["family"]


def test_report_equality_ignores_atoms(made):
    report = made["report"]
    assert report.atoms
    bare = ValidationReport(report.accommodating, report.weakly_left_resolving,
                            report.complement_closed, report.witnesses)
    assert bare == report and bare.atoms == ()
    with pytest.raises(TypeError):
        hash(report)


def test_filter_order_is_inclusion_not_tuple_order(made):
    alg = made["algebra"]
    small = PrincipalFilter(alg, alg.top)
    big = made["filter"]
    assert not isinstance(big, tuple)
    assert small <= big and big >= small
    assert not big <= small and not small >= big


# Filter towers are plain classes, not ``Immutable`` values, and their public
# surface is pinned here attribute by attribute, with the values the towers
# gave before their two classes shared one core: a finite tower that is
# admissible but not complete, a lasso whose given prefix canonicalisation
# rolls into the cycle (and whose ranges have a longer period than its
# letters), and a lasso whose level-0 filter is empty.

S = frozenset
E0 = S("1234")
V3 = S(["v3"])


@pytest.fixture(scope="module")
def towers(loops4, twins3):
    fam, famt = loops4[1], twins3[1]
    return {
        "finite": FiniteFilterFamily(fam, ("a", "a"), [None, E0, S("3")]),
        "rolled": LassoFilterFamily(famt, ("1", "0"), ("0",), (V3, V3), (V3,)),
        "f0 empty": LassoFilterFamily(fam, (), ("a",), (), (E0,), f0_gen=None),
    }


TOWER_ATTRIBUTES = {
    "finite": {"word": ("a", "a"), "gens": (None, E0, S("3")), "length": 2,
               "is_lasso": False},
    "rolled": {"prefix_letters": ("1",), "cycle_letters": ("0",), "prefix_gens": (V3,),
               "cycle_gens": (V3,), "prefix_len": 1, "cycle_len": 1, "f0_gen": S(["v1"]),
               "is_lasso": True},
    "f0 empty": {"prefix_letters": (), "cycle_letters": ("a",), "prefix_gens": (),
                 "cycle_gens": (E0,), "prefix_len": 0, "cycle_len": 1, "f0_gen": None,
                 "is_lasso": True},
}

# per level n = 0, 1, ...: letter(n) (from level 1), gen_at(n), word_prefix(n),
# and the range whose algebra algebra_at(n) is
TOWER_LEVELS = {
    "finite": {
        "letters": ["a", "a"],
        "gens": [None, E0, S("3")],
        "prefixes": [(), ("a",), ("a", "a")],
        "ranges": [E0, E0, E0],
        "levels": [0, 1, 2],
    },
    "rolled": {
        "letters": ["1", "0", "0", "0", "0"],
        "gens": [S(["v1"]), V3, V3, V3, V3, V3],
        "prefixes": [(), ("1",), ("1", "0"), ("1", "0", "0")],
        "ranges": [S(["v1", "v2", "v3"]), S(["v1", "v3"]), S(["v2", "v3"]), S(["v1", "v3"])],
        "levels": [0, 1, 2, 3],
    },
    "f0 empty": {
        "letters": ["a"] * 5,
        "gens": [None] + [E0] * 5,
        "prefixes": [(), ("a",), ("a", "a"), ("a", "a", "a")],
        "ranges": [E0] * 4,
        "levels": [0, 1],
    },
}

TOWER_TEXTS = {
    "finite": {
        "format": "a.a ; gen={3}",
        "repr": "<finite filter family a.a ; gen={3}>",
        "sort_key": (0, 2, ("a", "a"), ("3",)),
        "canonical_key": ("fin", ("a", "a"), ("3",)),
        "checks": (True, False),
        "completion": "a.a ; gen={3}",
        "completion gens": (S("24"), S("1"), S("3")),
        "members": ["(@,{1 2 3 4},@)", "(@,{1 2 4},@)", "(@,{2 3 4},@)", "(@,{2 4},@)",
                    "(a,{1},a)", "(a,{1 2 3 4},a)", "(a,{1 2 4},a)", "(a,{1 3},a)",
                    "(a.a,{1 2 3 4},a.a)", "(a.a,{1 3},a.a)", "(a.a,{2 3 4},a.a)",
                    "(a.a,{3},a.a)"],
    },
    "rolled": {
        "format": "1(0)^inf ; gens={v3}({v3})^inf ; f0={v1}",
        "repr": "<lasso filter family 1(0)^inf ; gens={v3}({v3})^inf ; f0={v1}>",
        "sort_key": (1, 1, ("1",), (("v3",),), 1, ("0",), (("v3",),)),
        "canonical_key": ("inf", ("1",), (("v3",),), ("0",), (("v3",),)),
        "checks": (True, True),
        "completion": "1(0)^inf ; gens={v3}({v3})^inf ; f0={v1}",
        "members": ["(@,{v1},@)", "(@,{v1 v2},@)", "(@,{v1 v2 v3},@)", "(@,{v1 v3},@)",
                    "(1,{v1 v3},1)", "(1,{v3},1)", "(1.0,{v2 v3},1.0)", "(1.0,{v3},1.0)"],
    },
    "f0 empty": {
        "format": "(a)^inf ; gens=({1 2 3 4})^inf ; f0=empty",
        "repr": "<lasso filter family (a)^inf ; gens=({1 2 3 4})^inf ; f0=empty>",
        "sort_key": (1, 0, (), (), 1, ("a",), (("1", "2", "3", "4"),)),
        "canonical_key": ("inf", (), (), ("a",), (("1", "2", "3", "4"),)),
        "checks": (True, False),
        "completion": "(a)^inf ; gens=({1 2 4})^inf ; f0={1 2 4}",
        "members": ["(@,{1 2 3 4},@)", "(@,{1 2 4},@)", "(a,{1 2 3 4},a)", "(a,{1 2 4},a)",
                    "(a.a,{1 2 3 4},a.a)", "(a.a,{1 2 4},a.a)"],
    },
}


@pytest.mark.parametrize("name", sorted(TOWER_ATTRIBUTES))
def test_tower_attributes(towers, name):
    tower = towers[name]
    for attr, value in TOWER_ATTRIBUTES[name].items():
        assert getattr(tower, attr) == value, attr
    if not tower.is_lasso:
        assert tower.top_gen() == tower.gens[-1]


@pytest.mark.parametrize("name", sorted(TOWER_LEVELS))
def test_tower_levels(towers, name):
    tower, pinned = towers[name], TOWER_LEVELS[name]
    fam = tower.fam
    assert [tower.letter(n) for n in range(1, len(pinned["letters"]) + 1)] == pinned["letters"]
    assert [tower.gen_at(n) for n in range(len(pinned["gens"]))] == pinned["gens"]
    assert [tower.word_prefix(n) for n in range(len(pinned["prefixes"]))] == pinned["prefixes"]
    for n, rng in enumerate(pinned["ranges"]):
        assert tower.range_at(n) == rng
        assert tower.algebra_at(n) is fam.algebra_over(rng) is fam.algebra(tower.word_prefix(n))
        flt = tower.filter_at(n)
        assert (flt is None) == (tower.gen_at(n) is None)
        assert flt is None or (flt.algebra, flt.gen) == (tower.algebra_at(n), tower.gen_at(n))
    assert list(tower.levels()) == pinned["levels"]


@pytest.mark.parametrize("name", sorted(TOWER_TEXTS))
def test_tower_texts_keys_and_checks(towers, name):
    from labelled_spaces.semigroup import idempotents_up_to

    tower, pinned = towers[name], TOWER_TEXTS[name]
    assert tower.format() == pinned["format"]
    assert repr(tower) == pinned["repr"]
    assert tower.sort_key() == pinned["sort_key"]
    assert tower.canonical_key() == pinned["canonical_key"]
    if tower.is_lasso:
        assert hash(tower) == hash(tower.canonical_key())
    else:
        assert hash(tower) == hash((tower.word, tower.gens))
    assert (tower.is_admissible(), tower.is_complete()) == pinned["checks"]
    done = tower.completion()
    assert type(done) is type(tower) and done.format() == pinned["completion"]
    assert done.is_complete() and done.completion() == done
    if "completion gens" in pinned:
        assert done.gens == pinned["completion gens"]
    members = [str(p) for p in idempotents_up_to(tower.fam, 2) if tower.contains_idempotent(p)]
    assert members == pinned["members"]


@pytest.mark.parametrize("name", sorted(TOWER_TEXTS))
def test_towers_equal_by_their_data(towers, name):
    tower = towers[name]
    if tower.is_lasso:
        twin = LassoFilterFamily(tower.fam, tower.prefix_letters, tower.cycle_letters,
                                 tower.prefix_gens, tower.cycle_gens, f0_gen=tower.f0_gen)
        other = LassoFilterFamily(tower.fam, tower.prefix_letters, tower.cycle_letters,
                                  tower.prefix_gens, tower.cycle_gens, f0_gen=None)
    else:
        twin = FiniteFilterFamily(tower.fam, tower.word, tower.gens)
        other = FiniteFilterFamily(tower.fam, tower.word, (S("1"),) + tower.gens[1:])
    assert twin == tower and hash(twin) == hash(tower) and not twin != tower
    assert (other == tower) == (tower.f0_gen is None if tower.is_lasso else False)
    assert tower != tower.format()
