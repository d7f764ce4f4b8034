"""The library's values are immutable, and each is compared and hashed by
its defining fields, so that set order, dict order and output order stay
put however the values are built."""

import copy
import pickle

import pytest

from labelled_spaces import (
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
