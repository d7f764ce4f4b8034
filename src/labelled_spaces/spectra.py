"""The tight spectrum, its boundary-path description, covers and refutation.

Tight filters are walks through the ultrafilter transition graph, as
boundary paths are walks through the graph, and one walk system lists and
counts both (``transition._Walks``).  The infinite-type ultrafilters are its
lassos.  The finite-type towers, whose deepest filter is an ultrafilter with
its generator inside the sinks (a finite graph has no infinite emitters),
are its walks that end at a sink atom.  A tower's levels are read off its
walk, and level 0 off its first item, so no tower is derived by a preimage
scan.  A listing past ``LISTING_BUDGET`` points is refused.

``compare`` decides the paper's theorem from a certificate read off the
transition graph's arcs (``_phi_certified``) and the exact counts of both
sides; ``compare_spectrum_with_boundary`` lists both sides and matches them
point by point.
"""

from collections import namedtuple

from .boundary import FinitePath, InfinitePath, _boundary_counts, boundary_paths
from .errors import CoverError, DomainError
from .family import powerset_family
from .filters import (
    FiniteFilterFamily,
    LassoFilterFamily,
    _is_sink_ultrafilter,
    is_es_ultrafilter,
    ultrafilters,
)
from .graph import is_left_resolving, sinks
from .semigroup import is_idempotent, make_element
from .transition import UltrafilterTransitionGraph, UTGNode, _refuse_past_budget
from .util import format_vset, vkey


def sink_ultrafilters(fam, word):
    """Ultrafilters of the algebra over ``word`` whose generator emits no
    edge at all, i.e. lies inside the sinks."""
    return tuple(f for f in ultrafilters(fam.algebra(word)) if _is_sink_ultrafilter(fam, f))


def is_tight_finite_type(fam, word, flt):
    """Tightness of the finite-type tower along ``word`` with the given
    deepest filter.

    The filter must be an ultrafilter whose generator contains a nonempty
    family member made of sinks (a finite graph has no infinite emitters).
    Every such member contains an atom, and distinct atoms are disjoint, so
    that atom is the generator itself: it lies inside the sinks.
    """
    return _is_sink_ultrafilter(fam, flt)


def is_tight(fam, family):
    """Tightness of a filter in E(S) given as a complete tower: on a finite
    graph it is tight exactly when it is an ultrafilter."""
    if not family.is_complete():
        raise DomainError("tightness is about filters in E(S), i.e. complete towers")
    return is_es_ultrafilter(fam, family)


class TightSpectrum(namedtuple("TightSpectrum", "finite infinite has_branching_cycles")):
    __slots__ = ()

    def all_points(self):
        return self.finite + self.infinite


def tight_spectrum(fam, max_word_len, max_cycle_len):
    """All tight filters within the bounds: finite-type towers with word
    length at most ``max_word_len`` plus infinite-type lassos with prefix at
    most ``max_word_len`` and cycle at most ``max_cycle_len``.

    The branching flag marks when the transition graph has a component with
    two cycles, so the lasso list undercounts the infinite-type points.
    Past ``LISTING_BUDGET`` points it raises ``InputError`` with their exact
    number instead.
    """
    graph, sink = UltrafilterTransitionGraph(fam), sinks(fam.graph)
    finite, lassos, steps = _spectrum_counts(graph, max_word_len, max_cycle_len)
    what = "the tight spectrum up to word length %d and cycle %d" % (max_word_len, max_cycle_len)
    _refuse_past_budget(finite + lassos, steps, what)
    finite = [FiniteFilterFamily(fam, (), (a,)) for a in fam.report.atoms if a <= sink]
    level0 = graph._level0()
    finite += [FiniteFilterFamily._unchecked(fam, tuple(b for b, _ in walk),
                                             (level0.get(walk[0]),) + tuple(a for _, a in walk))
               for walk in graph._walks.finite(max_word_len)]
    return TightSpectrum(
        tuple(sorted(finite, key=FiniteFilterFamily.sort_key)),
        graph.lassos(max_word_len, max_cycle_len),
        graph.has_branching_cycles(),
    )


def _spectrum_counts(graph, max_word_len, max_cycle_len):
    """The sizes of ``tight_spectrum``'s finite and infinite lists and the
    letters their points hold, counted off the graph's walk system.  A
    finite-type point is a word with a sink atom of its algebra: a walk into
    a sink atom, or for the empty word one of the family's atoms inside the
    sinks."""
    sink = sinks(graph.fam.graph)
    finite, lassos, steps = graph._walks.count(max_word_len, max_cycle_len)
    return sum(1 for a in graph.fam.report.atoms if a <= sink) + finite, lassos, steps


def _require_phi_hypotheses(fam):
    if not is_left_resolving(fam.graph):
        raise DomainError("the labelled graph must be left resolving")
    if len(fam.sets) != 1 << len(fam.graph.vertices):
        raise DomainError("the family must be the full powerset")


def boundary_to_filter(fam, path):
    """The tower of singleton-generated filters along a boundary path.

    Level n is generated by the range vertex of the path's n-th edge and
    level 0 by the start vertex, which left resolution makes the preimage;
    for a left resolving graph with the powerset family this lands in the
    tight spectrum and is a bijection onto it.
    """
    _require_phi_hypotheses(fam)
    if isinstance(path, FinitePath):
        gens = [frozenset([path.source])] + [frozenset([e.dst]) for e in path.edges]
        return FiniteFilterFamily(fam, path.labels(), gens)
    if isinstance(path, InfinitePath):
        prefix_labels, cycle_labels = path.labels()
        prefix_gens = [frozenset([e.dst]) for e in path.prefix]
        cycle_gens = [frozenset([e.dst]) for e in path.cycle]
        return LassoFilterFamily(fam, prefix_labels, cycle_labels, prefix_gens, cycle_gens,
                                 f0_gen=frozenset([(path.prefix or path.cycle)[0].src]))
    raise DomainError("expected a boundary path, got %r" % (path,))


_COUNTS_LINE = "boundary: %s finite + %s infinite | spectrum: %s finite + %s infinite"


class PhiReport(namedtuple("PhiReport", "bijective boundary spectrum unmatched_boundary "
                                        "unmatched_spectrum not_injective")):
    __slots__ = ()

    def counts_line(self):
        return _COUNTS_LINE % (
            len(self.boundary.finite),
            len(self.boundary.infinite),
            len(self.spectrum.finite),
            len(self.spectrum.infinite),
        )


def compare_spectrum_with_boundary(g, max_len, max_cycle):
    """Check that the boundary-to-filter map restricts to a bijection between
    the bounded boundary enumeration and the bounded tight spectrum of the
    powerset labelled space.  Purely a set-level comparison."""
    fam = powerset_family(g)
    _require_phi_hypotheses(fam)
    bnd = boundary_paths(g, max_len, max_cycle)
    spec = tight_spectrum(fam, max_len, max_cycle)
    images, collisions = {}, []
    for path in bnd.all_points():
        key = boundary_to_filter(fam, path).canonical_key()
        if key in images:
            collisions.append(path)
        images[key] = path
    spec_keys = {d.canonical_key(): d for d in spec.all_points()}
    unmatched_boundary = tuple(str(images[k]) for k in sorted(set(images) - set(spec_keys)))
    unmatched_spectrum = tuple(spec_keys[k].format() for k in sorted(set(spec_keys) - set(images)))
    bijective = not collisions and not unmatched_boundary and not unmatched_spectrum
    return PhiReport(
        bijective,
        bnd,
        spec,
        unmatched_boundary,
        unmatched_spectrum,
        tuple(str(p) for p in collisions),
    )


def _phi_certified(graph):
    """Whether the transition graph built for a left-resolving powerset
    space is its edge graph under Phi, checked in one pass over the nodes:

    - the nodes that letter b enters are exactly the singletons of r(b), so
      the walk system's start items are the images (label(e), {dst(e)}) of the
      edges e;
    - (R, {u}) -b-> (r(R, b), {v}) is an arc exactly when u -b-> v is an edge.

    Then e |-> (label(e), {dst(e)}) is one to one (left resolution) and
    carries the boundary's walk system onto the transition graph's, so Phi
    matches the boundary with the tight spectrum one for one, at every
    bound.
    """
    g = graph.fam.graph
    entered = {item for item, _ in graph._entries()}
    if entered != {(e.label, frozenset((e.dst,))) for e in g.edges}:
        return False
    ranges = {}
    for node in graph.nodes:
        if len(node.atom) != 1:
            return False
        (u,) = node.atom
        expected = set()
        for e in g.edges_from(u):
            key = (node.range_set, e.label)
            if key not in ranges:
                ranges[key] = g.step(*key)
            expected.add((e.label, UTGNode(ranges[key], frozenset((e.dst,)))))
        arcs = graph.successors(node)
        if len(arcs) != len(expected) or set(arcs) != expected:
            return False
    return True


def _certified_counts(fam, max_len, max_cycle):
    """The four numbers of ``compare``'s counts line when the Phi certificate
    holds and both sides count alike, so that Phi is a bijection between the
    bounded boundary and the bounded tight spectrum of the powerset space
    ``fam``; None otherwise, when only the listing can name the unmatched
    points.  Each side is counted off its own walk system."""
    _require_phi_hypotheses(fam)
    graph = UltrafilterTransitionGraph(fam)
    if not _phi_certified(graph):
        return None
    bnd = _boundary_counts(fam.graph, max_len, max_cycle)[:2]
    spec = _spectrum_counts(graph, max_len, max_cycle)[:2]
    return bnd + spec if bnd == spec else None


class CoverCertificate(namedtuple("CoverCertificate", "element parts")):
    """A finite cover of an idempotent by idempotents with the same word.

    The parts lie below the middle set and union to it exactly; the union
    law for relative ranges then makes them a cover of everything below."""

    __slots__ = ()

    def __str__(self):
        return "cover of %s by %s" % (
            self.element,
            " ".join(format_vset(p) for p in self.parts),
        )


def union_cover(fam, x, parts):
    """Certify that the parts cover the idempotent ``x``: each part must be a
    nonempty algebra member inside the middle set and their union must be the
    whole middle set.  Rejection carries the uncovered residue."""
    if x.is_zero or not is_idempotent(x):
        raise DomainError("covers are formed for nonzero idempotents")
    algebra = fam.algebra(x.alpha)
    clean = []
    for p in parts:
        p = frozenset(p)
        if not p:
            raise DomainError("cover parts must be nonzero")
        if p not in algebra or not p <= x.vset:
            raise DomainError(
                "part %s is not an algebra member below %s"
                % (format_vset(p), format_vset(x.vset))
            )
        clean.append(p)
    union = frozenset().union(*clean)
    if union != x.vset:
        raise CoverError(
            "parts do not cover %s" % format_vset(x.vset), residue=x.vset - union
        )
    return CoverCertificate(x, tuple(sorted(set(clean), key=vkey)))


def _coarsest_nonmember_partition(algebra, gen, vset):
    """Partition ``vset`` into algebra atoms and greedily merge parts as long
    as the merge stays outside the filter generated by ``gen``.  Returns None
    when no all-outside partition exists from atoms."""
    atoms = [a for a in algebra.atoms if a <= vset]
    if any(gen <= a for a in atoms) or frozenset().union(*atoms) != vset:
        return None
    parts = sorted(atoms, key=vkey)
    while True:
        pair = next(((i, j) for i in range(len(parts)) for j in range(i + 1, len(parts))
                     if not gen <= parts[i] | parts[j]), None)
        if pair is None:
            return tuple(parts)
        i, j = pair
        parts[i] = parts[i] | parts.pop(j)
        parts.sort(key=vkey)


def refute_tightness(fam, family, search_depth):
    """Search for a member of the filter together with a union cover none of
    whose parts belongs to the filter; such a pair witnesses non-tightness.

    Sound but incomplete: returning None proves nothing.  Members are tried
    at each level from the largest set down; the certificate is the coarsest
    canonical partition into algebra elements outside the filter.
    """
    if not family.is_complete():
        raise DomainError("refutation is about filters in E(S), i.e. complete towers")
    depth = search_depth if family.is_lasso else min(search_depth, len(family.word))
    for n in range(depth + 1):
        gen = family.gen_at(n)
        if gen is None:
            continue
        algebra = family.algebra_at(n)
        word = family.word_prefix(n)
        members = sorted(
            (a for a in algebra.elements if gen <= a),
            key=lambda a: (-len(a), vkey(a)),
        )
        for vset in members:
            parts = _coarsest_nonmember_partition(algebra, gen, vset)
            if parts is None:
                continue
            x = make_element(fam, word, vset, word)
            return x, union_cover(fam, x, parts)
    return None
