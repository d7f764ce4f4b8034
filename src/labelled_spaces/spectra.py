"""The tight spectrum, its boundary-path description, covers and refutation.

Tight filters come in two kinds: the infinite-type ultrafilters (listed as
lassos through the ultrafilter transition graph) and the finite-type towers
whose deepest filter is an ultrafilter with its generator inside the sinks
(a finite graph has no infinite emitters).
"""

from collections import namedtuple

from .boundary import FinitePath, InfinitePath, boundary_paths
from .errors import CoverError, DomainError
from .family import powerset_family
from .filters import (
    FiniteFilterFamily,
    LassoFilterFamily,
    _is_sink_ultrafilter,
    is_es_ultrafilter,
    ultrafilters,
)
from .graph import is_left_resolving, labelled_words_up_to
from .semigroup import make_element
from .transition import UltrafilterTransitionGraph
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
    """
    fam.require_complements()
    fam.require_wlr()
    finite = []
    for word in labelled_words_up_to(fam.graph, max_word_len):
        for flt in ultrafilters(fam.algebra(word)):
            if is_tight_finite_type(fam, word, flt):
                finite.append(FiniteFilterFamily.from_top(fam, word, flt.gen))
    graph = UltrafilterTransitionGraph(fam)
    infinite = graph.lassos(max_word_len, max_cycle_len)
    return TightSpectrum(
        tuple(sorted(finite, key=FiniteFilterFamily.sort_key)),
        infinite,
        graph.has_branching_cycles(),
    )


def _require_phi_hypotheses(fam):
    if not is_left_resolving(fam.graph):
        raise DomainError("the labelled graph must be left resolving")
    if len(fam.sets) != 1 << len(fam.graph.vertices):
        raise DomainError("the family must be the full powerset")


def boundary_to_filter(fam, path):
    """The tower of singleton-generated filters along a boundary path.

    Level n is generated by the range vertex of the path's n-th edge; for a
    left resolving graph with the powerset family this lands in the tight
    spectrum and is a bijection onto it.
    """
    _require_phi_hypotheses(fam)
    if isinstance(path, FinitePath):
        word = path.labels()
        gens = [frozenset([path.source])]
        at = path.source
        for e in path.edges:
            at = e.dst
            gens.append(frozenset([at]))
        return FiniteFilterFamily(fam, word, gens)
    if isinstance(path, InfinitePath):
        prefix_labels, cycle_labels = path.labels()
        prefix_gens = [frozenset([e.dst]) for e in path.prefix]
        cycle_gens = [frozenset([e.dst]) for e in path.cycle]
        return LassoFilterFamily(fam, prefix_labels, cycle_labels, prefix_gens, cycle_gens)
    raise DomainError("expected a boundary path, got %r" % (path,))


class PhiReport(namedtuple("PhiReport", "bijective boundary spectrum unmatched_boundary "
                                        "unmatched_spectrum not_injective")):
    __slots__ = ()

    def counts_line(self):
        return "boundary: %d finite + %d infinite | spectrum: %d finite + %d infinite" % (
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
    images = {}
    collisions = []
    for path in bnd.all_points():
        fam_img = boundary_to_filter(fam, path)
        key = fam_img.canonical_key()
        if key in images:
            collisions.append(path)
        images[key] = path
    spec_keys = {d.canonical_key(): d for d in spec.all_points()}
    unmatched_boundary = tuple(
        str(images[k]) for k in sorted(set(images) - set(spec_keys))
    )
    unmatched_spectrum = tuple(
        spec_keys[k].format() for k in sorted(set(spec_keys) - set(images))
    )
    bijective = not collisions and not unmatched_boundary and not unmatched_spectrum
    return PhiReport(
        bijective,
        bnd,
        spec,
        unmatched_boundary,
        unmatched_spectrum,
        tuple(str(p) for p in collisions),
    )


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
    from .semigroup import is_idempotent

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
    union = frozenset().union(*clean) if clean else frozenset()
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
    if any(gen <= a for a in atoms):
        return None
    union = frozenset().union(*atoms) if atoms else frozenset()
    if union != vset:
        return None
    parts = sorted(atoms, key=vkey)
    merged = True
    while merged:
        merged = False
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                candidate = parts[i] | parts[j]
                if not gen <= candidate:
                    parts[i] = candidate
                    del parts[j]
                    parts.sort(key=vkey)
                    merged = True
                    break
            if merged:
                break
    return tuple(parts)


def refute_tightness(fam, family, search_depth):
    """Search for a member of the filter together with a union cover none of
    whose parts belongs to the filter; such a pair witnesses non-tightness.

    Sound but incomplete: returning None proves nothing.  Members are tried
    at each level from the largest set down; the certificate is the coarsest
    canonical partition into algebra elements outside the filter.
    """
    if not family.is_complete():
        raise DomainError("refutation is about filters in E(S), i.e. complete towers")
    if family.is_lasso:
        levels = range(search_depth + 1)
    else:
        levels = range(min(search_depth, len(family.word)) + 1)
    for n in levels:
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
