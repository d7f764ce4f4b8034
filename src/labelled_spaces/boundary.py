"""Boundary path spaces of finite directed graphs.

The boundary consists of all infinite paths plus the finite paths (including
single vertices) ending at a singular vertex.  On a finite graph the singular
vertices are exactly the sinks.  Paths are the walks of a walk system on the
edges (``transition._Walks``): finite paths end at a sink, and infinite ones
are listed as canonical lassos.  The boundary and its isolated points are
counted exactly first, and a listing past ``LISTING_BUDGET`` points is
refused.  A branching-cycle flag reports when some strongly connected
component carries two distinct cycles, in which case the lassos are a strict
subset of all infinite paths.
"""

from collections import namedtuple

from .errors import DomainError
from .graph import singular_vertices
from .transition import (
    _refuse_past_budget,
    _Walks,
    has_branching_cycles,
    strongly_connected_components,
)
from .util import canonical_lasso


class FinitePath(namedtuple("FinitePath", "base edges")):
    """A finite boundary path: an edge sequence, or a bare vertex when empty."""

    __slots__ = ()

    @property
    def terminal(self):
        return self.edges[-1].dst if self.edges else self.base

    @property
    def source(self):
        return self.edges[0].src if self.edges else self.base

    def labels(self):
        return tuple(e.label for e in self.edges)

    def sort_key(self):
        return (0, len(self.edges), self.base, tuple(e.eid for e in self.edges))

    def __str__(self):
        if not self.edges:
            return self.base
        bits = [self.edges[0].src]
        for e in self.edges:
            bits.append("-[%s]%s-> %s" % (e.eid, e.label, e.dst))
        return " ".join(bits)


class InfinitePath(namedtuple("InfinitePath", "prefix cycle")):
    """An eventually periodic infinite path in canonical lasso form."""

    __slots__ = ()

    def labels(self):
        return (
            tuple(e.label for e in self.prefix),
            tuple(e.label for e in self.cycle),
        )

    def sort_key(self):
        return (
            1,
            len(self.prefix),
            tuple(e.eid for e in self.prefix),
            len(self.cycle),
            tuple(e.eid for e in self.cycle),
        )

    def __str__(self):
        pre = " ".join("[%s]%s" % (e.eid, e.label) for e in self.prefix)
        cyc = " ".join("[%s]%s" % (e.eid, e.label) for e in self.cycle)
        start = (self.prefix or self.cycle)[0].src
        return "%s %s(%s)^inf" % (start, pre + " " if pre else "", cyc)


def make_finite_path(g, edges=(), base=None):
    """Validated finite boundary path: edges must chain and the terminal
    vertex must be singular."""
    edges = tuple(edges)
    if edges:
        base = edges[0].src
    if base not in g.vertex_set:
        raise DomainError("unknown base vertex %r" % base)
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            raise DomainError("edges do not chain: %s then %s" % (a, b))
    path = FinitePath(base, edges)
    if path.terminal not in singular_vertices(g):
        raise DomainError("finite boundary paths must end at a singular vertex")
    return path


def make_infinite_path(g, prefix, cycle):
    """Validated infinite path; normalizes to the canonical lasso."""
    prefix, cycle = tuple(prefix), tuple(cycle)
    if not cycle:
        raise DomainError("an infinite path needs a nonempty cycle")
    chain = list(prefix) + list(cycle)
    for a, b in zip(chain, chain[1:]):
        if a.dst != b.src:
            raise DomainError("edges do not chain: %s then %s" % (a, b))
    if cycle[-1].dst != cycle[0].src:
        raise DomainError("cycle does not close")
    prefix, cycle = canonical_lasso(prefix, cycle)
    return InfinitePath(prefix, cycle)


class BoundaryReport(namedtuple("BoundaryReport", "finite infinite has_branching_cycles")):
    __slots__ = ()

    def all_points(self):
        return self.finite + self.infinite


def _edge_walks(g, terminals=None):
    """The walk system on the edges of ``g``: the edges out of an edge's
    target may follow it, and a finite walk ends with one of ``terminals``
    (``_Walks``), by default with an edge into a sink, as a finite boundary
    path does.  Edges into vertices from which no walk reaches a cycle or a
    terminal edge are left out, so no walk and no arc read enters them: such
    vertices are peeled off, sinks first, again and again."""
    if terminals is None:
        sing = singular_vertices(g)
        terminals = {e: 0 for e in g.edges if e.dst in sing}
    left = {v: g.out_degree(v) for v in g.vertices}
    peel = [v for v, n in left.items() if not n]
    while peel:
        for e in g.edges_into(peel.pop()):
            if e not in terminals:
                left[e.src] -= 1
                if not left[e.src]:
                    peel.append(e.src)
    return _Walks([(e, e.dst) for e in g.edges if left[e.dst] or e in terminals],
                  lambda v: [(e, e.dst) for e in g.edges_from(v) if left[e.dst] or e in terminals],
                  terminals)


def _boundary_counts(g, max_len, max_cycle, walks=None):
    """The sizes of ``boundary_paths``' finite and infinite lists and the
    steps their points hold, counted off the edge system ``walks`` of ``g``."""
    finite, lassos, steps = (walks or _edge_walks(g)).count(max_len, max_cycle)
    return len(singular_vertices(g)) + finite, lassos, steps


def boundary_paths(g, max_len, max_cycle):
    """All boundary points within the bounds: finite paths of length at most
    ``max_len`` and canonical lassos with prefix at most ``max_len`` and cycle
    at most ``max_cycle``.  Past ``LISTING_BUDGET`` points it raises
    ``InputError`` with their exact number instead."""
    walks = _edge_walks(g)
    finite, lassos, steps = _boundary_counts(g, max_len, max_cycle, walks)
    _refuse_past_budget(finite + lassos, steps,
                        "the boundary up to length %d and cycle %d" % (max_len, max_cycle))
    finite = [FinitePath(v, ()) for v in singular_vertices(g)]
    finite += [FinitePath(edges[0].src, edges) for edges in walks.finite(max_len)]
    return BoundaryReport(
        tuple(sorted(finite, key=FinitePath.sort_key)),
        tuple(sorted((InfinitePath(prefix, cycle)
                      for prefix, cycle in walks.lassos(max_len, max_cycle)),
                     key=InfinitePath.sort_key)),
        has_branching_cycles(g.vertices, tuple((e.src, e.label, e.dst) for e in g.edges)),
    )


def _deterministic_cycles(g):
    """Cycles every vertex of which has out-degree exactly one; such a cycle
    is forced, so any path entering it is isolated in the boundary.  They are
    the strongly connected components in which every vertex has one edge and
    that edge stays inside, each walked from its least vertex."""
    out = []
    comps = strongly_connected_components(g.vertices, [(e.src, e.label, e.dst) for e in g.edges])
    for comp, _ in sorted(comps, key=lambda c: min(c[0])):
        if all(g.out_degree(v) == 1 and g.edges_from(v)[0].dst in comp for v in comp):
            trail = [g.edges_from(min(comp))[0]]
            while trail[-1].dst != trail[0].src:
                trail.append(g.edges_from(trail[-1].dst)[0])
            out.append(tuple(trail))
    return out


def isolated_points(g, max_prefix):
    """The isolated points of the boundary, up to the prefix bound.

    Finite boundary paths are always isolated (their cylinder is a
    singleton).  An infinite path is isolated exactly when some prefix lands
    in a cone where every reachable vertex has out-degree one, i.e. when its
    cycle is deterministic; representatives are listed with prefixes of
    length at most ``max_prefix``.  A (chain, rotation) pair is a canonical
    lasso exactly when the chain is empty or enters the cycle from off it,
    so each point is built once from a walk into a sink, or into a cycle
    from off it with the rotation there as its terminal steps.  Past
    ``LISTING_BUDGET`` points it raises ``InputError`` with their exact
    number instead.
    """
    sing = singular_vertices(g)
    rotation = {c[p].src: c[p:] + c[:p] for c in _deterministic_cycles(g) for p in range(len(c))}
    walks = _edge_walks(g, {e: len(rotation.get(e.dst, ())) for e in g.edges if e.dst in sing
                            or e.dst in rotation and e.src not in rotation})
    paths, _, steps = walks.count(max_prefix, 0)
    _refuse_past_budget(len(sing) + len(rotation) + paths,
                        steps + sum(map(len, rotation.values())),
                        "the isolated part of the boundary up to prefix %d" % max_prefix)
    finite = [FinitePath(v, ()) for v in sing]
    infinite = [InfinitePath((), r) for r in rotation.values()]
    for edges in walks.finite(max_prefix):
        if edges[-1].dst in sing:
            finite.append(FinitePath(edges[0].src, edges))
        else:
            infinite.append(InfinitePath(edges, rotation[edges[-1].dst]))
    return (tuple(sorted(finite, key=FinitePath.sort_key))
            + tuple(sorted(infinite, key=InfinitePath.sort_key)))
