"""Boundary path spaces of finite directed graphs.

The boundary consists of all infinite paths plus the finite paths (including
single vertices) ending at a singular vertex.  On a finite graph the singular
vertices are exactly the sinks.  Finite paths are edge chains grown backwards
from each sink (``_backward_chains``, the one finite-path walker), so every
chain grown is a path.  Infinite paths are listed as canonical edge lassos
by the same walker as the transition graph's lassos: each canonical lasso
within the bounds is met once, so the cost follows the output.  The boundary
and its isolated points are counted exactly first, off the numbers of
chains into each vertex and the lasso counter, and a listing past
``LISTING_BUDGET`` points is refused.  A branching-cycle flag reports when
some strongly connected component carries two distinct cycles, in which
case the lassos are a strict subset of all infinite paths.
"""

from collections import deque, namedtuple

from .errors import DomainError
from .graph import singular_vertices
from .transition import (
    _canonical_lassos,
    _count_canonical_lassos,
    _refuse_past_budget,
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


def _finite_boundary_paths(g, max_len):
    """The finite boundary paths of at most ``max_len`` edges: each sink and
    each edge chain into it, grown backwards from it, so every chain grown
    is a path found."""
    return tuple(sorted(
        (FinitePath(chain[0].src if chain else s, chain)
         for s in singular_vertices(g) for chain in _backward_chains(g, s, max_len)),
        key=FinitePath.sort_key,
    ))


def _backward_chains(g, head, max_len):
    """Every edge chain of length at most ``max_len`` that ends at ``head``,
    shortest first, starting with the empty chain."""
    chains = [()]
    yield ()
    for _ in range(max_len):
        chains = [(e,) + c for c in chains for e in g.edges_into(c[0].src if c else head)]
        yield from chains


def _chain_counts(g, max_len):
    """Yields in_0, ..., in_max_len: in_k[v] counts the chains of k edges
    that end at v."""
    ins = dict.fromkeys(g.vertices, 1)
    yield ins
    for _ in range(max_len):
        ins = {v: sum(ins[e.src] for e in g.edges_into(v)) for v in g.vertices}
        yield ins


def _count_finite_boundary_paths(g, max_len):
    """``len(_finite_boundary_paths(g, max_len))``, counted: the chains of at
    most ``max_len`` edges into the sinks."""
    sing = singular_vertices(g)
    return sum(ins[v] for ins in _chain_counts(g, max_len) for v in sing)


def _lasso_steps(g):
    """The lasso walker's (starts, arcs) on the edges: an edge's successors
    are the edges out of its target.  Only edges whose target can reach a
    cycle lie on an infinite path, so no other edge is walked."""
    live = _cycle_reachers(g)
    return (
        [(e, e.dst) for e in g.edges if e.dst in live],
        lambda v: [(e, e.dst) for e in g.edges_from(v) if e.dst in live],
    )


def _cycle_reachers(g):
    """The vertices from which a cycle can be reached: those left after
    peeling off, again and again, every vertex whose edges all lead to
    peeled ones (sinks first)."""
    left = {v: g.out_degree(v) for v in g.vertices}
    peel = [v for v, n in left.items() if not n]
    while peel:
        for e in g.edges_into(peel.pop()):
            left[e.src] -= 1
            if not left[e.src]:
                peel.append(e.src)
    return {v for v, n in left.items() if n}


def _infinite_boundary_paths(g, max_len, max_cycle):
    """The canonical edge lassos within the bounds, each met once by the
    transition graph's lasso walker (an edge's successors depend on its
    target alone)."""
    lassos = _canonical_lassos(*_lasso_steps(g), max_len, max_cycle)
    return tuple(sorted(
        (make_infinite_path(g, prefix, cycle) for prefix, cycle in lassos),
        key=InfinitePath.sort_key,
    ))


def _boundary_counts(g, max_len, max_cycle):
    """The sizes of ``boundary_paths``' finite and infinite lists, counted."""
    return (_count_finite_boundary_paths(g, max_len),
            _count_canonical_lassos(*_lasso_steps(g), max_len, max_cycle))


def boundary_paths(g, max_len, max_cycle):
    """All boundary points within the bounds: finite paths of length at most
    ``max_len`` and canonical lassos with prefix at most ``max_len`` and cycle
    at most ``max_cycle``.  Past ``LISTING_BUDGET`` points it raises
    ``InputError`` with their exact number instead."""
    _refuse_past_budget(sum(_boundary_counts(g, max_len, max_cycle)),
                        "the boundary up to length %d and cycle %d" % (max_len, max_cycle))
    return BoundaryReport(
        _finite_boundary_paths(g, max_len),
        _infinite_boundary_paths(g, max_len, max_cycle),
        has_branching_cycles(g.vertices, tuple((e.src, e.label, e.dst) for e in g.edges)),
    )


def _deterministic_cycles(g):
    """Cycles every vertex of which has out-degree exactly one; such a cycle
    is forced, so any path entering it is isolated in the boundary.  They are
    the strongly connected components in which every vertex has one edge and
    that edge stays inside, each walked from its least vertex."""
    out = []
    comps = strongly_connected_components(g.vertices, [(e.src, e.label, e.dst) for e in g.edges])
    for comp in sorted(comps, key=min):
        if all(g.out_degree(v) == 1 and g.edges_from(v)[0].dst in comp for v in comp):
            trail = [g.edges_from(min(comp))[0]]
            while trail[-1].dst != trail[0].src:
                trail.append(g.edges_from(trail[-1].dst)[0])
            out.append(tuple(trail))
    return out


def _count_isolated_points(g, max_prefix, rotations):
    """``len(isolated_points(g, max_prefix))``, counted: the finite boundary
    paths, and the chains of ``max_prefix`` edges into each rotation's head.
    An isolated infinite path whose canonical prefix fits the bound runs
    round its deterministic cycle from edge ``max_prefix`` on, so it is, one
    for one, its first ``max_prefix`` edges and the rotation they end at."""
    last = deque(_chain_counts(g, max_prefix), maxlen=1).pop()
    return _count_finite_boundary_paths(g, max_prefix) + sum(last[r[0].src] for r in rotations)


def isolated_points(g, max_prefix):
    """The isolated points of the boundary, up to the prefix bound.

    Finite boundary paths are always isolated (their cylinder is a
    singleton).  An infinite path is isolated exactly when some prefix lands
    in a cone where every reachable vertex has out-degree one, i.e. when its
    cycle is deterministic; representatives are listed with prefixes of
    length at most ``max_prefix``.  The cycle is simple, so a (chain, rotation)
    pair is a canonical lasso, built once, exactly when the chain is empty or
    does not end with the rotation's last edge.  Past ``LISTING_BUDGET``
    points it raises ``InputError`` with their exact number instead.
    """
    rotations = [c[p:] + c[:p] for c in _deterministic_cycles(g) for p in range(len(c))]
    _refuse_past_budget(_count_isolated_points(g, max_prefix, rotations),
                        "the isolated part of the boundary up to prefix %d" % max_prefix)
    infinite = [
        make_infinite_path(g, chain, rotated)
        for rotated in rotations
        for chain in _backward_chains(g, rotated[0].src, max_prefix)
        if not chain or chain[-1] != rotated[-1]
    ]
    finite = _finite_boundary_paths(g, max_prefix)
    return finite + tuple(sorted(infinite, key=InfinitePath.sort_key))
