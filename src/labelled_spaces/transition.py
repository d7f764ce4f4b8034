"""The finite transition graph certifying all infinite-type ultrafilters.

Nodes pair a reachable range set R with an atom of the algebra below R; an
edge (R, F) -b-> (R', F') says that R' = r(R, b) and that the preimage of F'
under r(., b) is F.  Infinite directed paths through the graph, entered with
a letter whose range matches the first node, are exactly the towers whose
levels are all ultrafilters, i.e. the infinite-type ultrafilters.

Requires the family to be closed under relative complements; for other
families the maximal-family search over finite words is the supported route.
"""

from dataclasses import dataclass

from .filters import LassoFilterFamily, _preimage_gen
from .graph import range_of
from .util import canonical_lasso, format_vset, vkey


@dataclass(frozen=True)
class UTGNode:
    range_set: frozenset
    atom: frozenset

    def sort_key(self):
        return (vkey(self.range_set), vkey(self.atom))

    def __str__(self):
        return "(%s ; %s)" % (format_vset(self.range_set), format_vset(self.atom))


class UltrafilterTransitionGraph:
    def __init__(self, fam):
        fam.require_complements()
        fam.require_wlr()
        self.fam = fam
        g = fam.graph
        ranges = set()
        frontier = [range_of(g, (b,)) for b in g.alphabet]
        frontier = [r for r in frontier if r]
        while frontier:
            nxt = []
            for r in frontier:
                if r in ranges:
                    continue
                ranges.add(r)
                for b in g.alphabet:
                    stepped = g.step(r, b)
                    if stepped and stepped not in ranges:
                        nxt.append(stepped)
            frontier = nxt
        self.ranges = tuple(sorted(ranges, key=vkey))
        nodes = {
            r: tuple(UTGNode(r, atom) for atom in sorted(fam.algebra_over(r).atoms, key=vkey))
            for r in self.ranges
        }
        self.nodes = tuple(n for r in self.ranges for n in nodes[r])
        edges = []
        for r in self.ranges:
            source = fam.algebra_over(r)
            for b in g.alphabet:
                for dst in nodes.get(g.step(r, b), ()):
                    pre = _preimage_gen(fam, source, dst.atom, (b,))
                    if pre in source.atoms:
                        edges.append((UTGNode(r, pre), b, dst))
        self.edges = tuple(
            sorted(edges, key=lambda e: (e[0].sort_key(), e[1], e[2].sort_key()))
        )
        self._succ = {}
        self._pred = {}
        for src, b, dst in self.edges:
            self._succ.setdefault(src, []).append((b, dst))
            self._pred.setdefault(dst, []).append((b, src))

    def successors(self, node):
        return tuple(self._succ.get(node, ()))

    def predecessors(self, node):
        return tuple(self._pred.get(node, ()))

    def entry_letters(self, node):
        """Letters that may start a word at this node: their range is the
        node's range set."""
        g = self.fam.graph
        return tuple(b for b in g.alphabet if range_of(g, (b,)) == node.range_set)

    def has_branching_cycles(self):
        """True when some strongly connected component carries two distinct
        cycles; then the infinite paths are not all eventually periodic and
        lassos list only a subset."""
        return has_branching_cycles(self.nodes, self.edges)

    def lassos(self, max_prefix, max_cycle):
        """All infinite-type ultrafilter towers whose canonical lasso fits the
        bounds: prefix length <= max_prefix, cycle length <= max_cycle.

        The level data of a tower is its (letter, generator) sequence; the
        node sequence can settle with a longer period (the range component may
        oscillate), so the walk enumeration uses widened internal bounds and
        filters by the canonical size afterwards.
        """
        factor = max(1, len(self.ranges))
        node_cycle_bound = max_cycle * factor
        node_prefix_bound = max_prefix + max_cycle * factor
        found = {}

        def consider(pairs_prefix, pairs_cycle):
            prefix, cycle = canonical_lasso(
                [(b, n.atom) for b, n in pairs_prefix],
                [(b, n.atom) for b, n in pairs_cycle],
            )
            if len(prefix) > max_prefix or len(cycle) > max_cycle:
                return
            family = LassoFilterFamily(
                self.fam,
                tuple(b for b, _ in prefix),
                tuple(b for b, _ in cycle),
                tuple(g for _, g in prefix),
                tuple(g for _, g in cycle),
            )
            found.setdefault(family.canonical_key(), family)

        for cycle in self._closed_walks(node_cycle_bound):
            entry = cycle[0][1]
            entry_letter = cycle[0][0]
            if range_of(self.fam.graph, (entry_letter,)) == entry.range_set:
                consider((), cycle)
            for prefix in self._prefixes(entry, cycle[0][0], node_prefix_bound):
                consider(prefix, cycle)
        return tuple(sorted(found.values(), key=LassoFilterFamily.sort_key))

    def _closed_walks(self, bound):
        """Closed walks as (letter, node) level sequences: the pair at each
        position carries the letter that enters that node, so a walk
        n0 -b1-> n1 ... -b0-> n0 yields [(b0, n0), (b1, n1), ...]."""
        walks = []

        def extend(start, trail):
            for b, nxt in self.successors(trail[-1][1] if trail else start):
                step = (b, nxt)
                if nxt == start:
                    walks.append(trail + [step])
                if len(trail) + 1 < bound:
                    extend(start, trail + [step])

        for start in self.nodes:
            extend(start, [])
        fixed = []
        for walk in walks:
            # rotate so the wrap-around letter sits on the start node
            fixed.append(tuple([walk[-1]] + walk[:-1]) if len(walk) > 1 else tuple(walk))
        return fixed

    def _prefixes(self, entry, entry_letter, bound):
        """Backward chains of (letter, node) pairs ending just before the
        cycle entry; the first pair's letter must be able to start a word."""
        results = []

        def extend(chain):
            head = chain[0][1] if chain else entry
            need = chain[0][0] if chain else entry_letter
            for b, prev in self.predecessors(head):
                if b != need:
                    continue
                for first in self.entry_letters(prev):
                    results.append([(first, prev)] + chain)
                if len(chain) + 1 < bound:
                    for b2, _ in self._pred.get(prev, ()):
                        extend([(b2, prev)] + chain)

        extend([])
        deduped = []
        seen = set()
        for r in results:
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                deduped.append(key)
        return deduped

    def format_listing(self):
        lines = ["nodes:"]
        for n in self.nodes:
            lines.append("  %s" % n)
        lines.append("edges (level orientation: source at level n, target at level n+1):")
        for src, b, dst in self.edges:
            lines.append("  %s -%s-> %s" % (src, b, dst))
        lines.append("edges (preimage-map orientation: target determines source):")
        for src, b, dst in sorted(
            self.edges, key=lambda e: (e[2].sort_key(), e[1], e[0].sort_key())
        ):
            lines.append("  %s -%s-> %s" % (dst, b, src))
        lines.append(
            "branching cycles: %s" % ("yes" if self.has_branching_cycles() else "no")
        )
        return "\n".join(lines)


def strongly_connected_components(nodes, edges):
    """Tarjan's algorithm over explicit node/edge lists."""
    succ = {}
    for src, _, dst in edges:
        succ.setdefault(src, []).append(dst)
    index = {}
    low = {}
    stack = []
    on_stack = set()
    out = []
    counter = [0]

    def visit(v):
        work = [(v, iter(succ.get(v, ())))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)

    for v in nodes:
        if v not in index:
            visit(v)
    return out


def has_branching_cycles(nodes, edges):
    """Whether some strongly connected component has more internal edges
    than nodes, i.e. carries two distinct cycles."""
    for comp in strongly_connected_components(nodes, edges):
        if sum(1 for src, _, dst in edges if src in comp and dst in comp) > len(comp):
            return True
    return False


def ultrafilter_transition_graph(fam):
    """Build the transition graph; raises for families that are not closed
    under relative complements."""
    return UltrafilterTransitionGraph(fam)
