"""The finite transition graph certifying all infinite-type ultrafilters,
and the walk system (``_Walks``) listing its walks and the boundary paths.

Nodes pair a reachable range set R with an atom A of the algebra below R,
and (R, A) -b-> (r(R, b), A') is an arc exactly when A' <= r(A, b): R is the
disjoint union of its atoms and, by weak left resolvability, r keeps them
disjoint, so up(A) is the preimage of up(A') under r(., b) for exactly one A.
Infinite directed paths through the graph, entered with a letter whose range
matches the first node, are exactly the towers whose levels are all
ultrafilters, i.e. the infinite-type ultrafilters.

Requires the family to be closed under relative complements; for other
families the maximal-family search over finite words is the supported route.
"""

from collections import Counter, namedtuple
from functools import cached_property
from itertools import accumulate
from math import inf

from .errors import InputError
from .filters import LassoFilterFamily
from .graph import range_of, sinks
from .util import format_vset, vkey


class UTGNode(namedtuple("UTGNode", "range_set atom")):
    __slots__ = ()

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
        # the range set a word starting with each letter enters at level 1
        self._first = {b: range_of(g, (b,)) for b in g.alphabet}
        # each reachable range with its nonempty ranges along single letters
        succ = {}
        todo = [r for r in self._first.values() if r]
        while todo:
            r = todo.pop()
            if r not in succ:
                succ[r] = [(b, s) for b in g.alphabet if (s := g.step(r, b))]
                todo.extend(s for _, s in succ[r])
        self.ranges = tuple(sorted(succ, key=vkey))
        self._over = nodes = {
            r: tuple(UTGNode(r, atom) for atom in sorted(fam.algebra_over(r).atoms, key=vkey))
            for r in self.ranges
        }
        self.nodes = tuple(n for r in self.ranges for n in nodes[r])
        edges = []
        for r in self.ranges:
            for b, stepped in succ[r]:
                for src in nodes[r]:
                    reach = g.step(src.atom, b)
                    edges.extend((src, b, dst) for dst in nodes[stepped] if dst.atom <= reach)
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
        return tuple(b for b, r in self._first.items() if r == node.range_set)

    def has_branching_cycles(self):
        """True when some strongly connected component carries two distinct
        cycles; then the infinite paths are not all eventually periodic and
        lassos list only a subset."""
        return has_branching_cycles(self.nodes, self.edges)

    def lassos(self, max_prefix, max_cycle):
        """All infinite-type ultrafilter towers whose canonical lasso fits the
        bounds: prefix length <= max_prefix, cycle length <= max_cycle.

        A tower's level data is its (letter, atom) sequence, a canonical
        lasso of the graph's walk system (``_walks``) whose every level is an
        atom of its algebra, and level 0 is read off its first item
        (``_level0``): one tower is built, unchecked, for each lasso returned.
        """
        level0, towers = self._level0(), []
        for prefix, cycle in self._walks.lassos(max_prefix, max_cycle):
            walk = prefix + cycle
            towers.append(LassoFilterFamily._unchecked(
                self.fam, tuple(b for b, _ in walk),
                (level0.get(walk[0]),) + tuple(a for _, a in walk), len(prefix)))
        return tuple(sorted(towers, key=LassoFilterFamily.sort_key))

    def _level0(self):
        """The level-0 generators of the towers, keyed by the start item
        (b, A1) they enter with; an item is missing when level 0 is empty.
        By the arc rule (module docstring) over the family's own atoms, the
        generator is the atom a with A1 <= r(a, b)."""
        g, level0 = self.fam.graph, {}
        for b, r in self._first.items():
            for a in self.fam.report.atoms:
                reach = g.step(a, b)
                level0.update(((b, n.atom), a) for n in self._over.get(r, ()) if n.atom <= reach)
        return level0

    def _entries(self):
        """The (letter, atom) items a tower enters with, each with its node:
        a word enters with a letter whose range is the node's range set."""
        return [((b, n.atom), n) for b, r in self._first.items() for n in self._over.get(r, ())]

    @cached_property
    def _walks(self):
        """The walk system of the towers: (letter, atom) items, whose followers
        depend on the atom alone (arc rule), ending finite towers in the sinks."""
        sink = sinks(self.fam.graph)
        return _Walks(self._entries(),
                      lambda node: [((b, dst.atom), dst) for b, dst in self.successors(node)],
                      {(b, n.atom): 0 for n in self.nodes if n.atom <= sink for b in self._first})

    def format_listing(self):
        lines = ["nodes:"]
        for n in self.nodes:
            lines.append("  %s" % (n,))
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
    """Kosaraju's algorithm over explicit node/edge lists: a depth-first
    search lists the nodes as it finishes them, and each node taken in the
    reverse of that order, if not yet placed, collects the unplaced nodes
    that reach it into one component, listed with its internal edge count:
    sources first, so no edge leads to an earlier component."""
    succ, pred = {}, {}
    for src, _, dst in edges:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    finished, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
            else:
                work.pop()
                finished.append(node)
    out, placed = [], set()
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp, todo, internal = {root}, [root], 0
        while todo:
            for w in pred.get(todo.pop(), ()):
                if w not in placed:
                    placed.add(w)
                    comp.add(w)
                    todo.append(w)
                internal += w in comp
        out.append((comp, internal))
    return out


def has_branching_cycles(nodes, edges):
    """Whether some strongly connected component has more internal edges
    than nodes, i.e. carries two distinct cycles."""
    return any(k > len(comp) for comp, k in strongly_connected_components(nodes, edges))


class _Walks:
    """The walk system behind the boundary, its isolated points and the tight
    spectrum: ``starts`` are the (label, state) steps a walk may begin with,
    ``arcs(state)`` the steps that may follow a step into ``state``, and
    ``terminals`` maps each label a finite walk may end with to the steps
    its point holds past the walk (an isolated lasso's cycle, else 0).
    Which labels may follow a step must depend on its label alone, so a walk
    is its label sequence.  ``arcs`` is called once per state, only when an
    answer needs it.  A listing grows one shared path depth first, builds a
    tuple only for a walk it outputs, and prunes by the steps left.
    """

    def __init__(self, starts, arcs, terminals):
        self._steps, self._arcs, self._terminals = starts, arcs, terminals

    @cached_property
    def _graph(self):
        """(labels, after, starts): the reachable labels, each one's
        followers and the start labels, as label numbers."""
        state_of, out = {}, {}
        queue = list(self._steps)
        for label, state in queue:  # the queue grows as states are met
            if label not in state_of:
                state_of[label] = state
                if state not in out:
                    out[state] = self._arcs(state)
                    queue.extend(out[state])
        number = {label: x for x, label in enumerate(state_of)}
        after = [tuple(number[y] for y, _ in out[state]) for state in state_of.values()]
        return list(state_of), after, [number[label] for label, _ in self._steps]

    @cached_property
    def _loops(self):
        """(live, inner, bound, longest, period) for the lassos: ``live[x]``
        holds the followers of x that can reach a cycle, or is None.  A label
        x on a cycle has the arcs ``inner[x]`` of its strongly connected
        component and ``bound[x]``, the longest primitive cycle through x:
        the component's size when it carries one cycle, else None, and at
        most ``longest``.  ``period[x]`` is that size when the component is
        the cycle of a forced cone, where every label has one live follower."""
        after = self._graph[1]
        live, inner, bound, period = [None] * len(after), {}, {}, {}
        for c, arcs in reversed(strongly_connected_components(  # sinks first
                range(len(after)), [(x, None, y) for x, ys in enumerate(after) for y in ys])):
            if arcs:  # c carries a cycle
                rows = {x: dict.fromkeys((y for y in after[x] if y in c), 1) for x in c}
                inner.update(dict.fromkeys(c, rows))
                bound.update(dict.fromkeys(c, len(c) if arcs == len(c) else None))
            for x in c:
                live[x] = tuple(y for y in after[x] if arcs and y in c or live[y]) or None
            if arcs and all(len(live[x]) == 1 for x in c):
                period.update(dict.fromkeys(c, len(c)))
        # the one clamp of the cycle bound: when no component carries two
        # cycles, no primitive cycle is longer than the largest component
        longest = inf if None in bound.values() else max(bound.values(), default=0)
        return live, inner, bound, longest, period

    @staticmethod
    def _grow(roots, grow):
        """Each walk from ``roots``, met depth first as one shared path list
        that the caller reads before it grows by the labels ``grow(path)``."""
        path, stack = [], [iter(roots)]
        while stack:
            del path[len(stack) - 1:]  # one label per grown iterator
            x = next(stack[-1], None)
            if x is None:
                stack.pop()
                continue
            path.append(x)
            yield path
            stack.append(iter(grow(path)))

    def finite(self, max_len):
        """Every walk of 1 to ``max_len`` labels from a start to a terminal
        label, each once: a walk grows only toward a terminal label within
        reach."""
        if not self._terminals:
            return
        labels, after, starts = self._graph
        # each label's least number of further steps to a terminal label,
        # exact below max_len: no walk needs one farther
        dist = [0 if label in self._terminals else inf for label in labels]
        for _ in range(min(max_len, len(labels))):
            dist = [min([d] + [dist[y] + 1 for y in ys]) for d, ys in zip(dist, after)]

        def grow(path):
            return [y for y in after[path[-1]] if dist[y] < max_len - len(path)]

        for path in self._grow([x for x in starts if dist[x] < max_len], grow):
            if not dist[path[-1]]:
                yield tuple(map(labels.__getitem__, path))

    def lassos(self, max_prefix, max_cycle):
        """Every canonical lasso (prefix, cycle) of labels within the bounds
        that a walk can follow forever, each exactly once.

        Walks of up to max_prefix + max_cycle labels grow through labels that
        can reach a cycle, and each is split every way into a prefix and a
        primitive cycle whose first label may follow its last and whose last
        label differs from the prefix's: the canonical form, which comes from
        exactly one (walk, split).  A walk in a forced cone grows no further
        once it has gone round its cycle: no later split is canonical.
        """
        max_cycle = max_cycle and min(max_cycle, self._loops[3])
        if not max_cycle:
            return
        labels, _, starts = self._graph
        live, inner, bound, _, period = self._loops
        depth = max_prefix + max_cycle

        def grow(path):
            n, x = len(path), path[-1]
            r = period.get(x)
            if n == depth or r and n >= r and path[n - r] == live[x][0]:
                return ()
            if n == depth - 1:
                # its one split will start the cycle at label max_prefix + 1
                return [y for y in live[x] if (path[max_prefix] if max_prefix < n else y) in live[y]]
            if n > max_prefix:
                # the cycle holds label max_prefix + 1: stay in its component,
                # and go round it once when it carries one cycle
                z = path[max_prefix]
                if n >= max_prefix + (bound.get(z) or depth):
                    return ()
                return [y for y in live[x] if y in inner.get(z, ())]
            return live[x]

        label = labels.__getitem__
        for path in self._grow([x for x in starts if live[x]], grow):
            n, x = len(path), path[-1]
            for p in range(max(0, n - max_cycle), min(max_prefix, n - 1) + 1):
                # a primitive cycle has no period d < n - p that divides n - p
                if path[p] in live[x] and (not p or path[p - 1] != x) and not any(
                        path[p + d:] == path[p:n - d] for d in range(1, n - p) if (n - p) % d == 0):
                    yield tuple(map(label, path[:p])), tuple(map(label, path[p:]))

    def count(self, max_len, max_cycle):
        """(finite walks, lassos, steps) of ``finite(max_len)`` and
        ``lassos(max_len, max_cycle)``, counted up to ``_COUNT_CAP``: steps
        are the labels of them all and the terminal steps of the finite
        walks, exact below the cap.

        A lasso is, one for one, a walk of max_len + 1 labels, ending at
        some x, and a primitive closed walk of at most c = max_cycle labels
        from x.  By Möbius inversion (the periodic-point counts of Lind &
        Marcus, *An Introduction to Symbolic Dynamics and Coding*, 1995), x
        has sum over d <= c of M(c // d) * closed_d(x) of these, holding sum
        over d of d * closed_d(x) * S(c // d) labels, with closed_d(x) the
        closed walks of d labels from x, M the Mertens function and S(k) the
        sum of m * mu(m) over m <= k.  They are counted only at the labels
        within max_len arcs of a start, and counting stops at the cap, which
        a closed-walk count bounds from below: at the first x whose closed
        walks reach it and at which a walk of max_len + 1 labels ends, the
        lassos are at the cap.

        Walks are then carried max_len steps: one index gathers them as they
        reach a terminal label, and further indices sum that one, the
        terminal steps, and the walks that end at each x, weighted by its
        primitive closed walks.  A lasso that fits a prefix bound fits every
        larger one, so the last sum is max_len times the lassos less the
        labels of their prefixes.
        """
        max_cycle = max_cycle and min(max_cycle, self._loops[3])
        if not (self._terminals or max_cycle):
            return 0, 0, 0
        labels, after, starts = self._graph
        done, summed, held, prefixed = range(len(labels), len(labels) + 4)
        rows = [dict.fromkeys(ys, 1) for ys in after]
        for x, label in enumerate(labels):
            if label in self._terminals:
                rows[x][done] = 1
                if self._terminals[label]:
                    rows[x][held] = self._terminals[label]
        rows += [{done: 1, summed: 1}, {summed: 1}, {held: 1}, {prefixed: 1}]
        inner, bound = self._loops[1:3] if max_cycle else ({}, {})
        # the sums read only labels within max_len arcs of a start
        near, reached = set(starts), set(starts)
        for _ in range(min(max_len, len(labels))):
            near = {y for x in near for y in after[x]} - reached
            reached |= near
        closed_from, ends = {}, None
        for x in reached & inner.keys():
            walks, closed = {x: 1}, []
            for _ in range(min(max_cycle, bound[x] or max_cycle)):
                walks = _times(walks, inner[x])
                closed.append(walks.get(x, 0))
                if closed[-1] >= _COUNT_CAP:
                    # the lassos reach the cap once a counted walk ends at x
                    if ends is None:
                        ends = _advance(Counter(starts), rows, max_len)
                    if ends.get(x):
                        return ends.get(done, 0), _COUNT_CAP, 0
                    break
            else:
                closed_from[x] = closed
        mertens = _mertens(max(map(len, closed_from.values()), default=0))
        moment = list(accumulate(
            (m * (mertens[m] - mertens[m - 1]) for m in range(1, len(mertens))), initial=0))
        primitive, held_by = {}, {}
        for x, closed in closed_from.items():
            top = len(closed)
            primitive[x] = sum(mertens[top // d] * k for d, k in enumerate(closed, 1) if k)
            held_by[x] = sum(d * k * moment[top // d] for d, k in enumerate(closed, 1) if k)
            if primitive[x]:
                rows[x][prefixed] = primitive[x]
        ends = _advance(Counter(starts), rows, max_len)
        finite = ends.get(done, 0)
        lassos = sum(ends.get(x, 0) * k for x, k in primitive.items())
        steps = (max_len * (finite + lassos) - ends.get(summed, 0) + ends.get(held, 0)
                 - ends.get(prefixed, 0) + sum(ends.get(x, 0) * k for x, k in held_by.items()))
        return finite, min(lassos, _COUNT_CAP), steps


def _advance(vec, rows, n):
    """``vec`` carried ``n`` steps along the arc matrix ``rows``, both dicts
    of nonzero entries: step by step while n is at most the square of the
    number of rows, else by squaring, so n = 10^6 costs forty products."""
    if n <= len(rows) ** 2:
        for _ in range(n):
            vec = _times(vec, rows)
        return vec
    while n:
        vec = _times(vec, rows) if n & 1 else vec
        n >>= 1
        rows = [_times(row, rows) for row in rows]
    return vec


def _times(vec, rows):
    """The vector ``vec`` times the matrix ``rows``, saturating."""
    out = {}
    for i, w in vec.items():
        for j, m in rows[i].items():
            out[j] = min(out.get(j, 0) + w * m, _COUNT_CAP)
    return out


def _mertens(n):
    """M(0), ..., M(n): the partial sums of the Möbius function."""
    mu = [0, 1] + [0] * max(0, n - 1)
    for i in range(1, n + 1):
        for j in range(2 * i, n + 1, i):
            mu[j] -= mu[i]
    return list(accumulate(mu[:n + 1]))


# the most points ``boundary_paths``, ``isolated_points`` or ``tight_spectrum``
# lists, and the most steps (edges or letters) the points may hold: a listing
# takes about 17 bytes of peak memory and 0.5 us per step as a command
# (loops4's boundary of 9,003,000 edges: 157 MB and 4.9 s), so one at the
# step budget stays near 175 MB and 5 s
LISTING_BUDGET = 100_000
_STEP_BUDGET = 10 ** 7

# counts are exact below 10^640 and stop there: Python prints every integer
# of at most 640 digits, whatever its digit limit
_COUNT_CAP = 10 ** 640


def _count_text(n):
    """A count as printed: exact below ``_COUNT_CAP``, where counting stops."""
    return "at least 10^640" if n >= _COUNT_CAP else "%d" % n


def _refuse_past_budget(n, steps, what):
    """Refuse ``n`` points past ``LISTING_BUDGET``, or ``steps`` past ``_STEP_BUDGET``."""
    if n > LISTING_BUDGET:
        raise InputError("%s has %s points; at most %d are listed"
                         % (what, _count_text(n), LISTING_BUDGET))
    if steps > _STEP_BUDGET:
        raise InputError("%s has %d points of %d steps in all; at most %d steps are listed"
                         % (what, n, steps, _STEP_BUDGET))


def ultrafilter_transition_graph(fam):
    """Build the transition graph; raises for families that are not closed
    under relative complements."""
    return UltrafilterTransitionGraph(fam)
