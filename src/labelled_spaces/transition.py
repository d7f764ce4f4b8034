"""The finite transition graph certifying all infinite-type ultrafilters.

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
from itertools import accumulate

from .errors import InputError
from .filters import LassoFilterFamily
from .graph import range_of
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

        The level data of a tower is its (letter, atom) sequence, read off a
        walk that enters the graph with a letter whose range is the first
        node's range set.  By the arc rule (module docstring) the arcs out
        of a node depend on its atom alone, as the lasso walker needs.  Each
        canonical lasso within the bounds comes from one walk, so a tower is
        built only for the lassos returned and the cost follows the output;
        level 0 is read off the walk's first item (``_level0``).
        """
        level0 = self._level0()
        return tuple(sorted(
            (
                LassoFilterFamily(
                    self.fam,
                    tuple(b for b, _ in prefix),
                    tuple(b for b, _ in cycle),
                    tuple(a for _, a in prefix),
                    tuple(a for _, a in cycle),
                    f0_gen=level0.get((prefix or cycle)[0]),
                )
                for prefix, cycle in _canonical_lassos(*self._lasso_steps(), max_prefix, max_cycle)
            ),
            key=LassoFilterFamily.sort_key,
        ))

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

    def _lasso_steps(self):
        """The walker's (starts, arcs): steps are (letter, atom) items, and a
        walk enters with a letter whose range is the first node's range set."""
        starts = [((b, n.atom), n) for b, r in self._first.items() for n in self._over.get(r, ())]

        def arcs(node):
            return [((b, dst.atom), dst) for b, dst in self.successors(node)]

        return starts, arcs

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
    that reach it into one component."""
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
        comp, todo = {root}, [root]
        while todo:
            for w in pred.get(todo.pop(), ()):
                if w not in placed:
                    placed.add(w)
                    comp.add(w)
                    todo.append(w)
        out.append(comp)
    return out


def has_branching_cycles(nodes, edges):
    """Whether some strongly connected component has more internal edges
    than nodes, i.e. carries two distinct cycles."""
    comps = strongly_connected_components(nodes, edges)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    internal = [0] * len(comps)
    for src, _, dst in edges:
        if comp_of[src] == comp_of[dst]:
            internal[comp_of[src]] += 1
    return any(k > len(comp) for k, comp in zip(internal, comps))


def _canonical_lassos(starts, arcs, max_prefix, max_cycle):
    """Every canonical lasso (prefix, cycle) of labels within the bounds
    that a walk can follow forever, each exactly once.

    ``starts`` are the first (label, state) steps of a walk and
    ``arcs(state)`` the steps that may follow.  Which labels may follow a
    step must depend on its label alone; then a walk can repeat its last c
    labels forever exactly when the first of them may follow its last step.
    Walks of up to max_prefix + max_cycle steps grow on an explicit stack,
    and each is split every way into a prefix and a primitive cycle whose
    last label differs from the prefix's, which is the canonical form.  A
    canonical lasso is the first |prefix| + |cycle| labels of its path, so
    it comes from exactly one (walk, split): nothing is deduplicated or
    filtered afterwards.
    """
    stack = [(s,) for s in starts]
    while stack:
        walk = stack.pop()
        steps = arcs(walk[-1][1])
        follow = [label for label, _ in steps]
        labels = tuple(label for label, _ in walk)
        n = len(walk)
        for p in range(max(0, n - max_cycle), min(max_prefix, n - 1) + 1):
            cycle = labels[p:]
            if cycle[0] not in follow or (p and labels[p - 1] == cycle[-1]):
                continue
            if not any(cycle == cycle[:d] * (len(cycle) // d)
                       for d in range(1, len(cycle)) if len(cycle) % d == 0):
                yield labels[:p], cycle
        if n < max_prefix + max_cycle:
            stack.extend(walk + (step,) for step in steps)


def _count_canonical_lassos(starts, arcs, max_prefix, max_cycle):
    """The number of lassos ``_canonical_lassos(starts, arcs, max_prefix,
    max_cycle)`` yields, counted without listing them.

    A canonical lasso within the bounds is an infinite walk that repeats a
    primitive cycle from step max_prefix + 1 on.  So it is, one for one, a
    walk of max_prefix + 1 labels, ending at some label x, followed by a
    primitive closed walk of at most max_cycle labels from x.  Möbius
    inversion over the divisors of a length c turns the closed walks of
    length d | c into the primitive ones (the periodic-point counts of Lind &
    Marcus, *An Introduction to Symbolic Dynamics and Coding*, 1995), so
    the count is the sum over x and d <= max_cycle of
    in(x) * M(max_cycle // d) * #{closed walks of d labels from x}, with
    in(x) the walks of max_prefix + 1 labels ending at x and M the Mertens
    function.  Labels with the same followers are walked as one group, and
    closed walks stay inside a strongly connected component of the groups:
    O(|groups| * |arcs| * max_cycle) exact integer steps.
    """
    kind, follow = _label_groups(starts, arcs)
    # in(x): the walks of max_prefix + 1 labels from a start that end at x
    ends = Counter(label for label, _ in starts)
    for _ in range(max_prefix):
        by_group = Counter()
        for label, n in ends.items():
            by_group[kind[label]] += n
        ends = Counter()
        for k, n in by_group.items():
            for label in follow[k]:
                ends[label] += n
    comp = {
        k: i for i, c in enumerate(strongly_connected_components(
            range(len(follow)), [(k, None, kind[y]) for k, ys in enumerate(follow) for y in ys]))
        for k in c
    }
    # the groups one step from each group inside its component, and for the
    # closing step the walks ending at each label x: weight[kind x][k] sums
    # in(x) over the labels x that may follow group k
    inside = [Counter(kind[y] for y in ys if comp[kind[y]] == comp[k])
              for k, ys in enumerate(follow)]
    weight = [Counter() for _ in follow]
    for k, ys in enumerate(follow):
        for y in ys:
            if ends[y] and comp[kind[y]] == comp[k]:
                weight[kind[y]][k] += ends[y]
    mertens = _mertens(max_cycle)
    total = 0
    for k, closing in enumerate(weight):
        if not closing:
            continue
        walks = {k: 1}
        for d in range(1, max_cycle + 1):
            total += mertens[max_cycle // d] * sum(n * closing[j] for j, n in walks.items())
            step = Counter()
            for j, n in walks.items():
                for i, m in inside[j].items():
                    step[i] += n * m
            walks = step
    return total


def _label_groups(starts, arcs):
    """The labels a walk from ``starts`` can reach, grouped by the labels that
    may follow them: ``kind[label]`` is a group and ``follow[group]`` the
    labels that may follow it."""
    kind, follow, groups = {}, [], {}
    todo = list(starts)
    while todo:
        label, state = todo.pop()
        if label in kind:
            continue
        steps = arcs(state)
        labels = tuple(x for x, _ in steps)
        kind[label] = groups.setdefault(frozenset(labels), len(follow))
        if kind[label] == len(follow):
            follow.append(labels)
        todo.extend(steps)
    return kind, follow


def _mertens(n):
    """M(0), ..., M(n): the partial sums of the Möbius function."""
    mu = [0, 1] + [0] * max(0, n - 1)
    for i in range(1, n + 1):
        for j in range(2 * i, n + 1, i):
            mu[j] -= mu[i]
    return list(accumulate(mu[:n + 1]))


# the most points ``boundary_paths``, ``isolated_points`` or
# ``tight_spectrum`` lists; past it they refuse, with the exact count, before
# listing any
LISTING_BUDGET = 100_000


def _refuse_past_budget(count, what):
    if count > LISTING_BUDGET:
        raise InputError("%s has %d points; at most %d are listed" % (what, count, LISTING_BUDGET))


def ultrafilter_transition_graph(fam):
    """Build the transition graph; raises for families that are not closed
    under relative complements."""
    return UltrafilterTransitionGraph(fam)
