"""Seeded input generator for the benchmark.

Spaces are produced as plain data (``Space``) so that the reference checker
can work on them without touching the library, and as canonical ``.lgr``
text written through ``lgrfile.format_graph_file``.  Everything is drawn from
one ``random.Random`` seeded by the workload name and ``--seed``: the same
seed gives the same bytes.
"""

import functools
import random
from collections import namedtuple
from types import SimpleNamespace

from labelled_spaces.graph import Edge, LabelledGraph
from labelled_spaces.lgrfile import format_graph_file
from reference import fmt_set, vkey

# vertices: tuple of names; edges: tuple of (eid, src, label, dst);
# kind: "powerset" | "explicit" | "closure"; sets: explicit member list
# (explicit kind) and seeds: seed sets (closure kind), both frozensets.
Space = namedtuple("Space", "name vertices edges kind sets seeds")


def vertex_names(n):
    return tuple("v%d" % i for i in range(1, n + 1))


def letters(k):
    return tuple("abc"[:k])


def random_left_resolving(rng, n, k, density):
    """Edges of a random left-resolving graph: round(n * k * density) of the
    (target, letter) slots, drawn without replacement, each receive one edge
    from a uniformly drawn source.  At most one edge per letter into every
    vertex is exactly left resolving."""
    verts = vertex_names(n)
    slots = [(dst, b) for dst in verts for b in letters(k)]
    chosen = sorted(rng.sample(range(len(slots)), max(1, round(len(slots) * density))))
    edges = []
    for i in chosen:
        dst, b = slots[i]
        edges.append(("e%d" % (len(edges) + 1), rng.choice(verts), b, dst))
    return verts, tuple(edges)


def chain_edges(n):
    """The chain7 shape: a diamond v1 -a1-> {v2, v4} -a2-> v3 (v4 also to v5),
    then a simple chain v5 -a3-> v6 -a4-> ... up to v<n>."""
    edges = [
        ("e1", "v1", "a1", "v2"),
        ("e2", "v1", "a1", "v4"),
        ("e3", "v2", "a2", "v3"),
        ("e4", "v4", "a2", "v3"),
        ("e5", "v4", "a2", "v5"),
    ]
    for i in range(5, n):
        edges.append(("e%d" % (i + 1), "v%d" % i, "a%d" % (i - 2), "v%d" % (i + 1)))
    return tuple(edges)


def chain_sets(n):
    """All subsets in which v4 forces v2 and v5 forces v3 (not complement
    closed, but accommodating and weakly left resolving)."""
    verts = vertex_names(n)
    out = []
    for mask in range(1 << n):
        members = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if ("v4" in members and "v2" not in members) or (
            "v5" in members and "v3" not in members
        ):
            continue
        out.append(members)
    return tuple(out)


def powerset_space(rng, name, n, k, density):
    verts, edges = random_left_resolving(rng, n, k, density)
    return Space(name, verts, edges, "powerset", (), ())


def chain_space(name, n):
    return Space(name, vertex_names(n), chain_edges(n), "explicit", chain_sets(n), ())


def closure_space(rng, name, n, k, density, n_seeds):
    verts, edges = random_left_resolving(rng, n, k, density)
    seeds = tuple(
        frozenset(v for v in verts if rng.random() < 0.4) for _ in range(n_seeds)
    )
    return Space(name, verts, edges, "closure", (), seeds)


def space_from_library(name, graph, fam, kind):
    """Plain-data copy of a library space (used for the shipped fixtures)."""
    edges = tuple((e.eid, e.src, e.label, e.dst) for e in graph.edges)
    sets = tuple(fam.sets) if kind == "explicit" else ()
    return Space(name, tuple(graph.vertices), edges, kind, sets, ())


def lgr_text(space):
    """Canonical .lgr text of a generated space."""
    graph = LabelledGraph(space.vertices, tuple(Edge(*e) for e in space.edges))
    if space.kind == "powerset":
        return format_graph_file(graph, None, "powerset")
    if space.kind == "explicit":
        sets = SimpleNamespace(sets=tuple(sorted(set(space.sets), key=vkey)))
        return format_graph_file(graph, sets, "explicit")
    # the closure directive has no formatter: print the graph part with the
    # formatter and append the seed list, which the parser closes up
    head = format_graph_file(graph, None, "powerset")[: -len("family powerset\n")]
    seeds = "".join(fmt_set(s) for s in sorted(set(space.seeds), key=vkey))
    return head + "family closure %s\n" % seeds


def lasso_work(ref, max_prefix, max_cycle):
    """Estimated steps of the transition graph's lasso enumeration on a
    left-resolving powerset space (``ref`` is its ``reference.Ref``).

    It counts what ``UltrafilterTransitionGraph.lassos`` in ``transition.py``
    walks as the benchmark was written: every closed walk of up to
    ``max_cycle * |ranges|`` nodes, and for each the backward prefix chains of
    up to ``max_prefix + max_cycle * |ranges|`` nodes (each extended once per
    predecessor arc) with their entry letters.  It is computed from the
    input alone, so the inputs it admits do not depend on the code measured.
    At about 11 us a step on a 2-core VM it predicts the cost of the slow
    ops within a factor of two or so."""
    nodes, arcs, _ = ref.transition_graph()
    index = {node: i for i, node in enumerate(nodes)}
    succ = [[] for _ in nodes]
    pred = [[] for _ in nodes]
    for src, b, dst in arcs:
        succ[index[src]].append((b, index[dst]))
        pred[index[dst]].append((b, index[src]))
    entry = [sum(1 for b in ref.letters if ref.range_of((b,)) == node[0]) for node in nodes]
    widened = max_cycle * max(1, len({node[0] for node in nodes}))
    prefix_bound = max_prefix + widened

    @functools.lru_cache(maxsize=None)
    def chains(head, need, depth):
        """(extension calls, prefixes listed) below one backward step."""
        calls, listed = 1, 0
        for b, prev in pred[head]:
            if b != need:
                continue
            listed += entry[prev]
            if depth + 1 < prefix_bound:
                for b2, _ in pred[prev]:
                    c, l = chains(prev, b2, depth + 1)
                    calls, listed = calls + c, listed + l
        return calls, listed

    total = 0
    for start in range(len(nodes)):
        walks = [0] * len(nodes)
        walks[start] = 1
        closing = {}  # closed walks at start by the letter of their last arc
        for _ in range(widened):
            nxt = [0] * len(nodes)
            for u, count in enumerate(walks):
                for b, w in succ[u] if count else ():
                    nxt[w] += count
                    if w == start:
                        closing[b] = closing.get(b, 0) + count
            walks = nxt
        for b, count in closing.items():
            calls, listed = chains(start, b, 0)
            total += count * (1 + calls + listed)
    return total


def rng_for(seed, workload):
    return random.Random("%s/%d" % (workload, seed))
