"""Finite labelled graphs: paths, labelled paths, relative ranges.

A labelled graph is a finite directed graph together with a letter attached
to each edge.  The alphabet is always the exact image of the labelling, so a
letter with no edge cannot occur.  All values are immutable (a graph keeps
the relative ranges it has computed); every function here is pure.
"""

from collections import namedtuple

from .errors import InputError
from .util import Immutable


class Edge(namedtuple("Edge", "eid src label dst")):
    """A directed edge; ``dst`` is the edge's range vertex, ``src`` its source."""

    __slots__ = ()

    def __str__(self):
        return "%s: %s -%s-> %s" % (self.eid, self.src, self.label, self.dst)


class LabelledGraph(Immutable):
    __slots__ = ("vertices", "edges", "alphabet", "vertex_set", "_by_label", "_into", "_out",
                 "_ranges", "_hash")
    _fields = ("vertices", "edges", "alphabet")

    def __init__(self, vertices, edges):
        vertices = tuple(sorted(set(vertices)))
        edges = tuple(edges)
        seen = set()
        for e in edges:
            if e.eid in seen:
                raise InputError("duplicate edge id %r" % e.eid)
            seen.add(e.eid)
            if e.src not in vertices or e.dst not in vertices:
                raise InputError("edge %s uses an unknown vertex" % (e,))
        by_label = {}
        into = {v: [] for v in vertices}
        out = {v: [] for v in vertices}
        for e in edges:
            by_label.setdefault(e.label, {}).setdefault(e.src, set())
            by_label[e.label][e.src].add(e.dst)
            into[e.dst].append(e)
            out[e.src].append(e)
        self._set(
            vertices=vertices,
            edges=edges,
            alphabet=tuple(sorted(by_label)),
            vertex_set=frozenset(vertices),
            _by_label={b: {v: frozenset(t) for v, t in m.items()} for b, m in by_label.items()},
            _into={v: tuple(es) for v, es in into.items()},
            _out={v: tuple(es) for v, es in out.items()},
            _ranges={},
            # families and algebras hash their graph: hash the edges once
            _hash=hash((vertices, edges)),
        )

    def _key(self):
        return (self.vertices, self.edges)

    def __hash__(self):
        return self._hash

    def check_vertices(self, members):
        if not self.vertex_set.issuperset(members):
            unknown = set(members) - self.vertex_set
            raise InputError("unknown vertices: %s" % " ".join(sorted(unknown)))

    def check_word(self, word):
        unknown = set(word).difference(self._by_label)
        if unknown:
            raise InputError("unknown letters: %s" % " ".join(sorted(unknown)))

    def step(self, members, letter):
        """Targets of ``letter``-labelled edges whose source lies in ``members``."""
        table = self._by_label.get(letter, {})
        out = set()
        for v in members:
            out |= table.get(v, frozenset())
        return frozenset(out)

    def edges_from(self, vertex):
        return self._out[vertex]

    def edges_into(self, vertex):
        return self._into[vertex]

    def out_degree(self, vertex):
        return len(self._out[vertex])


def relative_range(g, members, word):
    """Vertices reachable from ``members`` along a path labelled ``word``.

    The empty word maps every set to itself.  Computed letter by letter via
    r(r(A, b), w) = r(A, bw), once per (members, word): the graph keeps them.
    """
    g.check_vertices(members)
    g.check_word(word)
    key = (frozenset(members), tuple(word))
    out = g._ranges.get(key)
    if out is None:
        out = key[0]
        for letter in key[1]:
            out = out and g.step(out, letter)
        g._ranges[key] = out
    return out


def range_of(g, word):
    """Range of a word: every vertex some path labelled ``word`` can end at."""
    return relative_range(g, g.vertex_set, word)


def is_labelled_path(g, word):
    """True when some path of the graph carries the label ``word``."""
    return not word or bool(range_of(g, word))


def label_edge_set(g, members):
    """Labels of the edges whose source lies in ``members``."""
    g.check_vertices(members)
    return frozenset(e.label for v in set(members) for e in g.edges_from(v))


def sinks(g):
    """Vertices with no outgoing edge."""
    return frozenset(v for v in g.vertices if not g.out_degree(v))


def singular_vertices(g):
    """Sinks plus infinite emitters; on a finite graph, exactly the sinks."""
    return sinks(g)


def is_left_resolving(g):
    """True when the edges into any fixed vertex carry pairwise distinct labels."""
    for v in g.vertices:
        labels = [e.label for e in g.edges_into(v)]
        if len(labels) != len(set(labels)):
            return False
    return True


def labelled_words_up_to(g, max_len):
    """All labelled paths of length at most ``max_len``, shortest first."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for b in g.alphabet:
                ext = w + (b,)
                if range_of(g, ext):
                    nxt.append(ext)
        frontier = nxt
        words.extend(frontier)
    return tuple(words)
