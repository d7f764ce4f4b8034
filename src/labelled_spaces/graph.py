"""Finite labelled graphs: paths, labelled paths, relative ranges.

A labelled graph is a finite directed graph together with a letter attached
to each edge.  The alphabet is always the exact image of the labelling, so a
letter with no edge cannot occur.  All values are immutable; every function
here is pure.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InputError


@dataclass(frozen=True)
class Edge:
    """A directed edge; ``dst`` is the edge's range vertex, ``src`` its source."""

    eid: str
    src: str
    label: str
    dst: str

    def __str__(self):
        return "%s: %s -%s-> %s" % (self.eid, self.src, self.label, self.dst)


@dataclass(frozen=True)
class LabelledGraph:
    vertices: tuple
    edges: tuple
    alphabet: tuple = field(init=False, compare=False)
    _by_label: dict = field(init=False, compare=False, repr=False)
    _into: dict = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vertices = tuple(sorted(set(self.vertices)))
        edges = tuple(self.edges)
        seen = set()
        for e in edges:
            if e.eid in seen:
                raise InputError("duplicate edge id %r" % e.eid)
            seen.add(e.eid)
            if e.src not in vertices or e.dst not in vertices:
                raise InputError("edge %s uses an unknown vertex" % e)
        by_label = {}
        into = {v: [] for v in vertices}
        for e in edges:
            by_label.setdefault(e.label, {}).setdefault(e.src, set())
            by_label[e.label][e.src].add(e.dst)
            into[e.dst].append(e)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "alphabet", tuple(sorted(by_label)))
        object.__setattr__(
            self,
            "_by_label",
            {b: {v: frozenset(t) for v, t in m.items()} for b, m in by_label.items()},
        )
        object.__setattr__(self, "_into", {v: tuple(es) for v, es in into.items()})
        # every relative-range cache lookup hashes the graph: hash the edges once
        object.__setattr__(self, "_hash", hash((vertices, edges)))

    def __hash__(self):
        return self._hash

    @property
    def vertex_set(self):
        return frozenset(self.vertices)

    def check_vertices(self, members):
        unknown = set(members) - set(self.vertices)
        if unknown:
            raise InputError("unknown vertices: %s" % " ".join(sorted(unknown)))

    def check_word(self, word):
        unknown = set(word) - set(self.alphabet)
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
        return tuple(e for e in self.edges if e.src == vertex)

    def edges_into(self, vertex):
        return self._into[vertex]

    def out_degree(self, vertex):
        return sum(1 for e in self.edges if e.src == vertex)


def relative_range(g, members, word):
    """Vertices reachable from ``members`` along a path labelled ``word``.

    The empty word maps every set to itself.  Computed letter by letter via
    r(r(A, b), w) = r(A, bw); cost O(|word| * |edges|).
    """
    g.check_vertices(members)
    g.check_word(word)
    return _relative_range(g, frozenset(members), tuple(word))


@lru_cache(maxsize=None)
def _relative_range(g, members, word):
    out = members
    for letter in word:
        out = g.step(out, letter)
        if not out:
            return frozenset()
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
    members = set(members)
    return frozenset(e.label for e in g.edges if e.src in members)


def emits_infinitely(g, members):
    """Whether ``members`` emits infinitely many labels.

    Constantly false here: a finite graph has no infinite emitters.  Kept as
    the explicit branch point used by the tightness tests so that truncated
    models of infinite graphs have a single place to override.
    """
    return False


def sinks(g):
    """Vertices with no outgoing edge."""
    sources = {e.src for e in g.edges}
    return frozenset(v for v in g.vertices if v not in sources)


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
