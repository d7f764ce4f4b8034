"""Accommodating families of vertex sets and their restricted algebras.

A family is kept as an explicit, canonically ordered list of vertex sets.
Closure checks are performed on single letters only; together with the
composition law r(r(A, b), w) = r(A, bw) this implies closure under relative
ranges of arbitrary words, and likewise the weak-left-resolving identity for
single letters propagates to all words once the family is range-closed.

Validation reads its flags off the meets M_v = the intersection of the
members containing v, one per vertex v that some member covers, found in
one pass over the members.  Every member is the union of the meets of its
vertices, A = U_{v in A} M_v (Birkhoff, "Rings of sets", 1937), and from
that the following hold, each exactly, both ways:

(a) with the empty set in F, F is closed under union and intersection iff
    every A | M_v is a member (A = {} gives M_v itself): |F|*|V| lookups
    instead of |F|^2 pairs;
(b) on such a lattice, r(A, b) is a member for every member A iff every
    r(M_v, b) is, because r preserves unions;
(c) with S the b-predecessors of a vertex, the weak-left-resolving check at
    that (b, vertex) can fail only if two of the traces M_u & S (u in S) are
    disjoint, and on a lattice it then fails (both meets are members);
(d) a lattice is closed under relative complements iff its distinct meets
    are pairwise disjoint: it is a ring of sets, all unions of the blocks of
    one partition;
(e) on a lattice an atom of the algebra below R (a minimal nonzero member
    inside R) is M_v for each v in it: the atoms are the minimal meets in R;
(f) ``closure`` is all unions of the blocks of the coarsest partition of the
    generators' union (the seeds and letter ranges) in which each generator
    and each r(block, b) is a union of blocks (Paige & Tarjan, 1987).

So on a lattice each flag is decided from the meets, and the pair scans run
only for a flag that is false, to name the first witness in the order they
have always scanned.  A family that is not a lattice is not accommodating
(and cannot be built); for it the weak-left-resolving scan decides the
(b, vertex) checks that (c) does not clear, and the complement scan decides
closure under relative complements.  A family built as all unions of
disjoint blocks (``powerset_family``, ``closure``) is a ring by construction:
its meets are its blocks, so it is accommodating and complement closed, and
only (c) is checked.

Members are stored as frozensets but built and validated as int masks: with
n vertices, vertex i of ``g.vertices`` (from 0) has the bit 2^(n-1-i).  The
canonical (``vkey``) order is the preorder of the tree in which a set's
children add one vertex after its last, so before R = {i_1 < ... < i_k} come,
for each j, the prefix {i_1 .. i_(j-1)} and the 2^(n-1-i_(j-1)) - 2^(n-i_j)
sets that go on with a vertex between i_(j-1) and i_j (i_0 = -1); that sum
telescopes to R's index, rank(R) = 2^n + k - R - (R & -R), and rank(0) = 0.
Sorting sorts by rank, and validation costs O(|F|*|V|) int operations.
"""

from .errors import DomainError, InputError, UnsupportedFamilyError
from .graph import range_of, relative_range
from .util import Immutable, format_vset, vkey


class ValidationReport(Immutable):
    """The three flags with their witnesses, and the minimal meets in order
    (the atoms of (e)), which equality ignores."""

    __slots__ = ("accommodating", "weakly_left_resolving", "complement_closed", "witnesses",
                 "atoms")
    _fields = __slots__[:4]
    __hash__ = None

    def __init__(self, accommodating, weakly_left_resolving, complement_closed, witnesses,
                 atoms=()):
        self._set(
            accommodating=accommodating,
            weakly_left_resolving=weakly_left_resolving,
            complement_closed=complement_closed,
            witnesses=witnesses,
            atoms=atoms,
        )

    def _key(self):
        return (self.accommodating, self.weakly_left_resolving, self.complement_closed,
                self.witnesses)

    def flags_line(self):
        return "accommodating=%s wlr=%s complements=%s" % (
            str(self.accommodating).lower(),
            str(self.weakly_left_resolving).lower(),
            str(self.complement_closed).lower(),
        )

    def witness_text(self, name):
        """The witness of flag ``name`` as printed: sets as ``{a b}``, letters
        and notes as they are; empty when the flag holds."""
        return " ".join(
            format_vset(w) if isinstance(w, frozenset) else str(w)
            for w in self.witnesses.get(name, ())
        )


def validate(g, sets):
    """Check the accommodating / weakly-left-resolving / complement-closure
    flags for an arbitrary collection of vertex sets.

    Never raises for closure failures; each false flag comes with a concrete
    witness.  Sets containing unknown vertices are input errors.  The flags
    come from the per-vertex meets (see the module docstring); the scans
    that name the witnesses run only for a flag the meets do not show true.
    """
    for s in sets:
        g.check_vertices(s)
    return _validate_members(g, *_canonical(g, sets))


def _layout(g):
    """(bit, rank): each vertex's bit, and the canonical sort key of masks."""
    n = len(g.vertices)
    return ({v: 1 << n - i for i, v in enumerate(g.vertices, 1)},
            lambda r: r and (1 << n) + r.bit_count() - r - (r & -r))


def _canonical(g, sets):
    """(members, masks, bit, rank): the distinct sets in canonical order, as
    frozensets and as masks.  An unknown vertex is refused in the first set,
    in canonical order, that holds one."""
    (bit, rank), sets = _layout(g), [frozenset(s) for s in sets]
    try:
        by_mask = {_mask(bit, s): s for s in sets}
    except KeyError:
        g.check_vertices(min((s for s in sets if not g.vertex_set.issuperset(s)), key=vkey))
    masks = sorted(by_mask, key=rank)
    return tuple(map(by_mask.__getitem__, masks)), masks, bit, rank


def _validate_members(g, members, masks, bit, rank):
    """``validate`` on distinct members in canonical order, with their masks."""
    lookup, meets, by_meet = set(masks), {}, {}
    for s, a in zip(members, masks):
        for v in s:
            meets[v] = meets.get(v, a) & a
    for v, m in meets.items():
        by_meet.setdefault(m, []).append(v)
    blocks = sorted(by_meet, key=rank)
    # a meet is minimal iff it is the meet of each of its vertices
    atoms = [frozenset(by_meet[m]) for m in blocks if len(by_meet[m]) == m.bit_count()]

    lattice = 0 in lookup and all(lookup.issuperset(map(m.__or__, masks)) for m in blocks)
    tops = [g.vertex_set] + [frozenset(v for v, x in bit.items() if m & x) for m in blocks]
    accommodating = lattice and all(  # the letter ranges r(V, b), then (b)
        _mask(bit, g.step(t, b)) in lookup for t in tops for b in g.alphabet)
    ring = lattice and len(atoms) == len(blocks)

    found = {
        "accommodating": None if accommodating else _accommodating_witness(
            g, members, masks, lookup, bit),
        "weakly_left_resolving": _wlr_witness(members, masks, _suspects(g, meets, bit), rank),
        "complement_closed": None if ring else _complement_witness(members, masks, lookup),
    }
    witnesses = {name: w for name, w in found.items() if w is not None}
    return ValidationReport(
        accommodating,
        "weakly_left_resolving" not in witnesses,
        "complement_closed" not in witnesses,
        witnesses,
        tuple(atoms),
    )


def _mask(bit, vset):
    return sum(map(bit.__getitem__, vset))


def _suspects(g, meets, bit):
    """The (letter, vertex) pairs, in order, with the mask of their
    letter-predecessors, at which the weak-left-resolving check can fail by
    (c): those where two traces M_u & S of the covered sources u meet not."""
    preds = {}
    for e in g.edges:
        preds.setdefault((e.label, e.dst), set()).add(e.src)
    for bv, srcs in sorted(preds.items()):
        s = _mask(bit, srcs)
        traces = [meets[u] & s for u in srcs if u in meets]
        if not all(t1 & t2 for i, t1 in enumerate(traces) for t2 in traces[i + 1:]):
            yield bv, s


def _accommodating_witness(g, members, masks, lookup, bit):
    """The first accommodating failure: a missing empty set or letter range,
    then a relative range, then a union or intersection of a member pair."""
    if 0 not in lookup:
        return ("missing empty set",)
    for b in g.alphabet:
        if _mask(bit, range_of(g, (b,))) not in lookup:
            return ("missing range of letter", b)
    for a in members:
        for b in g.alphabet:
            if _mask(bit, g.step(a, b)) not in lookup:
                return ("relative range escapes", a, b)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if a | masks[j] not in lookup:
                return ("union escapes", members[i], members[j])
            if a & masks[j] not in lookup:
                return ("intersection escapes", members[i], members[j])
    return None


def _wlr_witness(members, masks, suspects, rank):
    """Weak left resolving via source traces: for each letter b and vertex v
    (in order), the members' traces on the b-predecessors of v must pairwise
    intersect; a disjoint pair of nonempty traces is exactly a violation of
    r(A & B, b) = r(A, b) & r(B, b).  Only the (b, v) whose meet traces do
    not pairwise meet are scanned: no other can fail."""
    for (b, _), srcs in suspects:
        traces = {}
        for s, a in zip(members, masks):
            if a & srcs:
                traces.setdefault(a & srcs, s)
        distinct = sorted(traces, key=rank)
        for i, t1 in enumerate(distinct):
            for t2 in distinct[i + 1 :]:
                if not t1 & t2:
                    return (traces[t1], traces[t2], b)
    return None


def _complement_witness(members, masks, lookup):
    """The first member pair (A, B), in order, with A - B not a member.

    On a lattice that is not a ring the top member already fails (it loses
    a smaller meet nested in a larger one), and only prefixes of its sorted
    vertex list come before it, so the scan stops within |V| + 1 rows."""
    rests = [~b for b in masks]
    for s, a in zip(members, masks):
        if not lookup.issuperset(map(a.__and__, rests)):
            return s, next(t for t, r in zip(members, rests) if a & r not in lookup)
    return None


class AccommodatingFamily(Immutable):
    """An accommodating family over a labelled graph, as an explicit set list.

    Construction validates the family once and keeps the ``ValidationReport``
    it built: the weakly-left-resolving and complement-closure flags, with
    their witnesses, are read from it.  ``powerset_family`` and ``closure``
    pass the report they built by construction (the keyword-only
    ``_report``, with the members already in canonical order), and nothing
    is validated again.
    """

    __slots__ = ("graph", "sets", "report", "_lookup", "_algebras")
    _fields = __slots__[:2]

    def __init__(self, graph, sets, *, _report=None):
        if _report is None:
            sets, *layout = _canonical(graph, sets)
            _report = _validate_members(graph, sets, *layout)
        if not _report.accommodating:
            raise InputError(
                "family is not accommodating: %s" % _report.witness_text("accommodating")
            )
        self._set(
            graph=graph, sets=sets, report=_report, _lookup=frozenset(sets), _algebras={}
        )

    def _key(self):
        return (self.graph, self.sets)

    def __contains__(self, vset):
        return frozenset(vset) in self._lookup

    def __len__(self):
        return len(self.sets)

    @property
    def weakly_left_resolving(self):
        return self.report.weakly_left_resolving

    @property
    def complement_closed(self):
        return self.report.complement_closed

    def require_wlr(self):
        if not self.weakly_left_resolving:
            raise DomainError(
                "family is not weakly left resolving: %s"
                % self.report.witness_text("weakly_left_resolving")
            )

    def require_complements(self):
        if not self.complement_closed:
            raise UnsupportedFamilyError(
                "family is not closed under relative complements: %s"
                % self.report.witness_text("complement_closed")
            )

    def rel_range(self, members, word):
        return relative_range(self.graph, members, word)

    def algebra(self, word):
        """The restricted algebra of sets below the range of ``word``.

        The algebra depends on the word only through its range, so words with
        equal ranges share one algebra object.
        """
        word = tuple(word)
        self.graph.check_word(word)
        if word:
            top = range_of(self.graph, word)
            if not top:
                raise DomainError("%r is not a labelled path" % ".".join(word))
        else:
            top = self.graph.vertex_set
        return self.algebra_over(top)

    def algebra_over(self, restriction):
        restriction = frozenset(restriction)
        if restriction not in self._algebras:
            self._algebras[restriction] = RestrictedAlgebra.build(self, restriction)
        return self._algebras[restriction]


def closure(g, seeds):
    """Smallest family containing the seeds and all letter ranges that is
    closed under union, intersection, relative complement and single-letter
    relative ranges, by partition refinement as in (f): at most 2|V| - 1
    blocks are made, each stepped once per letter."""
    for s in seeds:
        g.check_vertices(s)
    splitters = [frozenset(s) for s in seeds] + [range_of(g, (b,)) for b in g.alphabet]
    blocks = set()

    def add(block):
        blocks.add(block)
        splitters.extend(g.step(block, b) for b in g.alphabet)

    top = frozenset().union(*splitters)
    if top:
        add(top)
    while splitters:
        splitter = splitters.pop()
        for block in [m for m in blocks if m & splitter and m - splitter]:
            blocks.remove(block)
            add(block & splitter)
            add(block - splitter)
    return _unions(g, blocks)


def powerset_family(g):
    """The full powerset family; always accommodating and complement closed."""
    return _unions(g, [frozenset((v,)) for v in g.vertices])


def _unions(g, blocks):
    """The family of all unions of disjoint blocks, refused past 2^16 members.

    Its report is read off the blocks: the family is a ring by construction
    (accommodating and complement closed, its meets the blocks themselves),
    and only the weak-left-resolving check (c) is run."""
    if len(blocks) > 16:
        raise InputError("family would have %d members; at most 65536 are supported"
                         % (1 << len(blocks)))
    (bit, rank), by_mask = _layout(g), {0: frozenset()}
    blocks = {_mask(bit, block): block for block in blocks}
    for m, block in blocks.items():
        # unions of disjoint nonempty blocks are distinct: no deduplication
        by_mask.update([(a | m, s | block) for a, s in by_mask.items()])
    masks = sorted(by_mask, key=rank)
    members = tuple(map(by_mask.__getitem__, masks))
    meets = {v: m for m, block in blocks.items() for v in block}
    wlr = _wlr_witness(members, masks, _suspects(g, meets, bit), rank)
    report = ValidationReport(
        True, wlr is None, True,
        {} if wlr is None else {"weakly_left_resolving": wlr},
        tuple(blocks[m] for m in sorted(blocks, key=rank)),
    )
    return AccommodatingFamily(g, members, _report=report)


class RestrictedAlgebra(Immutable):
    """The members of a family lying inside a fixed restriction set (the
    range of some word; the whole vertex set for the empty word).

    With a complement-closed family and a nonempty word this is a finite
    Boolean algebra; for the empty word it may lack a top element (recorded
    as None).  Zero is always the empty set; atoms are the minimal nonzero
    elements, and in a finite meet-semilattice every filter is the up-set of
    its minimum while the ultrafilters are exactly the up-sets of atoms.
    """

    __slots__ = ("family", "restriction", "top", "elements", "atoms", "_lookup")
    _fields = __slots__[:5]

    def __init__(self, family, restriction, top, elements, atoms):
        self._set(
            family=family, restriction=restriction, top=top, elements=elements, atoms=atoms,
            _lookup=frozenset(elements),
        )

    @classmethod
    def build(cls, family, restriction):
        elements = tuple(s for s in family.sets if s <= restriction)
        top = restriction if restriction in family._lookup else None
        atoms = tuple(m for m in family.report.atoms if m <= restriction)
        return cls(family, restriction, top, elements, atoms)

    def __contains__(self, vset):
        return frozenset(vset) in self._lookup

    def _key(self):
        return (self.family, self.restriction)
