"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's composition-law and principal-filter
shortcuts: relative ranges by explicit path enumeration, filters by checking
every subset of an algebra against the definition.
"""


def sort_sets(sets):
    """Deduplicate and order a collection of vertex sets canonically, each
    by its sorted vertex tuple (``labelled_spaces.util.vkey``): the order
    that families reach from vertex masks."""
    from labelled_spaces.util import vkey

    return tuple(sorted(set(sets), key=vkey))


def enumerate_paths(g, length):
    """All edge sequences of the given length that chain correctly."""
    paths = [()]
    for _ in range(length):
        paths = [p + (e,) for p in paths for e in g.edges if not p or p[-1].dst == e.src]
    return paths


def relative_range_brute(g, members, word):
    """Relative range by enumerating every representative path."""
    if not word:
        return frozenset(members)
    out = set()
    for path in enumerate_paths(g, len(word)):
        if tuple(e.label for e in path) == tuple(word) and path[0].src in members:
            out.add(path[-1].dst)
    return frozenset(out)


def filters_brute(elements):
    """All filters of a finite meet-semilattice of sets, as frozensets of
    members: nonempty, zero-free, upward closed, closed under meets."""
    nonzero = [e for e in elements if e]
    out = []
    for mask in range(1, 1 << len(nonzero)):
        subset = [e for i, e in enumerate(nonzero) if mask >> i & 1]
        chosen = set(subset)
        ok = True
        for x in subset:
            for y in nonzero:
                if x <= y and y not in chosen:
                    ok = False
                    break
            if not ok:
                break
            for y in subset:
                if x & y not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(chosen))
    return out


def finite_boundary_brute(g, max_len):
    """Finite boundary paths by enumerating all paths and keeping the ones
    that end at a vertex with no outgoing edge."""
    sink = {v for v in g.vertices if not any(e.src == v for e in g.edges)}
    found = {(v, ()) for v in sink}
    for n in range(1, max_len + 1):
        for path in enumerate_paths(g, n):
            if path and path[-1].dst in sink:
                found.add((path[0].src, path))
    return found


def covers_brute(elements, x):
    """All covers of x inside a finite algebra of sets: subsets of the
    nonzero elements below x that meet every nonzero element below x."""
    below = [e for e in elements if e and e <= x]
    out = []
    for mask in range(1, 1 << len(below)):
        z = [e for i, e in enumerate(below) if mask >> i & 1]
        if all(any(part & y for part in z) for y in below):
            out.append(z)
    return out


def tight_filters_brute(elements):
    """Tight filters of a finite algebra of sets, from the definitions: the
    filter must meet every cover of each of its members."""
    out = []
    for flt in filters_brute(elements):
        ok = True
        for x in flt:
            for z in covers_brute(elements, x):
                if not any(part in flt for part in z):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(flt)
    return out


def step_brute(g, members, letter):
    """Single-letter relative range read straight off the edge list."""
    return frozenset(e.dst for e in g.edges if e.label == letter and e.src in members)


class TowerOracle:
    """A filter tower read from the definitions alone.

    ``levels`` lists (letter, generator) for levels 1, 2, ...; with a
    nonempty ``cycle`` they continue periodically.  Level n's filter is the
    up-set of its generator among the family members inside the range of
    w_1..w_n (empty for a None generator).  Lasso towers are examined for
    prefix + cycle * 2^|V| + 1 levels: past that every (phase, range) state
    and every (phase, set) state of a walk has already been seen.
    """

    def __init__(self, fam, levels, cycle=(), f0=None):
        self.g = fam.graph
        self.sets = fam.sets
        self.pre, self.cycle, self.f0 = tuple(levels), tuple(cycle), f0
        self.last = len(self.pre)
        if self.cycle:
            self.last += (len(self.cycle) << len(self.g.vertices)) + 1

    def _pair(self, n):
        if n <= len(self.pre):
            return self.pre[n - 1]
        return self.cycle[(n - len(self.pre) - 1) % len(self.cycle)]

    def letter(self, n):
        return self._pair(n)[0]

    def gen(self, n):
        return self.f0 if n == 0 else self._pair(n)[1]

    def algebra(self, n):
        """The nonzero members inside the range of w_1..w_n."""
        rng = frozenset(self.g.vertices)
        for k in range(1, n + 1):
            rng = step_brute(self.g, rng, self.letter(k))
        return [s for s in self.sets if s and s <= rng]

    def up(self, n):
        """F_n as an explicit set of members."""
        gen = self.gen(n)
        return frozenset(s for s in self.algebra(n) if gen is not None and gen <= s)

    def pullback(self, n):
        """{A : r(A, w_{n+1}) in F_{n+1}} inside the level-n algebra."""
        upper = self.up(n + 1)
        return frozenset(
            a for a in self.algebra(n) if step_brute(self.g, a, self.letter(n + 1)) in upper
        )

    def is_admissible(self):
        return all(self.up(n) <= self.pullback(n) for n in range(self.last))

    def is_complete(self):
        return all(self.up(n) == self.pullback(n) for n in range(self.last))

    def reaches(self, i, vset):
        """Some m >= i with gen_m inside r(vset, w_{i+1..m})."""
        end = self.last if not self.cycle else i + self.last
        cur = vset
        for m in range(i, end + 1):
            if m > i:
                cur = step_brute(self.g, cur, self.letter(m))
            gen = self.gen(m)
            if gen is not None and gen <= cur:
                return True
        return False

    def completion_level(self, n):
        """Level n of the completion: the union of the pullbacks of all
        deeper levels."""
        return frozenset(a for a in self.algebra(n) if self.reaches(n, a))

    def contains(self, p):
        alpha = tuple(p.alpha)
        if p.is_zero or (not self.cycle and len(alpha) > len(self.pre)):
            return False
        if any(self.letter(k + 1) != b for k, b in enumerate(alpha)):
            return False
        return self.reaches(len(alpha), p.vset)


def node_at(tower, n):
    """The transition-graph node (range set, generator) of a tower at level
    n >= 1."""
    return (tower.range_at(n), tower.gen_at(n))


def node_lasso(tower):
    """A lasso tower's levels as (letter, node) pairs in canonical lasso form.

    The levels are read until one repeats an earlier level both in its place
    in the letter/generator lasso and in its range set; the node cycle may be
    a multiple of the letter/generator cycle when the range sets settle with
    a longer period."""
    from labelled_spaces.util import canonical_lasso

    p, c = tower.prefix_len, tower.cycle_len
    seen, pairs, n = {}, [], 1
    while True:
        state = (n if n <= p else p + 1 + (n - p - 1) % c, tower.range_at(n))
        if state in seen:
            wrap = seen[state]
            return canonical_lasso(pairs[:wrap - 1], pairs[wrap - 1:])
        seen[state] = n
        pairs.append((tower.letter(n), node_at(tower, n)))
        n += 1


class StepCapExceeded(Exception):
    """A widened enumerator below ran past its step cap."""


def _stepper(cap):
    """A step counter that raises ``StepCapExceeded`` past ``cap`` steps."""
    steps = [0]

    def step():
        steps[0] += 1
        if cap is not None and steps[0] > cap:
            raise StepCapExceeded(cap)

    return step


def widened_lassos(utg, max_prefix, max_cycle, cap=None):
    """The lassos of an ultrafilter transition graph by widened enumeration:
    node-level closed walks and backward prefixes under bounds widened by the
    number of ranges (the node sequence can settle with a longer period than
    the (letter, generator) sequence), canonicalised and filtered by the
    canonical size afterwards.  Its cost grows exponentially with the number
    of ranges; past ``cap`` walk extensions it raises ``StepCapExceeded``."""
    from labelled_spaces import LassoFilterFamily
    from labelled_spaces.graph import range_of
    from labelled_spaces.util import canonical_lasso

    step = _stepper(cap)
    factor = max(1, len(utg.ranges))
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
            utg.fam,
            tuple(b for b, _ in prefix),
            tuple(b for b, _ in cycle),
            tuple(g for _, g in prefix),
            tuple(g for _, g in cycle),
        )
        found.setdefault(family.canonical_key(), family)

    def closed_walks(bound):
        """Closed walks as (letter, node) level sequences: the pair at each
        position carries the letter that enters that node, so a walk
        n0 -b1-> n1 ... -b0-> n0 yields [(b0, n0), (b1, n1), ...]."""
        walks = []

        def extend(start, trail):
            step()
            for b, nxt in utg.successors(trail[-1][1] if trail else start):
                pair = (b, nxt)
                if nxt == start:
                    walks.append(trail + [pair])
                if len(trail) + 1 < bound:
                    extend(start, trail + [pair])

        for start in utg.nodes:
            extend(start, [])
        fixed = []
        for walk in walks:
            # rotate so the wrap-around letter sits on the start node
            fixed.append(tuple([walk[-1]] + walk[:-1]) if len(walk) > 1 else tuple(walk))
        return fixed

    def prefixes(entry, entry_letter, bound):
        """Backward chains of (letter, node) pairs ending just before the
        cycle entry; the first pair's letter must be able to start a word."""
        results = []

        def extend(chain):
            step()
            head = chain[0][1] if chain else entry
            need = chain[0][0] if chain else entry_letter
            for b, prev in utg.predecessors(head):
                if b != need:
                    continue
                for first in utg.entry_letters(prev):
                    results.append([(first, prev)] + chain)
                if len(chain) + 1 < bound:
                    for b2, _ in utg.predecessors(prev):
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

    for cycle in closed_walks(node_cycle_bound):
        entry = cycle[0][1]
        entry_letter = cycle[0][0]
        if range_of(utg.fam.graph, (entry_letter,)) == entry.range_set:
            consider((), cycle)
        for prefix in prefixes(entry, cycle[0][0], node_prefix_bound):
            consider(prefix, cycle)
    return tuple(sorted(found.values(), key=LassoFilterFamily.sort_key))


def recursive_infinite_boundary_paths(g, max_len, max_cycle, cap=None):
    """Canonical infinite boundary lassos by recursion: every closed edge
    walk of up to ``max_cycle`` edges, every backward chain of up to
    ``max_len`` edges into its start, canonicalised and filtered by the
    bounds afterwards; past ``cap`` steps it raises ``StepCapExceeded``."""
    from labelled_spaces.boundary import InfinitePath, make_infinite_path

    step = _stepper(cap)
    walks = []

    def extend(start, trail):
        step()
        at = trail[-1].dst if trail else start
        for e in g.edges_from(at):
            if e.dst == start:
                walks.append(trail + [e])
            if len(trail) + 1 < max_cycle:
                extend(start, trail + [e])

    for v in g.vertices:
        extend(v, [])
    def backward_chains(head):
        """Every edge chain of length at most ``max_len`` that ends at
        ``head``, shortest first, starting with the empty chain."""
        chains = [()]
        yield ()
        for _ in range(max_len):
            chains = [(e,) + c for c in chains for e in g.edges_into(c[0].src if c else head)]
            yield from chains

    found = {}
    for cycle in walks:
        for chain in backward_chains(cycle[0].src):
            step()
            path = make_infinite_path(g, chain, cycle)
            if len(path.prefix) <= max_len and len(path.cycle) <= max_cycle:
                found.setdefault((path.prefix, path.cycle), path)
    return tuple(sorted(found.values(), key=InfinitePath.sort_key))


def validate_by_pairs(g, sets):
    """The family validation by pair scans over the members, kept verbatim as
    the differential oracle of ``labelled_spaces.family.validate``: it checks
    the accommodating / weakly-left-resolving / complement-closure flags for
    an arbitrary collection of vertex sets in O(|F|^2) pair tests.

    Never raises for closure failures; each false flag comes with a concrete
    witness.  Sets containing unknown vertices are input errors.
    """
    from labelled_spaces.family import ValidationReport
    from labelled_spaces.graph import range_of
    from labelled_spaces.util import vkey

    for s in sets:
        g.check_vertices(s)
    members = sort_sets(frozenset(s) for s in sets)
    lookup = set(members)
    witnesses = {}

    accommodating = True
    if frozenset() not in lookup:
        accommodating = False
        witnesses["accommodating"] = ("missing empty set",)
    for b in g.alphabet:
        if accommodating and range_of(g, (b,)) not in lookup:
            accommodating = False
            witnesses["accommodating"] = ("missing range of letter", b)
    if accommodating:
        for a in members:
            for b in g.alphabet:
                if g.step(a, b) not in lookup:
                    accommodating = False
                    witnesses["accommodating"] = ("relative range escapes", a, b)
                    break
            if not accommodating:
                break
    if accommodating:
        for i, a in enumerate(members):
            for bset in members[i + 1 :]:
                if a | bset not in lookup:
                    accommodating = False
                    witnesses["accommodating"] = ("union escapes", a, bset)
                    break
                if a & bset not in lookup:
                    accommodating = False
                    witnesses["accommodating"] = ("intersection escapes", a, bset)
                    break
            if not accommodating:
                break

    # Weak left resolving via source traces: for each vertex v and letter b,
    # the members' traces on the b-predecessors of v must pairwise intersect;
    # a disjoint pair of nonempty traces is exactly a violation of
    # r(A & B, b) = r(A, b) & r(B, b).
    weakly_left_resolving = True
    preds = {}
    for e in g.edges:
        preds.setdefault((e.label, e.dst), set()).add(e.src)
    for (b, v), srcs in sorted(preds.items()):
        if not weakly_left_resolving:
            break
        traces = {}
        for a in members:
            t = frozenset(a & srcs)
            if t:
                traces.setdefault(t, a)
        distinct = sorted(traces, key=vkey)
        for i, t1 in enumerate(distinct):
            for t2 in distinct[i + 1 :]:
                if not (t1 & t2):
                    weakly_left_resolving = False
                    witnesses["weakly_left_resolving"] = (traces[t1], traces[t2], b)
                    break
            if not weakly_left_resolving:
                break

    complement_closed = True
    for a in members:
        for bset in members:
            if a - bset not in lookup:
                complement_closed = False
                witnesses["complement_closed"] = (a, bset)
                break
        if not complement_closed:
            break

    return ValidationReport(accommodating, weakly_left_resolving, complement_closed, witnesses)


def closure_by_pairs(g, seeds):
    """The pairwise fixed point that ``labelled_spaces.family.closure``
    replaced by partition refinement, kept verbatim as its differential
    oracle: every round pairs every member with every other.

    Smallest family containing the seeds and all letter ranges that is
    closed under union, intersection, relative complement, and single-letter
    relative ranges.  Terminates: there are at most 2^|vertices| sets.
    """
    from labelled_spaces.family import AccommodatingFamily
    from labelled_spaces.graph import range_of
    from labelled_spaces.util import vkey

    for s in seeds:
        g.check_vertices(s)
    current = {frozenset(s) for s in seeds}
    current.add(frozenset())
    for b in g.alphabet:
        current.add(range_of(g, (b,)))
    while True:
        new = set()
        items = sorted(current, key=vkey)
        for i, a in enumerate(items):
            for bset in items[i:]:
                for candidate in (a | bset, a & bset, a - bset, bset - a):
                    if candidate not in current:
                        new.add(candidate)
            for letter in g.alphabet:
                candidate = g.step(a, letter)
                if candidate not in current:
                    new.add(candidate)
        if not new:
            break
        current |= new
    return AccommodatingFamily(g, tuple(current))


def atoms_by_pairs(family, restriction):
    """The atoms of the algebra of members inside ``restriction`` by the pair
    scan ``RestrictedAlgebra.build`` used before it read them off the minimal
    meets: the nonzero elements with no nonzero element strictly below."""
    elements = tuple(s for s in family.sets if s <= restriction)
    nonzero = [s for s in elements if s]
    return tuple(s for s in nonzero if not any(o < s for o in nonzero))


def preimage_arcs(fam):
    """The transition graph's arcs by the rule it was built with before the
    arc rule A' <= r(A, b): one preimage scan per (range, letter, target), an
    arc where the preimage generator is an atom.  Ranges and atoms are found
    here too (atoms by ``atoms_by_pairs``), so nothing is read off the graph
    under test."""
    from labelled_spaces.filters import _preimage_gen
    from labelled_spaces.graph import range_of
    from labelled_spaces.transition import UTGNode
    from labelled_spaces.util import vkey

    g = fam.graph
    ranges = set()
    frontier = [r for r in (range_of(g, (b,)) for b in g.alphabet) if r]
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
    nodes = {r: tuple(UTGNode(r, a) for a in atoms_by_pairs(fam, r)) for r in ranges}
    edges = []
    for r in sorted(ranges, key=vkey):
        source = fam.algebra_over(r)
        atoms = atoms_by_pairs(fam, r)
        for b in g.alphabet:
            for dst in nodes.get(g.step(r, b), ()):
                pre = _preimage_gen(fam, source, dst.atom, (b,))
                if pre in atoms:
                    edges.append((UTGNode(r, pre), b, dst))
    return tuple(sorted(edges, key=lambda e: (e[0].sort_key(), e[1], e[2].sort_key())))


def deterministic_cycles_by_trail(g):
    """``labelled_spaces.boundary._deterministic_cycles`` as it was before it
    read the cycles off the strongly connected components: from each vertex
    of out-degree one, in order, it follows the forced edges until the trail
    closes at its start or fails."""
    out = []
    deg = {v: g.out_degree(v) for v in g.vertices}
    seen = set()
    for v in sorted(g.vertices):
        if v in seen or deg[v] != 1:
            continue
        trail = []
        at = v
        ok = True
        while True:
            if deg[at] != 1:
                ok = False
                break
            e = g.edges_from(at)[0]
            trail.append(e)
            at = e.dst
            if at == v:
                break
            if any(t.src == at for t in trail):
                ok = False
                break
        if ok:
            for e in trail:
                seen.add(e.src)
            out.append(tuple(trail))
    return out


def isolated_points_by_dedup(g, max_prefix):
    """``labelled_spaces.boundary.isolated_points`` as it was before it kept
    only canonical (chain, rotation) pairs: it builds a path for every pair
    and drops repeats and over-long prefixes afterwards.  Its cycles come
    from ``deterministic_cycles_by_trail``."""
    from labelled_spaces.boundary import FinitePath, InfinitePath, make_infinite_path

    finite = finite_boundary_paths_backward(g, max_prefix)
    infinite = {}
    for cycle in deterministic_cycles_by_trail(g):
        for phase in range(len(cycle)):
            rotated = cycle[phase:] + cycle[:phase]
            for chain in backward_chains(g, rotated[0].src, max_prefix):
                path = make_infinite_path(g, chain, rotated)
                if len(path.prefix) <= max_prefix:
                    infinite.setdefault((path.prefix, path.cycle), path)
    return tuple(
        sorted(finite, key=FinitePath.sort_key)
        + sorted(infinite.values(), key=InfinitePath.sort_key)
    )


def finite_boundary_paths_unpruned(g, max_len):
    """``labelled_spaces.boundary._finite_boundary_paths`` as it was before it
    grew walks only toward sinks: every walk of at most ``max_len`` edges is
    grown, and the ones ending at a singular vertex are kept."""
    from labelled_spaces.boundary import FinitePath
    from labelled_spaces.graph import singular_vertices

    sing = singular_vertices(g)
    out = [FinitePath(v, ()) for v in sorted(sing)]
    frontier = [((), v) for v in sorted(g.vertices)]
    for _ in range(max_len):
        nxt = []
        for edges, at in frontier:
            for e in g.edges_from(at):
                nxt.append((edges + (e,), e.dst))
        frontier = nxt
        for edges, at in frontier:
            if at in sing:
                out.append(FinitePath(edges[0].src, edges))
    return tuple(sorted(out, key=FinitePath.sort_key))


def is_tight_finite_type_by_elements(fam, word, flt):
    """``labelled_spaces.spectra.is_tight_finite_type`` as it was before it
    tested atoms: an ultrafilter whose generator holds a nonempty element of
    the algebra made of sinks, found by scanning every element."""
    from labelled_spaces.graph import sinks

    if not flt.is_ultrafilter:
        return False
    pocket = flt.gen & sinks(fam.graph)
    return any(b and b <= pocket for b in fam.algebra(word).elements)


def parse_vset_list_by_reslicing(text):
    """``labelled_spaces.util.parse_vset_list`` as it was before it walked one
    index through the text: the remaining text is sliced and stripped after
    every set, so the cost grows with the square of the number of sets."""
    from labelled_spaces.errors import ParseError
    from labelled_spaces.util import parse_vset

    text = text.strip()
    sets = []
    while text:
        if not text.startswith("{"):
            raise ParseError("expected '{' in set list, got %r" % text)
        end = text.find("}")
        if end < 0:
            raise ParseError("unterminated set in %r" % text)
        sets.append(parse_vset(text[: end + 1]))
        text = text[end + 1 :].strip()
    return sets


def finite_towers_by_words(fam, max_word_len):
    """The finite-type towers of ``labelled_spaces.tight_spectrum`` as it
    listed them before it read them off the transition graph's walks: every
    labelled word up to ``max_word_len``, every ultrafilter of its algebra
    whose generator lies inside the sinks, and each tower derived from that
    deepest filter by preimage scans (``FiniteFilterFamily.from_top``)."""
    from labelled_spaces.filters import FiniteFilterFamily, ultrafilters
    from labelled_spaces.graph import labelled_words_up_to, sinks

    sink = sinks(fam.graph)
    towers = [
        FiniteFilterFamily.from_top(fam, word, flt.gen)
        for word in labelled_words_up_to(fam.graph, max_word_len)
        for flt in ultrafilters(fam.algebra(word))
        if flt.gen <= sink
    ]
    return tuple(sorted(towers, key=FiniteFilterFamily.sort_key))


def tower_gens_by_prefixes(fam, word, gens):
    """The level checks of ``FiniteFilterFamily`` as it made them before it
    carried each level's range from the last, kept as their differential
    oracle: one ``fam.algebra`` lookup of each prefix, O(k^2) in the word
    length.  Returns the generators, or raises as the constructor does."""
    from labelled_spaces.errors import DomainError
    from labelled_spaces.util import format_vset

    gens = tuple(frozenset(g) if g is not None else None for g in gens)
    if len(gens) != len(word) + 1:
        raise DomainError("need one filter per level, %d given" % len(gens))
    if gens[0] is None and not word:
        raise DomainError("the empty word requires a nonempty level-0 filter")
    for n, g in enumerate(gens):
        if g is None:
            if n > 0:
                raise DomainError("only the level-0 filter may be empty")
            continue
        if not g or g not in fam.algebra(word[:n]):
            raise DomainError("level %d generator %s is not a nonzero element of its algebra"
                              % (n, format_vset(g)))
    return gens


def from_top_by_prefixes(fam, word, top_gen):
    """``FiniteFilterFamily.from_top`` as it was before it carried each
    level's range from the last: one ``fam.algebra`` lookup of each prefix.
    Returns the generators, checked by ``tower_gens_by_prefixes``."""
    from labelled_spaces.errors import DomainError
    from labelled_spaces.filters import PrincipalFilter, _preimage_gen

    fam.require_wlr()
    word = tuple(word)
    gens = [None] * (len(word) + 1)
    gens[len(word)] = frozenset(top_gen)
    for n in range(len(word) - 1, -1, -1):
        flt = PrincipalFilter(fam.algebra(word[:n + 1]), gens[n + 1])
        gens[n] = _preimage_gen(fam, fam.algebra(word[:n]), flt.gen, (word[n],))
        if gens[n] is None and n > 0:
            raise DomainError("level %d filter is empty; tower is not valid" % n)
    return tower_gens_by_prefixes(fam, word, gens)


# The walkers that the walk system of ``labelled_spaces.transition._Walks``
# replaced, kept as they were: the lasso walker and its counter over
# (starts, arcs), their (starts, arcs) on the edges and on the transition
# graph, the backward chains into sinks and their counts, and the finite
# tower walk and count of ``tight_spectrum``.


def canonical_lassos(starts, arcs, max_prefix, max_cycle):
    """Every canonical lasso (prefix, cycle) of labels within the bounds
    that a walk can follow forever, each exactly once: walks of up to
    max_prefix + max_cycle steps grow on an explicit stack, and each is
    split every way into a prefix and a primitive cycle whose last label
    differs from the prefix's.  Which labels may follow a step must depend
    on its label alone."""
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


def count_canonical_lassos(starts, arcs, max_prefix, max_cycle):
    """The number of lassos ``canonical_lassos`` yields, by Möbius inversion
    over closed walks of label groups (labels with the same followers):
    the sum over x and d <= max_cycle of in(x) * M(max_cycle // d) *
    #{closed walks of d labels from x}, with in(x) the walks of
    max_prefix + 1 labels ending at x and M the Mertens function."""
    from collections import Counter

    from labelled_spaces.transition import _mertens, strongly_connected_components

    kind, follow = label_groups(starts, arcs)
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
        k: i for i, (c, _) in enumerate(strongly_connected_components(
            range(len(follow)), [(k, None, kind[y]) for k, ys in enumerate(follow) for y in ys]))
        for k in c
    }
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


def label_groups(starts, arcs):
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


def edge_lasso_steps(g):
    """The lasso walker's (starts, arcs) on the edges: an edge's successors
    are the edges out of its target, and only edges whose target can reach
    a cycle (``cycle_reachers``) are walked."""
    live = cycle_reachers(g)
    return (
        [(e, e.dst) for e in g.edges if e.dst in live],
        lambda v: [(e, e.dst) for e in g.edges_from(v) if e.dst in live],
    )


def cycle_reachers(g):
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


def transition_lasso_steps(utg):
    """The lasso walker's (starts, arcs) on a transition graph: steps are
    (letter, atom) items, and a walk enters with a letter whose range is
    the first node's range set."""
    starts = [((b, n.atom), n) for b, r in utg._first.items() for n in utg._over.get(r, ())]

    def arcs(node):
        return [((b, dst.atom), dst) for b, dst in utg.successors(node)]

    return starts, arcs


def backward_chains(g, head, max_len):
    """Every edge chain of length at most ``max_len`` that ends at ``head``,
    shortest first, starting with the empty chain."""
    chains = [()]
    yield ()
    for _ in range(max_len):
        chains = [(e,) + c for c in chains for e in g.edges_into(c[0].src if c else head)]
        yield from chains


def finite_boundary_paths_backward(g, max_len):
    """The finite boundary paths of at most ``max_len`` edges: each sink and
    each edge chain grown backwards into it."""
    from labelled_spaces.boundary import FinitePath
    from labelled_spaces.graph import singular_vertices

    return tuple(sorted(
        (FinitePath(chain[0].src if chain else s, chain)
         for s in singular_vertices(g) for chain in backward_chains(g, s, max_len)),
        key=FinitePath.sort_key,
    ))


def chain_counts(g, max_len):
    """Yields in_0, ..., in_max_len: in_k[v] counts the chains of k edges
    that end at v."""
    ins = dict.fromkeys(g.vertices, 1)
    yield ins
    for _ in range(max_len):
        ins = {v: sum(ins[e.src] for e in g.edges_into(v)) for v in g.vertices}
        yield ins


def count_finite_boundary_paths(g, max_len):
    """The chains of at most ``max_len`` edges into the sinks, counted."""
    from labelled_spaces.graph import singular_vertices

    sing = singular_vertices(g)
    return sum(ins[v] for ins in chain_counts(g, max_len) for v in sing)


def count_isolated_points(g, max_prefix):
    """``len(isolated_points(g, max_prefix))``, counted: the finite boundary
    paths, and the chains of exactly ``max_prefix`` edges into each
    rotation's head."""
    from collections import deque

    from labelled_spaces.boundary import _deterministic_cycles

    last = deque(chain_counts(g, max_prefix), maxlen=1).pop()
    return count_finite_boundary_paths(g, max_prefix) + sum(
        last[c[p].src] for c in _deterministic_cycles(g) for p in range(len(c)))


def finite_tower_walks(utg, max_word_len):
    """The (letter, atom) walks of ``tight_spectrum``'s finite-type towers as
    its stack walked them: every walk of 1 to ``max_word_len`` nodes from
    the entry items, kept when it ends at a node whose atom lies inside the
    sinks."""
    from labelled_spaces.graph import sinks

    sink = sinks(utg.fam.graph)
    stack = [((item,), node) for item, node in transition_lasso_steps(utg)[0]] if max_word_len else []
    while stack:
        walk, node = stack.pop()
        if node.atom <= sink:
            yield walk
        if len(walk) < max_word_len:
            stack.extend((walk + ((b, dst.atom),), dst) for b, dst in utg.successors(node))


def count_finite_tower_walks(utg, max_word_len):
    """The walks ``finite_tower_walks`` yields, counted node by node."""
    from labelled_spaces.graph import sinks

    sink = sinks(utg.fam.graph)
    walks = dict.fromkeys(utg.nodes, 0)
    for _, node in transition_lasso_steps(utg)[0]:
        walks[node] += 1
    finite = 0
    for _ in range(max_word_len):
        finite += sum(n for node, n in walks.items() if node.atom <= sink)
        step = dict.fromkeys(utg.nodes, 0)
        for src, _, dst in utg.edges:
            step[dst] += walks[src]
        walks = step
    return finite
