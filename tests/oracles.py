"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's composition-law and principal-filter
shortcuts: relative ranges by explicit path enumeration, filters by checking
every subset of an algebra against the definition.
"""


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
