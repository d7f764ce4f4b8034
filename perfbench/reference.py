"""Independent reference answers for the benchmark's checker.

Nothing here imports the library.  A space comes in as plain data
(``gen.Space``); vertex sets are bitmasks, relative ranges of words are
computed by enumerating every labelled path, and each answer is derived from
the definitions in the paper rather than from the library's shortcuts
(principal generators, atom formulas, trace tests).  The checker calls this
only after the timed loop has ended.
"""

EMPTY_WORD = "@"


def fmt_set(names):
    return "{%s}" % " ".join(sorted(names))


def fmt_word(word):
    return ".".join(word) if word else EMPTY_WORD


def parse_word(text):
    text = text.strip()
    return () if text in ("", EMPTY_WORD) else tuple(text.split("."))


def parse_set(text):
    body = text.strip()[1:-1].strip()
    return frozenset(body.split()) if body else frozenset()


def vkey(names):
    return tuple(sorted(names))


class Refusal(Exception):
    """The definitions say the operation has no answer; the library must
    refuse it (exit 1 with one error line on the command line)."""


class Ref:
    """Reference model of one labelled space."""

    def __init__(self, space):
        self.space = space
        self.verts = tuple(sorted(space.vertices))
        self.bit = {v: 1 << i for i, v in enumerate(self.verts)}
        self.full = (1 << len(self.verts)) - 1
        self.edges = tuple(space.edges)
        self.letters = tuple(sorted({e[2] for e in self.edges}))
        self._step = {}
        self._rr = {}
        self._algebras = {}
        self._flags = None
        for _, src, b, dst in self.edges:
            table = self._step.setdefault(b, {})
            table[self.bit[src]] = table.get(self.bit[src], 0) | self.bit[dst]
        if space.kind == "powerset":
            masks = range(self.full + 1)
        elif space.kind == "explicit":
            masks = {self.mask(s) for s in space.sets}
        else:
            masks = self._close({self.mask(s) for s in space.seeds})
        self.family = tuple(sorted(set(masks), key=self.key))
        self.members = frozenset(self.family)

    # -- sets ------------------------------------------------------------
    def mask(self, names):
        out = 0
        for v in names:
            out |= self.bit[v]
        return out

    def names(self, mask):
        return frozenset(v for v in self.verts if mask & self.bit[v])

    def key(self, mask):
        return vkey(self.names(mask))

    def fmt(self, mask):
        return fmt_set(self.names(mask))

    # -- relative ranges -------------------------------------------------
    def step(self, mask, letter):
        """r(A, b) from the definition: targets of b-edges leaving A."""
        out = 0
        for src, dsts in self._step.get(letter, {}).items():
            if mask & src:
                out |= dsts
        return out

    def rr(self, mask, word):
        """r(A, w) by enumerating every path labelled w that starts in A."""
        word = tuple(word)
        key = (mask, word)
        if key not in self._rr:
            if not word:
                self._rr[key] = mask
            else:
                ends = 0
                stack = [(self.bit[e[3]], 1) for e in self.edges
                         if e[2] == word[0] and mask & self.bit[e[1]]]
                while stack:
                    at, depth = stack.pop()
                    if depth == len(word):
                        ends |= at
                        continue
                    for _, src, b, dst in self.edges:
                        if b == word[depth] and self.bit[src] == at:
                            stack.append((self.bit[dst], depth + 1))
                self._rr[key] = ends
        return self._rr[key]

    def range_of(self, word):
        return self.rr(self.full, word)

    def is_path(self, word):
        return not word or bool(self.range_of(word))

    def words_up_to(self, max_len):
        """Labelled paths of length at most max_len, shortest first."""
        out, frontier = [()], [()]
        for _ in range(max_len):
            frontier = [w + (b,) for w in frontier for b in self.letters
                        if self.range_of(w + (b,))]
            out.extend(frontier)
        return out

    def _close(self, seeds):
        fam = set(seeds) | {0} | {self.range_of((b,)) for b in self.letters}
        fresh = set(fam)
        while fresh:
            found = set()
            for a in fresh:
                for b in fam:
                    found.update((a | b, a & b, a & ~b, b & ~a))
                found.update(self.step(a, letter) for letter in self.letters)
            fresh = found - fam
            fam |= fresh
        return fam

    # -- family flags ----------------------------------------------------
    def flags(self):
        """(accommodating, weakly left resolving, complement closed)."""
        if self._flags is None:
            fam, members = self.family, self.members
            acc = 0 in members and all(self.range_of((b,)) in members for b in self.letters)
            acc = acc and all(self.step(a, b) in members for a in fam for b in self.letters)
            comp = True
            for i, a in enumerate(fam):
                for b in fam[i:]:
                    if acc and ((a | b) not in members or (a & b) not in members):
                        acc = False
                    if comp and ((a & ~b) not in members or (b & ~a) not in members):
                        comp = False
                if not (acc or comp):
                    break
            self._flags = (acc, self._wlr(), comp)
        return self._flags

    def _wlr(self):
        # r(A & B, b) = r(A, b) & r(B, b) for all members; r(., b) only sees
        # a set's part on the sources of b-edges, so pairs of those parts
        # cover every pair of members
        for b, table in self._step.items():
            sources = 0
            for src in table:
                sources |= src
            parts = sorted({a & sources for a in self.family})
            for i, x in enumerate(parts):
                for y in parts[i:]:
                    if self.step(x & y, b) != self.step(x, b) & self.step(y, b):
                        return False
        return True

    def wlr_witness_ok(self, a, b, letter):
        return (a in self.members and b in self.members and letter in self.letters
                and self.step(a & b, letter) != self.step(a, letter) & self.step(b, letter))

    # -- restricted algebras ---------------------------------------------
    def restriction(self, word):
        return self.range_of(word) if word else self.full

    def algebra(self, word):
        """(top or None, elements, atoms) of the algebra below r(word)."""
        top = self.restriction(word)
        if top not in self._algebras:
            elems = [a for a in self.family if a & ~top == 0]
            nonzero = [a for a in elems if a]
            atoms = [a for a in nonzero if not any(o != a and o & ~a == 0 for o in nonzero)]
            self._algebras[top] = ((top if top in self.members else None), elems, atoms)
        return self._algebras[top]

    def in_algebra(self, mask, word):
        return mask in self.members and mask & ~self.restriction(word) == 0

    # -- the inverse semigroup -------------------------------------------
    def product(self, s, t):
        """(a,A,b)(c,B,d) from the definition; None is the zero element."""
        if s is None or t is None:
            return None
        (alpha, a, beta), (gamma, b, delta) = s, t
        if gamma[: len(beta)] == beta:
            ext = gamma[len(beta):]
            mid = self.rr(a, ext) & b
            out = (alpha + ext, mid, delta)
        elif beta[: len(gamma)] == gamma:
            ext = beta[len(gamma):]
            mid = a & self.rr(b, ext)
            out = (alpha, mid, delta + ext)
        else:
            return None
        return out if out[1] else None

    def leq(self, p, q):
        """e <= f iff e = ef, for idempotents of an inverse semigroup."""
        if p is None:
            return True
        return self.product(p, q) == p

    def fmt_element(self, s):
        if s is None:
            return "0"
        return "(%s,%s,%s)" % (fmt_word(s[0]), self.fmt(s[1]), fmt_word(s[2]))

    def parse_element(self, text):
        text = text.strip()
        if text == "0":
            return None
        left, rest = text[1:-1].split(",{", 1)
        mid, right = rest.split("},", 1)
        return (parse_word(left), self.mask(parse_set("{" + mid + "}")), parse_word(right))

    # -- filters and towers ----------------------------------------------
    def principal(self, members):
        """Generator of a set of algebra members that must be a filter: its
        meet, which has to be one of the members; None when empty."""
        if not members:
            return None
        meet = self.full
        for m in members:
            meet &= m
        if meet not in members:
            raise Refusal("not principal")
        return meet

    def preimage(self, alpha, beta, gen):
        """{A in B(alpha) nonzero : r(A, beta) lies in the filter up(gen)}."""
        _, elems, _ = self.algebra(alpha)
        return self.principal([a for a in elems if a and gen & ~self.rr(a, beta) == 0])

    def from_top(self, word, top):
        """The complete tower F_n = {A : r(A, w_(n+1)) in F_(n+1)}."""
        if not top or not self.in_algebra(top, word):
            raise Refusal("generator is not in the algebra")
        gens = [None] * len(word) + [top]
        for n in range(len(word) - 1, -1, -1):
            gens[n] = self.preimage(word[:n], (word[n],), gens[n + 1])
            if gens[n] is None and n > 0:
                raise Refusal("empty level")
        return tuple(gens)

    def reaches(self, word, gens, n, mask):
        """Whether r(A, w[n:m]) contains a level generator for some m >= n."""
        return any(gens[m] is not None and gens[m] & ~self.rr(mask, word[n:m]) == 0
                   for m in range(n, len(word) + 1))

    def completion(self, word, gens):
        out = []
        for n in range(len(word) + 1):
            _, elems, _ = self.algebra(word[:n])
            out.append(self.principal([a for a in elems if a and self.reaches(word, gens, n, a)]))
        if any(g is None for g in out[1:]) or (not word and out[0] is None):
            raise Refusal("empty level")
        return tuple(out)

    def member(self, word, gens, p):
        """Membership of the idempotent (alpha, A, alpha) in the filter the
        tower generates: some deeper level sits inside r(A, .)."""
        if p is None:
            return False
        alpha, mask, _ = p
        if len(alpha) > len(word) or word[: len(alpha)] != alpha:
            return False
        return self.reaches(word, gens, len(alpha), mask)

    def complete_towers(self, word):
        out = []
        for top in sorted((a for a in self.algebra(word)[1] if a), key=self.key):
            try:
                out.append(self.from_top(word, top))
            except Refusal:
                continue
        return out

    def is_maximal(self, word, gens):
        def below(x, y):
            return all(a is None or (b is not None and b & ~a == 0) for a, b in zip(x, y))

        return not any(o != gens and below(gens, o) for o in self.complete_towers(word))

    def refutation_ok(self, word, gens, depth, answer):
        """A refutation (level n, member X, parts) must be a real one: X in
        F_n, the parts algebra members below X that miss F_n and cover X.
        For a complement-closed family 'none found' must also be true."""
        levels = range(min(depth, len(word)) + 1)
        if answer is None:
            if not self.flags()[2]:
                return True
            for n in levels:
                gen = gens[n]
                if gen is None:
                    continue
                _, elems, _ = self.algebra(word[:n])
                for x in elems:
                    if x and gen & ~x == 0:
                        cover = 0
                        for e in elems:
                            if e and e & ~x == 0 and gen & ~e:
                                cover |= e
                        if cover == x:
                            return False
            return True
        (alpha, x, beta), parts = answer
        n = len(alpha)
        if alpha != beta or n not in levels or word[:n] != alpha or gens[n] is None:
            return False
        gen = gens[n]
        if not (x and self.in_algebra(x, alpha) and gen & ~x == 0):
            return False
        union = 0
        for p in parts:
            if not (p and self.in_algebra(p, alpha) and p & ~x == 0 and gen & ~p):
                return False
            union |= p
        return union == x

    # -- boundary paths (powerset spaces of left-resolving graphs) ---------
    def out_edges(self, v):
        return [e for e in self.edges if e[1] == v]

    def sinks(self):
        return [v for v in self.verts if not self.out_edges(v)]

    def paths(self, length):
        """Every edge sequence of the given length that chains."""
        out = [()]
        for _ in range(length):
            out = [p + (e,) for p in out for e in self.edges if not p or p[-1][3] == e[1]]
        return out

    def finite_boundary(self, max_len):
        sinks = set(self.sinks())
        found = [(v, ()) for v in sinks]
        for n in range(1, max_len + 1):
            found += [(p[0][1], p) for p in self.paths(n) if p[-1][3] in sinks]
        return sorted(found, key=lambda f: (len(f[1]), f[0], tuple(e[0] for e in f[1])))

    @staticmethod
    def canonical(prefix, cycle):
        """Shortest (prefix, primitive cycle) giving the same infinite
        sequence: try every split of the sequence, shortest first."""
        seq_len = len(prefix) + 2 * len(cycle)

        def at(i):
            return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]

        for p in range(len(prefix) + 1):
            for c in range(1, len(cycle) + 1):
                if len(cycle) % c == 0 and all(
                    at(i) == at(i + c) for i in range(p, p + seq_len)
                ):
                    return tuple(at(i) for i in range(p)), tuple(at(i) for i in range(p, p + c))
        return tuple(prefix), tuple(cycle)

    @staticmethod
    def _sorted_lassos(found):
        return sorted(found, key=lambda l: (len(l[0]), tuple(e[0] for e in l[0]),
                                            len(l[1]), tuple(e[0] for e in l[1])))

    def lassos(self, max_prefix, max_cycle):
        """Canonical edge lassos with prefix <= max_prefix, cycle <= max_cycle,
        by splitting every path of length up to their sum."""
        found = set()
        for total in range(1, max_prefix + max_cycle + 1):
            for path in self.paths(total):
                for c in range(1, min(max_cycle, total) + 1):
                    pre, cyc = path[: total - c], path[total - c:]
                    if len(pre) <= max_prefix and cyc[-1][3] == cyc[0][1]:
                        found.add(self.canonical(pre, cyc))
        return self._sorted_lassos(found)

    def forced_lassos(self, max_prefix):
        """Canonical lassos with prefix <= max_prefix whose cycle is forced:
        every cycle vertex has exactly one outgoing edge."""
        cycles = []
        for v in self.verts:
            cyc, at = [], v
            for _ in self.verts:
                out = self.out_edges(at)
                if len(out) != 1:
                    break
                cyc.append(out[0])
                at = out[0][3]
                if at == v:
                    cycles.append(tuple(cyc))
                    break
        found = set()
        for cyc in cycles:
            for n in range(max_prefix + 1):
                for pre in self.paths(n):
                    if not pre or pre[-1][3] == cyc[0][1]:
                        lasso = self.canonical(pre, cyc)
                        if len(lasso[0]) <= max_prefix:
                            found.add(lasso)
        return self._sorted_lassos(found)

    def _reach(self, nodes, succ):
        reach = {}
        for v in nodes:
            seen, todo = set(), [v]
            while todo:
                for w in succ.get(todo.pop(), ()):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            reach[v] = seen
        return reach

    def branching(self, nodes, arcs):
        """Some strongly connected component has more internal arcs than
        nodes, i.e. carries two distinct cycles."""
        succ = {}
        for u, _, w in arcs:
            succ.setdefault(u, []).append(w)
        reach = self._reach(nodes, succ)
        for v in nodes:
            comp = {w for w in nodes if w == v or (w in reach[v] and v in reach[w])}
            internal = [a for a in arcs if a[0] in comp and a[2] in comp]
            if internal and len(internal) > len(comp):
                return True
        return False

    def graph_branching(self):
        return self.branching(self.verts, [(e[1], e[2], e[3]) for e in self.edges])

    @staticmethod
    def fmt_finite(f):
        base, edges = f
        if not edges:
            return base
        return " ".join([edges[0][1]] + ["-[%s]%s-> %s" % (e[0], e[2], e[3]) for e in edges])

    @staticmethod
    def fmt_infinite(lasso):
        pre, cyc = lasso
        p = " ".join("[%s]%s" % (e[0], e[2]) for e in pre)
        c = " ".join("[%s]%s" % (e[0], e[2]) for e in cyc)
        return "%s %s(%s)^inf" % ((pre or cyc)[0][1], p + " " if p else "", c)

    def boundary_text(self, max_len, max_cycle):
        fin = self.finite_boundary(max_len)
        inf = self.lassos(max_len, max_cycle)
        lines = ["finite paths (%d):" % len(fin)] + ["  " + self.fmt_finite(f) for f in fin]
        lines += ["infinite paths (%d):" % len(inf)] + ["  " + self.fmt_infinite(l) for l in inf]
        lines.append("lassos exhaust infinite paths: %s"
                     % ("no (branching cycles)" if self.graph_branching() else "yes"))
        return "\n".join(lines) + "\n"

    def isolated_text(self, max_prefix):
        # finite boundary paths are isolated; an infinite path is isolated
        # iff it ends in a forced cycle
        fin = self.finite_boundary(max_prefix)
        inf = self.forced_lassos(max_prefix)
        lines = ["isolated points (%d):" % (len(fin) + len(inf))]
        lines += ["  " + self.fmt_finite(f) for f in fin]
        lines += ["  " + self.fmt_infinite(l) for l in inf]
        return "\n".join(lines) + "\n"

    # -- the tight spectrum of a left-resolving powerset space -------------
    def _source(self, letter, dst):
        srcs = [e[1] for e in self.edges if e[2] == letter and e[3] == dst]
        return srcs[0] if len(srcs) == 1 else None

    def transition_graph(self):
        """Nodes (R, v): R a range reached from a letter range by steps, v in
        R (the atoms of the powerset algebra below R).  Arc (R,u) -b-> (R',w)
        iff R' = r(R, b) and up{u} is the preimage of up{w}: u is the unique
        b-source of w."""
        ranges, todo = set(), [self.range_of((b,)) for b in self.letters]
        while todo:
            r = todo.pop()
            if r and r not in ranges:
                ranges.add(r)
                todo.extend(self.step(r, b) for b in self.letters)
        key = lambda node: (self.key(node[0]), (node[1],))
        nodes = sorted(((r, v) for r in ranges for v in self.names(r)), key=key)
        arcs = []
        for r, u in nodes:
            for b in self.letters:
                r2 = self.step(r, b)
                arcs += [((r, u), b, (r2, w)) for w in sorted(self.names(r2))
                         if self._source(b, w) == u]
        arcs.sort(key=lambda a: (key(a[0]), a[1], key(a[2])))
        return nodes, arcs, key

    def ufgraph_text(self):
        nodes, arcs, key = self.transition_graph()
        fmt = lambda node: "(%s ; {%s})" % (self.fmt(node[0]), node[1])
        lines = ["nodes:"] + ["  " + fmt(n) for n in nodes]
        lines.append("edges (level orientation: source at level n, target at level n+1):")
        lines += ["  %s -%s-> %s" % (fmt(a[0]), a[1], fmt(a[2])) for a in arcs]
        lines.append("edges (preimage-map orientation: target determines source):")
        lines += ["  %s -%s-> %s" % (fmt(a[2]), a[1], fmt(a[0]))
                  for a in sorted(arcs, key=lambda a: (key(a[2]), a[1], key(a[0])))]
        lines.append("branching cycles: %s" % ("yes" if self.branching(nodes, arcs) else "no"))
        return "\n".join(lines) + "\n"

    def tight_text(self, max_word, max_cycle):
        """By the paper's theorem the tight spectrum of a left-resolving
        powerset space is the image of the boundary: a finite path gives the
        tower of singletons along its label, a lasso the periodic one."""
        fin = sorted(((tuple(e[2] for e in f[1]), f[1][-1][3] if f[1] else f[0])
                      for f in self.finite_boundary(max_word)),
                     key=lambda t: (len(t[0]), t[0], (t[1],)))
        lines = ["finite type (%d):" % len(fin)]
        lines += ["  %s ; gen={%s}" % (fmt_word(w), v) for w, v in fin]
        infs = []
        for pre, cyc in self.lassos(max_word, max_cycle):
            pl, cl = tuple(e[2] for e in pre), tuple(e[2] for e in cyc)
            pg, cg = tuple((e[3],) for e in pre), tuple((e[3],) for e in cyc)
            infs.append(((len(pl), pl, pg, len(cl), cl, cg), (pre or cyc)[0][1]))
        infs.sort()
        lines.append("infinite type (%d):" % len(infs))
        for (_, pl, pg, _, cl, cg), f0 in infs:
            lines.append("  %s(%s)^inf ; gens=%s(%s)^inf ; f0={%s}" % (
                fmt_word(pl) if pl else "", fmt_word(cl),
                "".join("{%s}" % g for (g,) in pg), "".join("{%s}" % g for (g,) in cg), f0))
        nodes, arcs, _ = self.transition_graph()
        lines.append("lassos exhaust infinite type: %s"
                     % ("no (branching cycles)" if self.branching(nodes, arcs) else "yes"))
        return "\n".join(lines) + "\n"

    def compare_counts(self, max_len, max_cycle):
        nf = len(self.finite_boundary(max_len))
        ni = len(self.lassos(max_len, max_cycle))
        return "boundary: %d finite + %d infinite | spectrum: %d finite + %d infinite" % (
            nf, ni, nf, ni)
