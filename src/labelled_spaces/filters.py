"""Filters in restricted algebras and filter towers along words.

Every algebra here is a finite meet-semilattice, so filters are stored by
their principal generator and the ultrafilters are exactly the up-sets of
atoms.  A filter in the idempotent semilattice of the triple semigroup is
described by a word together with a tower of level filters tied together by
the preimage map of each letter; finite words use an explicit tower
(``FiniteFilterFamily``), infinite eventually periodic words a lasso
(``LassoFilterFamily``).

Both kinds share one tower core: ``_preimage_gen`` is the one preimage scan
and ``_reaches`` the one "some deeper level filter pulls back to this set"
walk; admissibility, completeness, completion and membership are built from
them once and bound into both classes.  The core reads a tower only through
``fam``, ``letter(n)``, ``gen_at(n)``, ``algebra_at(n)``, ``levels()``,
``_check_levels()`` (the level pairs (n, m) tied by letter n+1),
``_phase(n)`` (equal phases mean equal generators followed by equal letters;
None at the end of a finite word) and ``_with_gens(gens)`` (the tower on the
same word with new generators).  ``_range_at`` carries the range of each
level to the next in the tower's ``_ranges``, which starts with the vertex
set, so each level's algebra is found in one step from the level before.
"""

from functools import reduce

from .errors import DomainError, ParseError
from .graph import sinks
from .util import (
    Immutable,
    canonical_lasso,
    format_vset,
    format_word,
    lasso_value,
    parse_vset,
    parse_word,
    vkey,
)


class PrincipalFilter(Immutable):
    """The up-set of a nonzero generator inside a restricted algebra."""

    __slots__ = _fields = ("algebra", "gen")

    def __init__(self, algebra, gen):
        if not gen:
            raise DomainError("a filter cannot contain the empty set")
        if gen not in algebra:
            raise DomainError("generator %s is not in the algebra" % format_vset(gen))
        self._set(algebra=algebra, gen=gen)

    def _key(self):
        return (self.algebra, self.gen)

    def members(self):
        return tuple(a for a in self.algebra.elements if self.gen <= a)

    def __contains__(self, vset):
        return frozenset(vset) in self.algebra and self.gen <= frozenset(vset)

    @property
    def is_ultrafilter(self):
        return self.gen in self.algebra.atoms

    def __le__(self, other):
        """Filter inclusion: a smaller generator means a larger filter."""
        return other.gen <= self.gen

    def __str__(self):
        return "up%s" % format_vset(self.gen)


def ultrafilters(algebra):
    """The ultrafilters of a finite restricted algebra, one per atom."""
    return tuple(PrincipalFilter(algebra, a) for a in sorted(algebra.atoms, key=vkey))


def all_filters(algebra):
    """Every filter of the algebra, one per nonzero element."""
    return tuple(
        PrincipalFilter(algebra, g) for g in sorted(algebra.elements, key=vkey) if g
    )


def _generator(members):
    """The least element of a filter given by its members, None when empty."""
    if not members:
        return None
    gen = reduce(lambda a, b: a & b, members)
    if gen not in members:
        raise DomainError("filter preimage is not principal; family is not usable here")
    return gen


def _preimage_gen(fam, source, gen, beta):
    """Generator of {A in source : gen <= r(A, beta)}, the preimage of the
    filter generated by ``gen`` under A |-> r(A, beta); None when empty."""
    fam.require_wlr()
    return _generator([a for a in source.elements if a and gen <= fam.rel_range(a, beta)])


def preimage_filter(fam, alpha, beta, flt):
    """Pull a filter over the word alpha+beta back to a filter over alpha.

    This is the inverse image under A |-> r(A, beta): the sets whose relative
    range along beta lies in the given filter.  For nonempty alpha the result
    is again a filter; for the empty word it may be empty (None).
    """
    fam.require_wlr()
    alpha, beta = tuple(alpha), tuple(beta)
    if flt.algebra != fam.algebra(alpha + beta):
        raise DomainError("filter does not live over the word %s" % format_word(alpha + beta))
    source = fam.algebra(alpha)
    gen = _preimage_gen(fam, source, flt.gen, beta)
    return None if gen is None else PrincipalFilter(source, gen)


def _reaches(tower, n, vset):
    """Whether r(vset, w_{n+1..m}) contains gen_m for some level m >= n.

    The walk ends at the end of a finite word, or when a (phase, set) state
    repeats: from there on it could only cycle."""
    seen = set()
    while vset:
        gen = tower.gen_at(n)
        if gen is not None and gen <= vset:
            return True
        state = (tower._phase(n), vset)
        if state[0] is None or state in seen:
            return False
        seen.add(state)
        n += 1
        vset = tower.fam.rel_range(vset, (tower.letter(n),))
    return False


def _range_at(tower, n):
    """The range of the first n letters, carried one step per level and kept."""
    ranges = tower._ranges
    while len(ranges) <= n:
        ranges.append(tower.fam.graph.step(ranges[-1], tower.letter(len(ranges))))
    return ranges[n]


def _filter_at(tower, n):
    gen = tower.gen_at(n)
    return None if gen is None else PrincipalFilter(tower.algebra_at(n), gen)


def _is_admissible(tower):
    """F_n <= the preimage of F_m at every checked level pair.  By
    principality it suffices to test the generators."""
    return all(
        tower.gen_at(n) is None
        or tower.gen_at(m) <= tower.fam.rel_range(tower.gen_at(n), (tower.letter(n + 1),))
        for n, m in tower._check_levels()
    )


def _is_complete(tower):
    """F_n equals the preimage of F_m at every checked level pair."""
    if tower._complete is None:
        tower._complete = all(
            _preimage_gen(tower.fam, tower.algebra_at(n), tower.gen_at(m), (tower.letter(n + 1),))
            == tower.gen_at(n)
            for n, m in tower._check_levels()
        )
    return tower._complete


def _completion(tower):
    """The smallest complete tower above an admissible one: level n holds
    every set that some deeper level filter pulls back to."""
    if not tower.is_admissible():
        raise DomainError("completion requires an admissible family")
    tower.fam.require_wlr()
    return tower._with_gens([
        _generator([a for a in tower.algebra_at(n).elements if a and _reaches(tower, n, a)])
        for n in tower.levels()
    ])


def _contains_idempotent(tower, p):
    """Membership of an idempotent in the induced filter in E(S)."""
    if p.is_zero or not is_word_prefix(tower, p.alpha):
        return False
    i = len(p.alpha)
    if tower.is_complete():
        gen = tower.gen_at(i)
        return gen is not None and gen <= p.vset
    return _reaches(tower, i, p.vset)


class FiniteFilterFamily:
    """A tower of filters F_0 .. F_n along a finite word.

    ``gens[k]`` is the principal generator of F_k; ``gens[0]`` may be None,
    meaning F_0 is empty, except when the word itself is empty.  Complete
    towers satisfy F_k = {A : r(A, next letter) in F_{k+1}} at every level.
    """

    is_lasso = False

    def __init__(self, fam, word, gens):
        word = tuple(word)
        gens = tuple(frozenset(g) if g is not None else None for g in gens)
        if len(gens) != len(word) + 1:
            raise DomainError("need one filter per level, %d given" % len(gens))
        if gens[0] is None and not word:
            raise DomainError("the empty word requires a nonempty level-0 filter")
        self.fam = fam
        self.word = word
        self.gens = gens
        self._complete = None
        self._ranges = [fam.graph.vertex_set]
        for n, g in enumerate(gens):
            if g is None:
                if n > 0:
                    raise DomainError("only the level-0 filter may be empty")
                continue
            if not g or g not in self.algebra_at(n):
                raise DomainError(
                    "level %d generator %s is not a nonzero element of its algebra"
                    % (n, format_vset(g))
                )

    @classmethod
    def _unchecked(cls, fam, word, gens):
        """The tower on ``word`` with ``gens``, built without checking its
        levels: for towers read off a walk of the transition graph, whose
        levels are nonzero elements of their algebras by construction, and
        for carrying a word's algebras before its generators are known."""
        tower = cls.__new__(cls)
        tower.fam, tower.word, tower.gens, tower._complete = fam, word, gens, None
        tower._ranges = [fam.graph.vertex_set]
        return tower

    @classmethod
    def from_top(cls, fam, word, top_gen):
        """Build the complete tower determined by its deepest filter."""
        fam.require_wlr()
        word = tuple(word)
        levels = cls._unchecked(fam, word, ())
        gens = [None] * (len(word) + 1)
        gens[len(word)] = frozenset(top_gen)
        for n in range(len(word) - 1, -1, -1):
            flt = PrincipalFilter(levels.algebra_at(n + 1), gens[n + 1])
            gens[n] = _preimage_gen(fam, levels.algebra_at(n), flt.gen, (word[n],))
            if gens[n] is None and n > 0:
                raise DomainError("level %d filter is empty; tower is not valid" % n)
        return cls(fam, word, gens)

    @property
    def length(self):
        return len(self.word)

    def word_prefix(self, n):
        return self.word[:n]

    def letter(self, n):
        return self.word[n - 1]

    def algebra_at(self, n):
        """``fam.algebra(word[:n])`` read off the range carried to level n:
        an empty range past the empty word, which an unknown letter also
        gives, is refused by ``fam.algebra`` itself."""
        rng = self.range_at(n)
        return self.fam.algebra_over(rng) if rng or not n else self.fam.algebra(self.word[:n])

    def gen_at(self, n):
        return self.gens[n]

    def top_gen(self):
        return self.gens[-1]

    def levels(self):
        return range(len(self.word) + 1)

    def _check_levels(self):
        return [(n, n + 1) for n in range(len(self.word))]

    def _phase(self, n):
        return n if n < len(self.word) else None

    def _with_gens(self, gens):
        return FiniteFilterFamily(self.fam, self.word, gens)

    range_at = _range_at
    filter_at = _filter_at
    is_admissible = _is_admissible
    is_complete = _is_complete
    completion = _completion
    contains_idempotent = _contains_idempotent

    def sort_key(self):
        return (0, len(self.word), self.word, vkey(self.gens[-1] or ()))

    def format(self):
        return "%s ; gen=%s" % (format_word(self.word), format_vset(self.gens[-1]))

    def canonical_key(self):
        return ("fin", self.word, vkey(self.gens[-1] or ()))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFilterFamily)
            and self.fam == other.fam
            and self.word == other.word
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.word, self.gens))

    def __repr__(self):
        return "<finite filter family %s>" % self.format()


_DERIVE = object()


class LassoFilterFamily:
    """A filter tower along an eventually periodic infinite word.

    The level data is the sequence of pairs (letter, generator) for levels
    1, 2, ...; it is stored in canonical lasso form (primitive cycle, shortest
    prefix).  F_0 is kept separately: it may be empty (None), and for complete
    towers it is determined by level 1, which is what the default computes.
    """

    is_lasso = True

    def __init__(self, fam, prefix_letters, cycle_letters, prefix_gens, cycle_gens, f0_gen=_DERIVE):
        fam.require_wlr()
        prefix_letters, cycle_letters = tuple(prefix_letters), tuple(cycle_letters)
        prefix_gens = tuple(frozenset(g) for g in prefix_gens)
        cycle_gens = tuple(frozenset(g) for g in cycle_gens)
        if len(prefix_letters) != len(prefix_gens) or len(cycle_letters) != len(cycle_gens):
            raise DomainError("letters and generators must align level by level")
        if not cycle_letters:
            raise DomainError("lasso cycle must be nonempty")
        prefix, cycle = canonical_lasso(
            tuple(zip(prefix_letters, prefix_gens)), tuple(zip(cycle_letters, cycle_gens))
        )
        self.fam = fam
        self.prefix_letters = tuple(b for b, _ in prefix)
        self.prefix_gens = tuple(g for _, g in prefix)
        self.cycle_letters = tuple(b for b, _ in cycle)
        self.cycle_gens = tuple(g for _, g in cycle)
        self._complete = None
        self._ranges = [fam.graph.vertex_set]
        self._window_end, self._wrap = self._compute_window()
        for n in range(1, self._window_end + 1):
            g = self.gen_at(n)
            if not g or g not in self.algebra_at(n):
                raise DomainError(
                    "level %d generator %s is not a nonzero element of its algebra"
                    % (n, format_vset(g))
                )
        if f0_gen is _DERIVE:
            self.f0_gen = _preimage_gen(fam, self.algebra_at(0), self.gen_at(1), (self.letter(1),))
        else:
            self.f0_gen = None if f0_gen is None else frozenset(f0_gen)
            if self.f0_gen is not None and (
                not self.f0_gen or self.f0_gen not in self.algebra_at(0)
            ):
                raise DomainError("level 0 generator is not a nonzero family member")

    @property
    def prefix_len(self):
        return len(self.prefix_letters)

    @property
    def cycle_len(self):
        return len(self.cycle_letters)

    def letter(self, n):
        return lasso_value(self.prefix_letters, self.cycle_letters, n)

    def gen_at(self, n):
        if n == 0:
            return self.f0_gen
        return lasso_value(self.prefix_gens, self.cycle_gens, n)

    def word_prefix(self, n):
        return tuple(self.letter(k) for k in range(1, n + 1))

    def algebra_at(self, n):
        if n == 0:
            return self.fam.algebra(())
        rng = self.range_at(n)
        if not rng:
            raise DomainError("the lasso word leaves the labelled paths at level %d" % n)
        return self.fam.algebra_over(rng)

    def _phase(self, n):
        """Levels with equal phases carry equal generators and are followed
        by equal letters; level 0 has a phase of its own."""
        p, c = self.prefix_len, self.cycle_len
        return ("pre", n) if n <= p else ("cyc", (n - p - 1) % c)

    def _compute_window(self):
        """Smallest window [1..W] such that level W+1 repeats an earlier
        level T both in cycle phase and in range set; all level-indexed
        checks become exact when verified on the window with W+1 -> T."""
        seen = {}
        n = 1
        while True:
            state = (self._phase(n), self.range_at(n))
            if state in seen:
                return n - 1, seen[state]
            seen[state] = n
            n += 1

    def levels(self):
        return range(self._window_end + 1)

    def _check_levels(self):
        pairs = [(n, n + 1) for n in range(self._window_end)]
        pairs.append((self._window_end, self._wrap))
        return pairs

    def _with_gens(self, gens):
        # for generators fixed by each level's (phase, range set), such as a
        # completion's, levels [1, wrap) and [wrap, end] are a prefix and a
        # cycle; canonicalization shrinks the cycle again
        wrap, end = self._wrap, self._window_end
        return LassoFilterFamily(
            self.fam,
            self.word_prefix(wrap - 1),
            tuple(self.letter(n) for n in range(wrap, end + 1)),
            gens[1:wrap],
            gens[wrap:end + 1],
            f0_gen=gens[0],
        )

    range_at = _range_at
    filter_at = _filter_at
    is_admissible = _is_admissible
    is_complete = _is_complete
    completion = _completion
    contains_idempotent = _contains_idempotent

    def node_at(self, n):
        """The transition-graph node (range set, generator) at level n >= 1."""
        return (self.range_at(n), self.gen_at(n))

    def node_lasso(self):
        """The level sequence as (letter, node) pairs in canonical lasso form.

        The node cycle may be a multiple of the letter/generator cycle when
        the range sets settle with a longer period.
        """
        pairs = [
            (self.letter(n), self.node_at(n)) for n in range(1, self._window_end + 1)
        ]
        period = self._window_end + 1 - self._wrap
        return canonical_lasso(pairs[: self._wrap - 1], pairs[self._wrap - 1:][:period])

    def is_ultrafilter_shaped(self):
        """Every level generator is an atom of its algebra; with a
        complement-closed family this characterizes the ultrafilter towers."""
        return all(
            self.gen_at(n) in self.algebra_at(n).atoms
            for n in range(1, self._window_end + 1)
        )

    def sort_key(self):
        return (
            1,
            self.prefix_len,
            self.prefix_letters,
            tuple(vkey(g) for g in self.prefix_gens),
            self.cycle_len,
            self.cycle_letters,
            tuple(vkey(g) for g in self.cycle_gens),
        )

    def format(self):
        pre = format_word(self.prefix_letters) if self.prefix_letters else ""
        gens_pre = "".join(format_vset(g) for g in self.prefix_gens)
        gens_cyc = "".join(format_vset(g) for g in self.cycle_gens)
        return "%s(%s)^inf ; gens=%s(%s)^inf ; f0=%s" % (
            pre,
            format_word(self.cycle_letters),
            gens_pre,
            gens_cyc,
            "empty" if self.f0_gen is None else format_vset(self.f0_gen),
        )

    def canonical_key(self):
        return (
            "inf",
            self.prefix_letters,
            tuple(vkey(g) for g in self.prefix_gens),
            self.cycle_letters,
            tuple(vkey(g) for g in self.cycle_gens),
        )

    def __eq__(self, other):
        return (
            isinstance(other, LassoFilterFamily)
            and self.fam == other.fam
            and self.canonical_key() == other.canonical_key()
            and self.f0_gen == other.f0_gen
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "<lasso filter family %s>" % self.format()


def is_word_prefix(family, word):
    """Whether ``word`` is a beginning of the family's (possibly infinite) word."""
    word = tuple(word)
    if family.is_lasso:
        return all(family.letter(k + 1) == b for k, b in enumerate(word))
    return family.word[: len(word)] == word and len(word) <= len(family.word)


def es_filter_membership(fam, family, p):
    """Does the idempotent ``p`` belong to the filter in E(S) described by
    the given tower?"""
    if family.fam != fam:
        raise DomainError("the tower lives over a different family")
    return family.contains_idempotent(p)


def enumerate_complete_families(fam, word):
    """Every complete tower along a finite word, by exhausting the choices of
    the deepest filter and deriving the rest."""
    fam.require_wlr()
    word = tuple(word)
    out = []
    for flt in all_filters(fam.algebra(word)):
        try:
            out.append(FiniteFilterFamily.from_top(fam, word, flt.gen))
        except DomainError:
            continue
    return tuple(out)


def is_maximal_complete_family(fam, family):
    """Maximality among the complete towers for the same word, checked by
    exhaustive enumeration (finite words only)."""
    if family.is_lasso:
        raise DomainError("maximality search is only available for finite words")
    if not family.is_complete():
        raise DomainError("maximality is about complete families")
    for other in enumerate_complete_families(fam, family.word):
        if other.gens == family.gens:
            continue
        if _pointwise_leq(family, other):
            return False
    return True


def _pointwise_leq(fam_a, fam_b):
    """Pointwise filter inclusion of towers; empty levels sit below all."""
    for n in fam_a.levels():
        ga, gb = fam_a.gen_at(n), fam_b.gen_at(n)
        if ga is None:
            continue
        if gb is None or not gb <= ga:
            return False
    return True


def is_es_ultrafilter(fam, family):
    """Ultrafilter test for a filter in E(S).

    Finite type: the deepest filter must be an ultrafilter whose generator
    emits no edge, i.e. lies inside the sinks.  Infinite type: every level
    must be an ultrafilter, which needs the family to be closed under
    relative complements.
    """
    if family.is_lasso:
        fam.require_complements()
        return family.is_ultrafilter_shaped()
    top = family.filter_at(len(family.word))
    return top is not None and _is_sink_ultrafilter(fam, top)


def _is_sink_ultrafilter(fam, flt):
    """Whether ``flt`` is an ultrafilter whose generator lies inside the
    sinks: the one test behind ``is_es_ultrafilter`` on finite words,
    ``sink_ultrafilters`` and ``is_tight_finite_type``."""
    return flt.is_ultrafilter and flt.gen <= sinks(fam.graph)


def parse_filter_family(fam, text):
    """Parse the command-line filter syntax.

    Finite type: ``word ; gen={v ...}``.  Lassos: ``pre(cyc)^inf ;
    gens={..}..({..}..)^inf`` with one generator per level; the level-0
    filter is derived by the completeness recurrence.
    """
    text = text.strip()
    if "^inf" in text:
        try:
            wordpart, genspart = [part.strip() for part in text.split(";")]
        except ValueError:
            raise ParseError("expected 'word ; gens=...' in %r" % text)
        if not genspart.startswith("gens=") or not genspart.endswith(")^inf"):
            raise ParseError("lasso generators must look like gens=...(...)^inf")
        if not wordpart.endswith(")^inf"):
            raise ParseError("lasso word must look like pre(cyc)^inf")
        pre_word, sep, cyc_word = wordpart[:-len(")^inf")].partition("(")
        if not sep or not cyc_word:
            raise ParseError("lasso word must look like pre(cyc)^inf")
        gens_body = genspart[len("gens="):-len(")^inf")]
        pre_gens_text, _, cyc_gens_text = gens_body.rpartition("(")
        from .util import parse_vset_list

        return LassoFilterFamily(
            fam,
            parse_word(pre_word) if pre_word else (),
            parse_word(cyc_word),
            parse_vset_list(pre_gens_text),
            parse_vset_list(cyc_gens_text),
        )
    try:
        wordpart, genpart = [part.strip() for part in text.split(";")]
    except ValueError:
        raise ParseError("expected 'word ; gen={...}' in %r" % text)
    if not genpart.startswith("gen="):
        raise ParseError("finite-type filters must give gen={...}")
    return FiniteFilterFamily.from_top(fam, parse_word(wordpart), parse_vset(genpart[4:]))
