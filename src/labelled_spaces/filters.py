"""Filters in restricted algebras and filter towers along words.

Every algebra here is a finite meet-semilattice, so filters are stored by
their principal generator and the ultrafilters are exactly the up-sets of
atoms.  A filter in the idempotent semilattice of the triple semigroup is a
word together with a tower of level filters tied together by the preimage
map of each letter.  A finite word is a tower with no cycle, so both kinds
are one private core, ``_Tower``, which holds:
- ``fam``, the letters of levels 1..k (``_letters``) and the generators of
  levels 0..k (``_gens``, level 0's may be None: an empty filter);
- ``_cyc``, where the cycle starts: None for a finite word, else the number
  p of prefix levels, levels p+1..k being the cycle of a lasso;
- ``_ranges``, the range of each level carried to the next by one step of
  the graph and kept, so that ``algebra_at(n)`` is found in one step;
- the checked window ``_end``, ``_wrap`` (see ``_window``).
A level's phase (``_phase``) is the level of the first pass it repeats, so
equal phases mean equal generators followed by equal letters; a finite
word's last level has None.  A lasso's window ends at the level before the
first one that repeats an earlier level, ``_wrap``, in both phase and range,
and the checks (``_check_levels``, ``_check_gens``) read only the window; a
finite word's window is its length and has no wrap pair.  ``_unchecked``
builds a tower without the constructor's check, for the towers read off the
transition graph's walks.  ``_preimage_gen`` is the one preimage scan and
``_reaches`` the one "some deeper level pulls this set back" walk.

``FiniteFilterFamily`` and ``LassoFilterFamily`` are thin subclasses with
their own constructors, public fields, text, keys and equality, and their
own completion: a finite tower's is the pass down from its top generator
(``_top_down``, also ``from_top``'s), a lasso's walks up with ``_reaches``.
Each binds ``is_complete`` and ``contains_idempotent`` in its own namespace,
where ``perfbench/tracing.py`` looks for them.
"""

from functools import reduce

from .errors import DomainError, ParseError
from .graph import sinks
from .util import (
    Immutable,
    canonical_lasso,
    format_vset,
    format_word,
    parse_vset,
    parse_vset_list,
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


def _top_down(tower, top_gen):
    """The generators of the complete tower on ``tower``'s finite word whose
    deepest level is ``top_gen``: from the top down, each level is the
    preimage of the level above, in the algebras ``tower`` carries."""
    fam, word = tower.fam, tower._letters
    gens = [None] * len(word) + [top_gen]
    for n in range(len(word) - 1, -1, -1):
        flt = PrincipalFilter(tower.algebra_at(n + 1), gens[n + 1])
        gens[n] = _preimage_gen(fam, tower.algebra_at(n), flt.gen, (word[n],))
        if gens[n] is None and n > 0:
            raise DomainError("level %d filter is empty; tower is not valid" % n)
    return tuple(gens)


class _Tower:
    """The filter tower core (module docstring).  ``__init__`` sets the
    fields unchecked; the public constructors check them."""

    def __init__(self, fam, letters, gens, cyc=None):
        self.fam, self._letters, self._gens, self._cyc = fam, letters, gens, cyc
        self._complete = None
        self._ranges = [fam.graph.vertex_set]
        # a lasso's window is found when it is first read
        self._end, self._wrap = (len(letters) if cyc is None else None), None

    @classmethod
    def _unchecked(cls, fam, letters, gens, cyc=None):
        """The tower with these fields, built without checking its levels:
        for towers read off a walk of the transition graph, whose levels are
        nonzero elements of their algebras by construction, and for carrying
        a word's algebras before its generators are known."""
        tower = cls.__new__(cls)
        _Tower.__init__(tower, fam, letters, gens, cyc)
        return tower

    def _phase(self, n):
        """The level of the first pass that level n repeats, None at the end
        of a finite word: equal phases mean equal generators followed by
        equal letters."""
        p = self._cyc
        if p is None:
            return n if n < len(self._letters) else None
        return n if n <= p else p + 1 + (n - p - 1) % (len(self._letters) - p)

    def letter(self, n):
        letters = self._letters
        return letters[n - 1] if n <= len(letters) else letters[self._phase(n) - 1]

    def gen_at(self, n):
        gens = self._gens
        return gens[n] if n < len(gens) else gens[self._phase(n)]

    def word_prefix(self, n):
        if self._cyc is None or n <= len(self._letters):
            return self._letters[:n]
        return tuple(self.letter(m) for m in range(1, n + 1))

    def range_at(self, n):
        """The range of the first n letters, carried one step per level and kept."""
        ranges = self._ranges
        while len(ranges) <= n:
            ranges.append(self.fam.graph.step(ranges[-1], self.letter(len(ranges))))
        return ranges[n]

    def algebra_at(self, n):
        """``fam.algebra(word[:n])`` read off the range carried to level n.
        An empty range past level 0, which an unknown letter also gives, is
        refused, for a finite word by ``fam.algebra`` itself."""
        rng = self.range_at(n)
        if rng or not n:
            return self.fam.algebra_over(rng)
        if self._cyc is None:
            return self.fam.algebra(self._letters[:n])
        raise DomainError("the lasso word leaves the labelled paths at level %d" % n)

    def filter_at(self, n):
        gen = self.gen_at(n)
        return None if gen is None else PrincipalFilter(self.algebra_at(n), gen)

    def _window(self):
        """(end, wrap): the levels 0..end that checks read, and the level a
        lasso's level end + 1 repeats in both phase and range (None for a
        finite word), so that what holds on the window holds at every level."""
        if self._end is None:
            seen, n = {}, 1
            while (state := (self._phase(n), self.range_at(n))) not in seen:
                seen[state] = n
                n += 1
            self._end, self._wrap = n - 1, seen[state]
        return self._end, self._wrap

    def levels(self):
        return range(self._window()[0] + 1)

    def _check_levels(self):
        """The level pairs (n, m) tied by letter n + 1."""
        end, wrap = self._window()
        return [(n, n + 1) for n in range(end)] + ([] if wrap is None else [(end, wrap)])

    def _check_gens(self, first):
        """Refuse the first level from ``first`` on whose generator is not a
        nonzero element of its algebra; only level 0 may be empty (None)."""
        for n in range(first, self._window()[0] + 1):
            g = self.gen_at(n)
            if g is None:
                if n:
                    raise DomainError("only the level-0 filter may be empty")
            elif not g or g not in self.algebra_at(n):
                raise DomainError("level %d generator %s is not a nonzero element of its algebra"
                                  % (n, format_vset(g)))

    def is_admissible(self):
        """F_n <= the preimage of F_m at every checked level pair.  By
        principality it suffices to test the generators."""
        return all(
            self.gen_at(n) is None
            or self.gen_at(m) <= self.fam.rel_range(self.gen_at(n), (self.letter(n + 1),))
            for n, m in self._check_levels()
        )

    def is_complete(self):
        """F_n equals the preimage of F_m at every checked level pair."""
        if self._complete is None:
            self._complete = all(
                _preimage_gen(self.fam, self.algebra_at(n), self.gen_at(m), (self.letter(n + 1),))
                == self.gen_at(n)
                for n, m in self._check_levels()
            )
        return self._complete

    def contains_idempotent(self, p):
        """Membership of an idempotent in the induced filter in E(S)."""
        if p.is_zero or not is_word_prefix(self, p.alpha):
            return False
        i = len(p.alpha)
        if self.is_complete():
            gen = self.gen_at(i)
            return gen is not None and gen <= p.vset
        return _reaches(self, i, p.vset)


class FiniteFilterFamily(_Tower):
    """A tower of filters F_0 .. F_n along a finite word.

    ``gens[k]`` is the principal generator of F_k; ``gens[0]`` may be None,
    meaning F_0 is empty, except when the word itself is empty.  Complete
    towers satisfy F_k = {A : r(A, next letter) in F_{k+1}} at every level.
    """

    is_lasso = False
    word = property(lambda self: self._letters)
    gens = property(lambda self: self._gens)
    length = property(lambda self: len(self._letters))

    def __init__(self, fam, word, gens):
        word = tuple(word)
        gens = tuple(frozenset(g) if g is not None else None for g in gens)
        if len(gens) != len(word) + 1:
            raise DomainError("need one filter per level, %d given" % len(gens))
        if gens[0] is None and not word:
            raise DomainError("the empty word requires a nonempty level-0 filter")
        super().__init__(fam, word, gens)
        self._check_gens(0)

    @classmethod
    def from_top(cls, fam, word, top_gen):
        """Build the complete tower determined by its deepest filter, checked
        in the algebras the pass down carried."""
        fam.require_wlr()
        tower = cls._unchecked(fam, tuple(word), ())
        tower._gens = _top_down(tower, frozenset(top_gen))
        tower._check_gens(0)
        return tower

    def top_gen(self):
        return self._gens[-1]

    def completion(self):
        """The smallest complete tower above an admissible one.  Its level n
        holds every set that some deeper level pulls back to; admissibility
        puts up(gen_n) inside the preimage of completed level n + 1, so
        completed level n is that preimage, and the completion is the
        complete tower of the top generator: one preimage scan per level."""
        if not self.is_admissible():
            raise DomainError("completion requires an admissible family")
        self.fam.require_wlr()
        done = FiniteFilterFamily._unchecked(self.fam, self._letters,
                                             _top_down(self, self._gens[-1]))
        done._ranges = self._ranges  # the same word has the same ranges
        return done

    # bound in each class's own namespace, where perfbench/tracing.py finds them
    is_complete = _Tower.is_complete
    contains_idempotent = _Tower.contains_idempotent

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


class LassoFilterFamily(_Tower):
    """A filter tower along an eventually periodic infinite word.

    The level data is the sequence of pairs (letter, generator) for levels
    1, 2, ...; it is stored in canonical lasso form (primitive cycle, shortest
    prefix).  F_0 is kept separately: it may be empty (None), and for complete
    towers it is determined by level 1, which is what the default computes.
    """

    is_lasso = True
    prefix_letters = property(lambda self: self._letters[:self._cyc])
    cycle_letters = property(lambda self: self._letters[self._cyc:])
    prefix_gens = property(lambda self: self._gens[1:self._cyc + 1])
    cycle_gens = property(lambda self: self._gens[self._cyc + 1:])
    prefix_len = property(lambda self: self._cyc)
    cycle_len = property(lambda self: len(self._letters) - self._cyc)
    f0_gen = property(lambda self: self._gens[0])

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
        super().__init__(fam, tuple(b for b, _ in prefix + cycle),
                         (None,) + tuple(g for _, g in prefix + cycle), len(prefix))
        self._check_gens(1)
        if f0_gen is _DERIVE:
            f0_gen = _preimage_gen(fam, self.algebra_at(0), self._gens[1], self._letters[:1])
        elif f0_gen is not None:
            f0_gen = frozenset(f0_gen)
            if not f0_gen or f0_gen not in self.algebra_at(0):
                raise DomainError("level 0 generator is not a nonzero family member")
        self._gens = (f0_gen,) + self._gens[1:]

    def completion(self):
        """The smallest complete tower above an admissible one: level n holds
        every set that some deeper level filter pulls back to.  Its
        generators are fixed by each level's (phase, range set), so levels
        [1, wrap) and [wrap, end] of the window are a prefix and a cycle of
        it, which the constructor canonicalizes again."""
        if not self.is_admissible():
            raise DomainError("completion requires an admissible family")
        self.fam.require_wlr()
        gens = [_generator([a for a in self.algebra_at(n).elements if a and _reaches(self, n, a)])
                for n in self.levels()]
        end, wrap = self._window()
        return LassoFilterFamily(self.fam, self.word_prefix(wrap - 1),
                                 tuple(self.letter(n) for n in range(wrap, end + 1)),
                                 gens[1:wrap], gens[wrap:end + 1], f0_gen=gens[0])

    # bound in each class's own namespace, where perfbench/tracing.py finds them
    is_complete = _Tower.is_complete
    contains_idempotent = _Tower.contains_idempotent

    def sort_key(self):
        _, pre, pre_gens, cyc, cyc_gens = self.canonical_key()
        return (1, len(pre), pre, pre_gens, len(cyc), cyc, cyc_gens)

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
    letters, word = family._letters, tuple(word)
    if len(word) <= len(letters):
        return letters[:len(word)] == word
    return family.is_lasso and all(family.letter(k + 1) == b for k, b in enumerate(word))


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
        # pointwise filter inclusion; an empty level sits below all
        if other.gens != family.gens and all(
                a is None or b is not None and b <= a for a, b in zip(family.gens, other.gens)):
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
        return all(family.gen_at(n) in family.algebra_at(n).atoms for n in family.levels()[1:])
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
