"""The inverse semigroup of triples (alpha, A, beta) over a labelled space.

Elements are a word pair plus a vertex set lying in both restricted algebras;
triples with an empty middle set all collapse to the zero element.  Products
require the family to be weakly left resolving, otherwise associativity is
not guaranteed and the operation refuses to run.
"""

from collections import namedtuple

from .errors import DomainError, ParseError
from .graph import is_labelled_path
from .util import format_vset, format_word, parse_vset, parse_word


class SElement(namedtuple("SElement", "alpha vset beta")):
    """A semigroup element.  The zero element is the canonical ``ZERO``;
    any produced triple with empty middle set is normalized to it."""

    __slots__ = ()

    @property
    def is_zero(self):
        return not self.vset

    def __str__(self):
        if self.is_zero:
            return "0"
        return "(%s,%s,%s)" % (
            format_word(self.alpha),
            format_vset(self.vset),
            format_word(self.beta),
        )

    def sort_key(self):
        return (
            len(self.alpha),
            self.alpha,
            tuple(sorted(self.vset)),
            len(self.beta),
            self.beta,
        )


ZERO = SElement((), frozenset(), ())


def make_element(fam, alpha, vset, beta):
    """Validated triple constructor: the middle set must be a nonempty family
    member inside both word ranges, and both words must be labelled paths."""
    alpha, beta, vset = tuple(alpha), tuple(beta), frozenset(vset)
    g = fam.graph
    g.check_word(alpha)
    g.check_word(beta)
    g.check_vertices(vset)
    if not vset:
        raise DomainError("triples with empty middle set are the zero element")
    if not is_labelled_path(g, alpha) or not is_labelled_path(g, beta):
        raise DomainError("element words must be labelled paths")
    if vset not in fam.algebra(alpha) or vset not in fam.algebra(beta):
        raise DomainError(
            "%s is not in both restricted algebras of %s and %s"
            % (format_vset(vset), format_word(alpha), format_word(beta))
        )
    return SElement(alpha, vset, beta)


def _normalized(alpha, vset, beta):
    return SElement(alpha, frozenset(vset), beta) if vset else ZERO


def multiply(fam, s, t):
    """The semigroup product.  Nontrivial products occur only when s's right
    word and t's left word are comparable; either way an empty middle set
    collapses the result to zero."""
    fam.require_wlr()
    if s.is_zero or t.is_zero:
        return ZERO
    beta, gamma = s.beta, t.alpha
    if gamma[: len(beta)] == beta:
        ext = gamma[len(beta):]
        return _normalized(s.alpha + ext, fam.rel_range(s.vset, ext) & t.vset, t.beta)
    if beta[: len(gamma)] == gamma:
        ext = beta[len(gamma):]
        return _normalized(s.alpha, s.vset & fam.rel_range(t.vset, ext), t.beta + ext)
    return ZERO


def inverse(s):
    """(alpha, A, beta)* = (beta, A, alpha); zero is its own inverse."""
    if s.is_zero:
        return ZERO
    return SElement(s.beta, s.vset, s.alpha)


def is_idempotent(s):
    return s.is_zero or s.alpha == s.beta


def _require_idempotent(s):
    if not is_idempotent(s):
        raise DomainError("%s is not an idempotent" % (s,))


def leq(fam, p, q):
    """Natural partial order on idempotents: p <= q iff p's word extends q's
    and p's set is inside the relative range of q's set along the extension."""
    _require_idempotent(p)
    _require_idempotent(q)
    if p.is_zero:
        return True
    if q.is_zero:
        return False
    if p.alpha[: len(q.alpha)] != q.alpha:
        return False
    ext = p.alpha[len(q.alpha):]
    return p.vset <= fam.rel_range(q.vset, ext)


def meet(fam, p, q):
    """Meet of two idempotents, i.e. their product."""
    _require_idempotent(p)
    _require_idempotent(q)
    return multiply(fam, p, q)


def idempotents_up_to(fam, max_word_len):
    """All nonzero idempotents whose word has length at most the bound."""
    from .graph import labelled_words_up_to

    out = []
    for word in labelled_words_up_to(fam.graph, max_word_len):
        for vset in fam.algebra(word).elements:
            if vset:
                out.append(SElement(word, vset, word))
    return tuple(sorted(out, key=SElement.sort_key))


def elements_up_to(fam, max_word_len):
    """All nonzero elements with both word lengths at most the bound."""
    from .graph import labelled_words_up_to

    words = labelled_words_up_to(fam.graph, max_word_len)
    out = []
    for alpha in words:
        alg_a = fam.algebra(alpha)
        for beta in words:
            alg_b = fam.algebra(beta)
            for vset in alg_a.elements:
                if vset and vset in alg_b:
                    out.append(SElement(alpha, vset, beta))
    return tuple(sorted(out, key=SElement.sort_key))


def format_element(s):
    return str(s)


def parse_element(fam, text):
    """Parse ``(word,{v1 v2},word)`` or ``0``; words use the dotted syntax."""
    text = text.strip()
    if text == "0":
        return ZERO
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("expected (word,{set},word) or 0, got %r" % text)
    body = text[1:-1]
    open_ = body.find("{")
    close = body.find("}")
    if open_ < 0 or close < 0 or close < open_:
        raise ParseError("missing {set} in element %r" % text)
    left = body[:open_].strip()
    mid = body[open_: close + 1]
    right = body[close + 1:].strip()
    if not left.endswith(",") or not right.startswith(","):
        raise ParseError("element parts must be comma separated in %r" % text)
    alpha = parse_word(left[:-1])
    beta = parse_word(right[1:])
    return make_element(fam, alpha, parse_vset(mid), beta)
