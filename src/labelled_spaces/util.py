"""Small shared helpers: canonical ordering, word and set formatting, lassos,
and the base of the immutable values that are not tuples."""

import re

from .errors import ParseError

EMPTY_WORD_TOKEN = "@"
# ``\s`` is the whitespace ``str.strip`` removes
_SPACE = re.compile(r"\s*")
_SET_AND_SPACE = re.compile(r"\{([^}]*)\}\s*")


class Immutable:
    """A value whose attributes are the ``__slots__`` of its class, each set
    once by ``__init__`` through ``_set``; assigning or deleting one raises
    ``AttributeError``.  It is compared and hashed by ``_key()`` and shown by
    its ``_fields``.  Slots, unlike a ``__dict__`` filled behind the refusal,
    keep attribute reads and method calls on the interpreter's fast path."""

    __slots__ = ("__weakref__",)
    _fields = ()

    def _set(self, **values):
        cls = type(self)
        for name, value in values.items():
            getattr(cls, name).__set__(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot change %r: %s is immutable" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __setstate__(self, state):
        # copy and pickle hand the slots over as (None, {name: value})
        self._set(**state[1])

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )


def vkey(members):
    """Sort key for a vertex set: the lexicographically sorted member tuple."""
    return tuple(sorted(members))


def format_vset(members):
    return "{%s}" % " ".join(sorted(members))


def parse_vset(text):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("expected a set like {v1 v2}, got %r" % text)
    body = text[1:-1].strip()
    return frozenset(body.split()) if body else frozenset()


def parse_vset_list(text):
    """Parse a concatenation of set literals: ``{a b}{c}{}``.  One index
    walks the text, so the cost is linear in its length."""
    sets = []
    at = _SPACE.match(text).end()
    while at < len(text):
        found = _SET_AND_SPACE.match(text, at)
        if found is None:
            if text[at] != "{":
                raise ParseError("expected '{' in set list, got %r" % text[at:].strip())
            raise ParseError("unterminated set in %r" % text[at:].strip())
        sets.append(frozenset(found[1].split()))
        at = found.end()
    return sets


def format_word(word):
    """Words print as letters joined by dots; the empty word prints as '@'."""
    return ".".join(word) if word else EMPTY_WORD_TOKEN


def parse_word(text):
    text = text.strip()
    if text == EMPTY_WORD_TOKEN or text == "":
        return ()
    parts = text.split(".")
    if any(not p for p in parts):
        raise ParseError("empty letter in word %r" % text)
    return tuple(parts)


def canonical_lasso(prefix, cycle):
    """Normalize an eventually periodic sequence given as (prefix, cycle).

    The cycle is reduced to its primitive root, then the prefix is shortened
    as far as possible by rotating the cycle backwards.  Two representations
    of the same infinite sequence normalize to the same pair.
    """
    prefix = list(prefix)
    cycle = list(cycle)
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            cycle = cycle[:d]
            break
    while prefix and prefix[-1] == cycle[-1]:
        cycle = cycle[-1:] + cycle[:-1]
        prefix.pop()
    return tuple(prefix), tuple(cycle)


def lasso_value(prefix, cycle, n):
    """Element at 1-based position ``n`` of the sequence prefix + cycle^inf."""
    if n < 1:
        raise IndexError("lasso positions are 1-based")
    if n <= len(prefix):
        return prefix[n - 1]
    return cycle[(n - len(prefix) - 1) % len(cycle)]
