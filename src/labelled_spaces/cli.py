"""Command-line interface.

Every subcommand takes an .lgr file first; bare names are also resolved
against the shipped fixtures, so `lspace tight loops4.lgr ...` works from
anywhere.  Exit codes: 0 success, 1 semantic failure or output that cannot be
written, 2 parse or usage error.
"""

import argparse
import contextlib
import os
import sys

from . import fixtures
from .boundary import boundary_paths, isolated_points
from .errors import DomainError, InputError, LabelledSpaceError, ParseError
from .family import powerset_family
from .filters import parse_filter_family, ultrafilters
from .graph import is_labelled_path
from .lgrfile import load_graph_file
from .semigroup import inverse, is_idempotent, leq, multiply, parse_element
from .spectra import (
    _COUNTS_LINE,
    _certified_counts,
    compare_spectrum_with_boundary,
    refute_tightness,
    tight_spectrum,
)
from .transition import UltrafilterTransitionGraph, _count_text
from .util import format_vset, format_word, parse_word


def _resolve(path):
    if os.path.exists(path):
        return path
    candidate = os.path.join(os.path.dirname(fixtures.path("x")), os.path.basename(path))
    if os.path.exists(candidate):
        return candidate
    raise InputError("no such graph file: %s" % path)


def _load(path):
    return load_graph_file(_resolve(path))


def _bound(text):
    """The argparse type of search bounds: a nonnegative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)


def _word_arg(fam, text):
    word = parse_word(text)
    fam.graph.check_word(word)
    if not is_labelled_path(fam.graph, word):
        raise DomainError("%s is not a labelled path" % format_word(word))
    return word


def cmd_validate(args, out):
    _, fam = _load(args.graph)
    report = fam.report
    out.write(report.flags_line() + "\n")
    for name in sorted(report.witnesses):
        out.write("witness %s: %s\n" % (name, report.witness_text(name)))
    if args.require:
        wanted = {flag.strip() for flag in args.require.split(",") if flag.strip()}
        unknown = wanted - {"accommodating", "wlr", "complements"}
        if unknown:
            raise InputError("unknown flags: %s" % " ".join(sorted(unknown)))
        have = {
            "accommodating": report.accommodating,
            "wlr": report.weakly_left_resolving,
            "complements": report.complement_closed,
        }
        if not all(have[f] for f in wanted):
            return 1
    return 0


def cmd_balgebra(args, out):
    _, fam = _load(args.graph)
    word = _word_arg(fam, args.word)
    alg = fam.algebra(word)
    out.write("word: %s\n" % format_word(word))
    out.write("top: %s\n" % ("none" if alg.top is None else format_vset(alg.top)))
    out.write("elements: %s\n" % " ".join(format_vset(e) for e in alg.elements))
    out.write("atoms: %s\n" % " ".join(format_vset(a) for a in alg.atoms))
    return 0


def cmd_mul(args, out):
    _, fam = _load(args.graph)
    s = parse_element(fam, args.left)
    t = parse_element(fam, args.right)
    out.write("%s\n" % (multiply(fam, s, t),))
    return 0


def cmd_inv(args, out):
    _, fam = _load(args.graph)
    out.write("%s\n" % (inverse(parse_element(fam, args.element)),))
    return 0


def cmd_leq(args, out):
    _, fam = _load(args.graph)
    p = parse_element(fam, args.left)
    q = parse_element(fam, args.right)
    if not (is_idempotent(p) and is_idempotent(q)):
        raise DomainError("leq compares idempotents")
    out.write("%s\n" % str(leq(fam, p, q)).lower())
    return 0


def cmd_ultrafilters(args, out):
    _, fam = _load(args.graph)
    word = _word_arg(fam, args.word)
    for flt in ultrafilters(fam.algebra(word)):
        out.write("%s ; gen=%s\n" % (format_word(word), format_vset(flt.gen)))
    return 0


def cmd_ufgraph(args, out):
    _, fam = _load(args.graph)
    out.write(UltrafilterTransitionGraph(fam).format_listing() + "\n")
    return 0


def cmd_tight(args, out):
    _, fam = _load(args.graph)
    spec = tight_spectrum(fam, args.max_word, args.max_cycle)
    out.write("finite type (%d):\n" % len(spec.finite))
    for d in spec.finite:
        out.write("  %s\n" % d.format())
    out.write("infinite type (%d):\n" % len(spec.infinite))
    for d in spec.infinite:
        out.write("  %s\n" % d.format())
    out.write(
        "lassos exhaust infinite type: %s\n"
        % ("no (branching cycles)" if spec.has_branching_cycles else "yes")
    )
    return 0


def cmd_boundary(args, out):
    g, _ = _load(args.graph)
    rep = boundary_paths(g, args.max_len, args.max_cycle)
    out.write("finite paths (%d):\n" % len(rep.finite))
    for p in rep.finite:
        out.write("  %s\n" % (p,))
    out.write("infinite paths (%d):\n" % len(rep.infinite))
    for p in rep.infinite:
        out.write("  %s\n" % (p,))
    out.write(
        "lassos exhaust infinite paths: %s\n"
        % ("no (branching cycles)" if rep.has_branching_cycles else "yes")
    )
    return 0


def cmd_compare(args, out):
    """Phi is a bijection when its arc certificate holds and both sides count
    alike; only otherwise are both sides listed, to name unmatched points.
    A loaded family of 2^|V| members is the powerset and is used as it is."""
    g, fam = _load(args.graph)
    if len(fam.sets) != 1 << len(g.vertices):
        fam = powerset_family(g)
    counts = _certified_counts(fam, args.max_len, args.max_cycle)
    if counts is not None:
        out.write(_COUNTS_LINE % tuple(map(_count_text, counts)) + "\nbijection: yes\n")
        return 0
    rep = compare_spectrum_with_boundary(g, args.max_len, args.max_cycle)
    out.write(rep.counts_line() + "\n")
    out.write("bijection: %s\n" % ("yes" if rep.bijective else "no"))
    for line in rep.unmatched_boundary:
        out.write("only in boundary: %s\n" % line)
    for line in rep.unmatched_spectrum:
        out.write("only in spectrum: %s\n" % line)
    return 0 if rep.bijective else 1


def cmd_refute(args, out):
    _, fam = _load(args.graph)
    family = parse_filter_family(fam, args.filter)
    found = refute_tightness(fam, family, args.depth)
    if found is None:
        out.write("no counterexample at depth %d\n" % args.depth)
    else:
        x, cert = found
        out.write("not tight: %s\n" % (x,))
        out.write("cover parts: %s\n" % " ".join(format_vset(p) for p in cert.parts))
    return 0


def cmd_isolated(args, out):
    g, _ = _load(args.graph)
    points = isolated_points(g, args.max_prefix)
    out.write("isolated points (%d):\n" % len(points))
    for p in points:
        out.write("  %s\n" % (p,))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``InputError``, so they reach the caller's error
    stream as one ``error:`` line; subcommand parsers inherit this."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


def _bounded(flag, default):
    return flag, {"type": _bound, "default": default}


# each subcommand's arguments after the graph file, as (name or flag, keyword
# arguments) pairs.  Its handler is ``cmd_<subcommand>``, looked up when the
# call runs, so a patched handler is seen.
_COMMANDS = {
    "validate": [
        ("--require", {"default": "", "help": "comma list: accommodating,wlr,complements"}),
    ],
    "balgebra": [("--word", {"required": True})],
    "mul": [("left", {}), ("right", {})],
    "inv": [("element", {})],
    "leq": [("left", {}), ("right", {})],
    "ultrafilters": [("--word", {"required": True})],
    "ufgraph": [],
    "tight": [_bounded("--max-word", 4), _bounded("--max-cycle", 3)],
    "boundary": [_bounded("--max-len", 4), _bounded("--max-cycle", 3)],
    "compare": [_bounded("--max-len", 4), _bounded("--max-cycle", 3)],
    "refute": [("--filter", {"required": True}), _bounded("--depth", 4)],
    "isolated": [_bounded("--max-prefix", 0)],
}


def build_parser(names=tuple(_COMMANDS)):
    """The ``lspace`` parser with the subparsers of ``names`` (all by default)."""
    parser = _Parser(
        prog="lspace",
        description="Inverse semigroups of labelled spaces: filters, tight spectra, boundary paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("graph", help=".lgr file (bare fixture names are resolved)")
        for flag, kwargs in _COMMANDS[name]:
            p.add_argument(flag, **kwargs)
    return parser


# the parsers ``run_command`` has built in this process, by subcommand name, or
# None for the full parser; parsing leaves a parser as it was, so each is built
# once.  ``build_parser`` itself stays uncached: its callers may change theirs.
_PARSERS = {}


def run_command(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    # a known subcommand parses with its own subparser alone; anything else
    # gets them all, so help and "invalid choice" list every subcommand
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _PARSERS.get(name)
    if parser is None:
        parser = _PARSERS[name] = build_parser() if name is None else build_parser([name])
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit:  # --help; usage errors raise InputError instead
        return 0
    except InputError as exc:
        err.write("error: %s\n" % exc)
        return 2
    try:
        return globals()["cmd_" + args.command](args, out)
    except (ParseError, InputError) as exc:
        err.write("error: %s\n" % exc)
        return 2
    except LabelledSpaceError as exc:
        err.write("error: %s\n" % exc)
        return 1


def _to_null_device(stream):
    """Point ``stream``'s file descriptor at the null device, so what it still
    buffers is dropped at exit instead of failing again at shutdown."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def main():
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk took the output
        code = 1
        _to_null_device(sys.stdout)
        try:
            sys.stderr.write("error: cannot write output: %s\n" % (exc.strerror or exc))
            sys.stderr.flush()
        except OSError:
            _to_null_device(sys.stderr)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
