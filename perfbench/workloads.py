"""The three workloads: their inputs, their op streams and the checks.

An op is a label (command and space, used to list failures), a thunk that
performs it, and a check that judges the answer against ``reference.Ref``
after the timed loop.  Each workload deals its ops in decks of fixed
composition (shuffled by the seed), so that every run measures the same mix
of sizes and commands however many decks fit in it.
"""

import io
import os
import re
from collections import namedtuple

import labelled_spaces as ls
import labelled_spaces.cli as cli_mod
import labelled_spaces.lgrfile as lgrfile
import labelled_spaces.semigroup as semigroup
from labelled_spaces import fixtures

import gen
from reference import Ref, Refusal, fmt_word, parse_set

Op = namedtuple("Op", "label run check")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(os.path.dirname(HERE), "tests", "golden")

# the committed golden commands, split by the workload their subcommand
# belongs to; each is compared byte for byte with tests/golden/
GOLDEN = {
    "validate_loops4.txt": ["validate", "loops4.lgr"],
    "validate_chain7.txt": ["validate", "chain7.lgr"],
    "balgebra_chain7_a1.txt": ["balgebra", "chain7.lgr", "--word", "a1"],
    "balgebra_chain7_a1a2.txt": ["balgebra", "chain7.lgr", "--word", "a1.a2"],
    "ultrafilters_loops4_a.txt": ["ultrafilters", "loops4.lgr", "--word", "a"],
    "mul_loops4.txt": ["mul", "loops4.lgr", "(a,{1 3},a)", "(a,{2 3 4},a)"],
    "leq_loops4.txt": ["leq", "loops4.lgr", "(a,{2 4},a)", "(@,{1},@)"],
    "inv_loops4.txt": ["inv", "loops4.lgr", "(a,{2 4},@)"],
    "refute_loops4_fat.txt": [
        "refute", "loops4.lgr", "--filter", "(a)^inf ; gens=({1 2 4})^inf", "--depth", "0",
    ],
    "ufgraph_loops4.txt": ["ufgraph", "loops4.lgr"],
    "tight_loops4.txt": ["tight", "loops4.lgr", "--max-word", "3", "--max-cycle", "2"],
    "boundary_loops4_powerset.txt": [
        "boundary", "loops4_powerset.lgr", "--max-len", "1", "--max-cycle", "1",
    ],
    "compare_loops4_powerset.txt": [
        "compare", "loops4_powerset.lgr", "--max-len", "4", "--max-cycle", "2",
    ],
    "isolated_twins3.txt": ["isolated", "twins3.lgr"],
    "isolated_twins2.txt": ["isolated", "twins2.lgr"],
}
CLI_ONESHOT_COMMANDS = ("validate", "balgebra", "ultrafilters", "mul", "inv", "leq", "refute")
SPECTRUM_COMMANDS = ("compare", "tight", "boundary", "isolated", "ufgraph")

# per-op deadlines in seconds.  cli-oneshot's slowest op (validate on an
# 11-vertex chain) takes about 1.5 s; the session ops take milliseconds;
# spectrum-ladder's slowest op is the twins3 ladder point at about 1.4 s.
# No op is expected to reach its deadline: it is a safety net that turns a
# hang into a listed failure.
DEADLINE_S = {"cli-oneshot": 5.0, "session": 1.0, "spectrum-ladder": 10.0}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_mod.run_command(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def expect_text(text, code=0):
    def check(answer):
        if answer != (code, text, ""):
            return "output differs from the reference"
    return check


def check_refusal(answer):
    """An expected refusal: exit 1 with exactly one 'error:' line."""
    code, out, err = answer
    lines = err.splitlines()
    if code != 1 or out or len(lines) != 1 or not lines[0].startswith("error: "):
        return "expected a refusal (exit 1, one error line)"


def lazy(make_check):
    """Defer building an expected answer until the checker asks for it."""
    return lambda answer: make_check()(answer)


def golden_ops(names):
    ops = []
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
            text = fh.read()
        argv = GOLDEN[name]
        ops.append(Op("golden %s" % name[:-4], lambda a=argv: run_cli(a), expect_text(text)))
    return ops


def write_space(space, workdir, watch):
    """Write a space as .lgr text.  ``watch`` times the library's formatting
    but not the file system, whose time does not depend on the library and
    is what varies most from run to run."""
    with watch:
        text = gen.lgr_text(space)
    path = os.path.join(workdir, space.name + ".lgr")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# cli-oneshot

def _random_element(rng, ref, words, idempotent=False):
    """A valid triple: words are labelled paths, the middle set a nonzero
    member of both restricted algebras."""
    while True:
        alpha = rng.choice(words)
        beta = alpha if idempotent else rng.choice(words)
        top = ref.restriction(alpha) & ref.restriction(beta)
        inside = [a for a in ref.family if a and a & ~top == 0]
        if inside:
            return (alpha, rng.choice(inside), beta)


def _bad_element(rng, ref, words):
    """A triple whose middle set lies outside the restricted algebras."""
    alpha = rng.choice(words[1:] or words)
    outside = [a for a in ref.family if a & ~ref.restriction(alpha)]
    if not outside:
        return None
    return (alpha, rng.choice(outside), alpha)


def _non_path(ref):
    for a in ref.letters:
        for b in ref.letters:
            if not ref.range_of((a, b)):
                return (a, b)
    return None


def check_validate(ref):
    def check(answer):
        code, out, err = answer
        if code != 0 or err:
            return "validate failed"
        acc, wlr, comp = ref.flags()
        lines = out.splitlines()
        flags = "accommodating=%s wlr=%s complements=%s" % tuple(
            str(f).lower() for f in (acc, wlr, comp))
        if not lines or lines[0] != flags:
            return "flags differ from the brute-force check"
        wanted = sorted(n for n, ok in (("accommodating", acc), ("complement_closed", comp),
                                        ("weakly_left_resolving", wlr)) if not ok)
        names = [line.split(":", 1)[0][len("witness "):] for line in lines[1:]]
        if names != wanted:
            return "witness lines do not match the false flags"
        for line in lines[1:]:
            name, body = line[len("witness "):].split(": ", 1)
            sets = [ref.mask(parse_set(s)) for s in re.findall(r"\{[^}]*\}", body)]
            if name == "complement_closed":
                ok = (len(sets) == 2 and all(s in ref.members for s in sets)
                      and sets[0] & ~sets[1] not in ref.members)
            elif name == "weakly_left_resolving":
                ok = len(sets) == 2 and ref.wlr_witness_ok(sets[0], sets[1], body.split()[-1])
            else:
                ok = False  # the parser rejects non-accommodating families
            if not ok:
                return "witness %s is not a violation" % name
    return check


def check_refute(ref, word, gens, depth):
    def check(answer):
        code, out, err = answer
        if code != 0 or err:
            return "refute failed"
        lines = out.splitlines()
        if lines == ["no counterexample at depth %d" % depth]:
            found = None
        elif len(lines) == 2 and lines[0].startswith("not tight: ") and lines[1].startswith(
                "cover parts: "):
            x = ref.parse_element(lines[0][len("not tight: "):])
            parts = [ref.mask(parse_set(s)) for s in re.findall(r"\{[^}]*\}", lines[1])]
            found = (x, parts)
        else:
            return "unexpected refute output"
        if not ref.refutation_ok(word, gens, depth, found):
            return "refutation is wrong"
    return check


def _cli_op(rng, command, path, ref, words):
    """One subcommand with seeded arguments, and how to check it."""
    tag = "%s %s" % (command, os.path.basename(path))
    if command == "validate":
        return Op(tag, lambda: run_cli(["validate", path]), check_validate(ref))
    if command in ("balgebra", "ultrafilters"):
        word = rng.choice(words)
        if rng.random() < 0.1 and _non_path(ref):
            word = _non_path(ref)
        argv = [command, path, "--word", fmt_word(word)]

        def make():
            if not ref.is_path(word):
                return check_refusal
            top, elems, atoms = ref.algebra(word)
            if command == "balgebra":
                text = "word: %s\ntop: %s\nelements: %s\natoms: %s\n" % (
                    fmt_word(word), "none" if top is None else ref.fmt(top),
                    " ".join(ref.fmt(a) for a in elems), " ".join(ref.fmt(a) for a in atoms))
            else:
                text = "".join("%s ; gen=%s\n" % (fmt_word(word), ref.fmt(a))
                               for a in sorted(atoms, key=ref.key))
            return expect_text(text)
        return Op("%s --word %s" % (tag, fmt_word(word)), lambda: run_cli(argv), lazy(make))
    if command in ("mul", "inv", "leq"):
        idem = command == "leq"
        elems = [_random_element(rng, ref, words, idem) for _ in range(1 if command == "inv" else 2)]
        bad = _bad_element(rng, ref, words) if rng.random() < 0.1 else None
        if bad is not None:
            elems[0] = bad
        argv = [command, path] + [ref.fmt_element(e) for e in elems]

        def make():
            if bad is not None:
                return check_refusal
            if command == "mul":
                return expect_text(ref.fmt_element(ref.product(*elems)) + "\n")
            if command == "inv":
                a, m, b = elems[0]
                return expect_text(ref.fmt_element((b, m, a)) + "\n")
            return expect_text("%s\n" % str(ref.leq(*elems)).lower())
        return Op("%s %s" % (tag, " ".join(argv[2:])), lambda: run_cli(argv), lazy(make))
    if command == "refute":
        word = rng.choice([w for w in words if w] or words)
        _, elems, _ = ref.algebra(word)
        top = rng.choice([a for a in elems if a])
        depth = rng.randint(0, 2)
        argv = ["refute", path, "--filter", "%s ; gen=%s" % (fmt_word(word), ref.fmt(top)),
                "--depth", str(depth)]

        def make():
            try:
                gens = ref.from_top(word, top)
            except Refusal:
                return check_refusal
            return check_refute(ref, word, gens, depth)
        return Op("%s %s" % (tag, " ".join(argv[2:])), lambda: run_cli(argv), lazy(make))
    raise ValueError(command)


# (kind, size, ops of that size per deck, how many of them are validate).
# The cost of a one-shot command is dominated by parsing and validating its
# family, which grows about 4x per vertex, so the counts fall with the size:
# every size stays in each deck while a deck still takes a few seconds.
# validate checks the family twice, so it gets fixed slots on the two
# smaller sizes of each kind; the other commands rotate through the
# remaining slots from deck to deck.  Ops above 300 ms (the two largest
# files and the chain7 validate golden) are then 8% of a deck, so p90 falls
# among the 200-250 ms ops rather than among validates of the larger files,
# whose cost spreads over 300-480 ms.
CLI_ONESHOT_DECK = (
    ("powerset", 7, 4, 1), ("powerset", 8, 3, 1), ("powerset", 9, 2, 0), ("powerset", 10, 1, 0),
    ("explicit", 8, 4, 1), ("explicit", 9, 3, 1), ("explicit", 10, 2, 0), ("explicit", 11, 1, 0),
    ("closure", 6, 3, 1), ("closure", 7, 3, 1), ("closure", 8, 3, 1),
)
CLI_ONESHOT_GOLDEN = tuple(n for n, a in sorted(GOLDEN.items()) if a[0] in CLI_ONESHOT_COMMANDS)


def cli_oneshot_inputs(rng, workdir, watch):
    """Two files per (kind, size); chain-shaped files are fixed per size.

    The letter count of a powerset file is fixed by its size and index.  A
    closure family is a Boolean algebra of 2^atoms sets and its cost follows
    that count, so closure spaces are redrawn until they have n - 2 atoms
    (about a third of the draws do)."""
    files = {}
    for kind, n, _, _ in CLI_ONESHOT_DECK:
        for i in range(2):
            name = "%s%d-%d" % (kind, n, i)
            if kind == "powerset":
                ref = Ref(gen.powerset_space(rng, name, n, 1 + (n + i) % 3, 0.5))
            elif kind == "explicit":
                ref = Ref(gen.chain_space(name, n))
            else:
                ref = None
                while ref is None or len(ref.family) != 1 << (n - 2):
                    ref = Ref(gen.closure_space(rng, name, n, 1 + (n + i) % 2, 0.35,
                                                rng.randint(2, 3)))
            space = ref.space
            files.setdefault((kind, n), []).append((write_space(space, workdir, watch), ref,
                                                    ref.words_up_to(2)))
    return files


def cli_oneshot_deck(rng, files, deck_no):
    ops = golden_ops(CLI_ONESHOT_GOLDEN)
    others = CLI_ONESHOT_COMMANDS[1:]
    slot = 0
    for kind, n, count, validates in CLI_ONESHOT_DECK:
        for i in range(count):
            if i < validates:
                command = "validate"
            else:
                command = others[(slot + deck_no) % len(others)]
                slot += 1
            path, ref, words = rng.choice(files[(kind, n)])
            ops.append(_cli_op(rng, command, path, ref, words))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# spectrum-ladder

SPECTRUM_GOLDEN = tuple(n for n, a in sorted(GOLDEN.items()) if a[0] in SPECTRUM_COMMANDS)
# (vertices, letters) strata of one deck, each dealt once per command.
# Parsing a powerset family costs about 4x per vertex, so 8-vertex spaces
# appear once where the smaller ones appear twice; with equal counts the
# 8-vertex parses take half a deck's time and the latency percentiles
# spread twice as much between seeds.
SPECTRUM_STRATA = [(n, k) for n in range(4, 9) for k in range(1, 4)
                   for _ in range(1 if n == 8 else 2)]


def _twins3(tag):
    """The twins3 fixture with edge ids made unique per use, so that every
    use meets cold caches like a fresh process would."""
    g, _ = fixtures.twins3()
    space = gen.space_from_library("twins3-%s" % tag, g, None, "powerset")
    edges = tuple((eid + tag, s, b, d) for eid, s, b, d in space.edges)
    return space._replace(edges=edges)


def _spectrum_op(command, path, space, max_len, max_cycle):
    """One subcommand on a written space; its reference model is built only
    when the answer is checked."""
    tag = "%s %s" % (command, os.path.basename(path))
    if command == "compare":
        argv = ["compare", path, "--max-len", str(max_len), "--max-cycle", str(max_cycle)]

        # the paper's theorem: a bijection on every left-resolving powerset
        # space, with the brute-force boundary counts
        def text(ref):
            return ref.compare_counts(max_len, max_cycle) + "\nbijection: yes\n"
    elif command == "tight":
        argv = ["tight", path, "--max-word", str(max_len), "--max-cycle", str(max_cycle)]
        text = lambda ref: ref.tight_text(max_len, max_cycle)
    elif command == "boundary":
        argv = ["boundary", path, "--max-len", str(max_len), "--max-cycle", str(max_cycle)]
        text = lambda ref: ref.boundary_text(max_len, max_cycle)
    elif command == "isolated":
        argv = ["isolated", path, "--max-prefix", str(max_len)]
        text = lambda ref: ref.isolated_text(max_len)
    else:
        argv = ["ufgraph", path]
        text = lambda ref: ref.ufgraph_text()
    return Op("%s %s" % (tag, " ".join(argv[2:])), lambda: run_cli(argv),
              lazy(lambda: expect_text(text(Ref(space)))))


# the largest estimated lasso work (``gen.lasso_work``) of a compare or tight
# op, about 0.2 s.  A draw above it is replaced by a fresh draw of the same
# stratum and listed as skipped: the widened lasso enumeration of
# ``transition.py`` grows exponentially with the number of ranges, and the
# draws beyond the cap (about one compare or tight draw in twelve; median
# estimate ten times the cap) run for seconds to months, so they could only
# enter a run as timeouts, and no op of a run may fail.
LASSO_WORK_CAP = 20_000
# the twins3 ladder point: --max-word 2 --max-cycle 2 takes about 1.4 s.  At
# cycle bound 3 its estimated lasso work is 58 times larger, minutes per op.
TWINS3_BOUNDS = (2, 2)


def spectrum_deck(rng, workdir, deck_no, watch, skipped):
    """One op per (command, vertex count, letter count) on a fresh random
    left-resolving powerset space, the spectrum goldens, and the twins3
    ladder point.  Draws skipped for their lasso work are appended to
    ``skipped`` as (label, estimated work)."""
    ops = golden_ops(SPECTRUM_GOLDEN)
    for i, command in enumerate(SPECTRUM_COMMANDS):
        for j, (n, k) in enumerate(SPECTRUM_STRATA):
            # bounds rotate through every stratum over the decks
            max_len = 1 + (i + j + deck_no) % 3
            max_cycle = 1 + (i + j // 3 + deck_no) % 2
            name = "lr%d-%d-%d" % (deck_no, i, j)
            while True:
                space = gen.powerset_space(rng, name, n, k, 0.25)
                if command not in ("compare", "tight"):
                    break
                work = gen.lasso_work(Ref(space), max_len, max_cycle)
                if work <= LASSO_WORK_CAP:
                    break
                skipped.append(("%s %s max %d cycle %d" % (command, name, max_len, max_cycle),
                                work))
            path = write_space(space, workdir, watch)
            ops.append(_spectrum_op(command, path, space, max_len, max_cycle))
    twins = _twins3("d%d" % deck_no)
    ops.append(_spectrum_op("tight", write_space(twins, workdir, watch), twins,
                            *TWINS3_BOUNDS))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# session

class SessionSpace:
    """A loaded space with its query pools: library objects for the calls,
    the reference model for the checks.  ``watch`` times the library calls."""

    def __init__(self, rng, name, graph, fam, ref, watch):
        self.name, self.graph, self.fam, self.ref = name, graph, fam, ref
        self.words = ref.words_up_to(2)
        with watch:
            self.elements = semigroup.elements_up_to(fam, 1)
        self.idempotents = [e for e in self.elements if e.alpha == e.beta]
        self.towers = []
        while len(self.towers) < 6:
            word = rng.choice([w for w in self.words if w])
            top = rng.choice([a for a in ref.algebra(word)[1] if a])
            try:
                gens = ref.from_top(word, top)
            except Refusal:
                continue
            names = self.names(gens)
            with watch:
                tower = ls.FiniteFilterFamily(fam, word, names)
            self.towers.append((word, gens, tower))

    def names(self, gens):
        return [None if g is None else self.ref.names(g) for g in gens]

    def fmt_tower(self, gens):
        return "".join("-" if g is None else self.ref.fmt(g) for g in gens)

    def plain(self, s):
        return None if s.is_zero else (s.alpha, self.ref.mask(s.vset), s.beta)

    def admissible(self, rng):
        """Generators with g(n+1) inside r(g(n), w(n+1)); level 0 may be empty."""
        ref = self.ref
        word = rng.choice([w for w in self.words if w])
        for _ in range(20):
            gens = [rng.choice([a for a in ref.algebra(())[1] if a] + [None])]
            for n, b in enumerate(word):
                room = ref.full if gens[-1] is None else ref.rr(gens[-1], (b,))
                choices = [a for a in ref.algebra(word[: n + 1])[1] if a and a & ~room == 0]
                if not choices:
                    break
                gens.append(rng.choice(choices))
            else:
                return word, tuple(gens)
        return None


def _answer_or_refusal(fn):
    try:
        return fn()
    except ls.DomainError:
        return "refused"


def _expect(value_fn):
    def make():
        try:
            value = value_fn()
        except Refusal:
            value = "refused"
        return lambda answer: None if answer == value else "answer differs from the reference"
    return lazy(make)


def session_query(rng, kind, sp):
    """One library query of the given kind on a loaded space."""
    fam, ref = sp.fam, sp.ref
    label = "%s %s" % (kind, sp.name)
    if kind in ("multiply", "meet", "leq", "inverse"):
        pool = sp.elements if kind == "multiply" or kind == "inverse" else sp.idempotents
        s, t = rng.choice(pool), rng.choice(pool)
        label += " %s %s" % (s, t)
        if kind == "inverse":
            return Op(label, lambda: str(ls.inverse(s)),
                      _expect(lambda: ref.fmt_element((s.beta, ref.mask(s.vset), s.alpha))))
        if kind == "leq":
            return Op(label, lambda: ls.leq(fam, s, t),
                      _expect(lambda: ref.leq(sp.plain(s), sp.plain(t))))
        # the function is looked up when the op runs, so that a traced run
        # sees the call
        return Op(label, lambda: str((ls.multiply if kind == "multiply" else ls.meet)(fam, s, t)),
                  _expect(lambda: ref.fmt_element(ref.product(sp.plain(s), sp.plain(t)))))
    if kind in ("algebra", "ultrafilters"):
        word = rng.choice(sp.words)
        label += " " + fmt_word(word)
        if kind == "algebra":
            def run():
                alg = fam.algebra(word)
                return alg.top, alg.elements, alg.atoms

            def value():
                top, elems, atoms = ref.algebra(word)
                return (None if top is None else ref.names(top),
                        tuple(ref.names(a) for a in elems), tuple(ref.names(a) for a in atoms))
            return Op(label, run, _expect(value))
        return Op(label, lambda: tuple(f.gen for f in ls.ultrafilters(fam.algebra(word))),
                  _expect(lambda: tuple(ref.names(a) for a in sorted(
                      ref.algebra(word)[2], key=ref.key))))
    if kind == "preimage":
        word = rng.choice([w for w in sp.words if w])
        cut = rng.randint(0, len(word) - 1)
        alpha, beta = word[:cut], word[cut:]
        gen_mask = rng.choice([a for a in ref.algebra(word)[1] if a])
        gen_names = ref.names(gen_mask)
        label += " %s|%s %s" % (fmt_word(alpha), fmt_word(beta), ref.fmt(gen_mask))

        def run():
            flt = ls.PrincipalFilter(fam.algebra(word), gen_names)
            pre = _answer_or_refusal(lambda: ls.preimage_filter(fam, alpha, beta, flt))
            return pre if pre in (None, "refused") else pre.gen

        def value():
            pre = ref.preimage(alpha, beta, gen_mask)
            return None if pre is None else ref.names(pre)
        return Op(label, run, _expect(value))
    if kind == "from_top":
        word = rng.choice([w for w in sp.words if w])
        top = rng.choice([a for a in ref.algebra(word)[1] if a])
        label += " %s %s" % (fmt_word(word), ref.fmt(top))
        return Op(label, lambda: _answer_or_refusal(
            lambda: ls.FiniteFilterFamily.from_top(fam, word, ref.names(top)).gens),
            _expect(lambda: tuple(sp.names(ref.from_top(word, top)))))
    if kind == "completion":
        picked = sp.admissible(rng)
        if picked is None:
            return None
        word, gens = picked
        names = sp.names(gens)
        label += " %s %s" % (fmt_word(word), sp.fmt_tower(gens))
        return Op(label, lambda: _answer_or_refusal(
            lambda: ls.FiniteFilterFamily(fam, word, names).completion().gens),
            _expect(lambda: tuple(sp.names(ref.completion(word, gens)))))
    if kind == "membership":
        word, gens, tower = rng.choice(sp.towers)
        p = rng.choice(sp.idempotents)
        label += " %s %s" % (fmt_word(word), p)
        return Op(label, lambda: ls.es_filter_membership(fam, tower, p),
                  _expect(lambda: ref.member(word, gens, sp.plain(p))))
    if kind == "refute":
        word, gens, tower = rng.choice(sp.towers)
        depth = rng.randint(0, 2)
        label += " %s depth %d" % (fmt_word(word), depth)

        def run():
            found = ls.refute_tightness(fam, tower, depth)
            if found is None:
                return None
            x, cert = found
            return (x.alpha, ref.mask(x.vset), x.beta), [ref.mask(p) for p in cert.parts]
        return Op(label, run, lambda answer: None if ref.refutation_ok(
            word, gens, depth, answer) else "refutation is wrong")
    if kind == "enumerate":
        word = rng.choice([w for w in sp.words if w])
        label += " " + fmt_word(word)
        return Op(label, lambda: tuple(t.gens for t in ls.enumerate_complete_families(fam, word)),
                  _expect(lambda: tuple(tuple(sp.names(g)) for g in ref.complete_towers(word))))
    if kind == "maximal":
        word, gens, tower = rng.choice(sp.towers)
        label += " %s %s" % (fmt_word(word), sp.fmt_tower(gens))
        return Op(label, lambda: ls.is_maximal_complete_family(fam, tower),
                  _expect(lambda: ref.is_maximal(word, gens)))
    raise ValueError(kind)


SESSION_KINDS = ("multiply", "multiply", "inverse", "leq", "leq", "meet", "algebra",
                 "ultrafilters", "preimage", "from_top", "completion", "membership", "refute")


def session_spaces(rng, watch):
    """loops4, chain7(10) and two random left-resolving powerset spaces, on
    7 vertices with 3 letters and on 8 with 2, loaded once.  Fixing their
    sizes keeps the cost of a deck from varying with the seed.  ``watch``
    times the loading."""
    out = []
    with watch:
        g, fam = fixtures.loops4()
    out.append(SessionSpace(rng, "loops4", g, fam,
                            Ref(gen.space_from_library("loops4", g, fam, "explicit")), watch))
    with watch:
        g, fam = fixtures.chain7(10)
    out.append(SessionSpace(rng, "chain7", g, fam, Ref(gen.chain_space("chain7", 10)), watch))
    for n, k in ((7, 3), (8, 2)):
        space = gen.powerset_space(rng, "random%d" % n, n, k, 0.5)
        with watch:
            g, fam = lgrfile.parse_graph_file(gen.lgr_text(space))
        out.append(SessionSpace(rng, space.name, g, fam, Ref(space), watch))
    return out


def session_deck(rng, spaces):
    ops = []
    for sp in spaces:
        for kind in SESSION_KINDS:
            op = session_query(rng, kind, sp)
            if op is not None:
                ops.append(op)
    chain = next(sp for sp in spaces if sp.name == "chain7")
    ops.append(session_query(rng, "enumerate", chain))
    ops.append(session_query(rng, "maximal", chain))
    rng.shuffle(ops)
    return ops
