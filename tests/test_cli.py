import argparse
import contextlib
import io
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_spaces import FiniteFilterFamily, LassoFilterFamily, cli, family, filters, fixtures
from labelled_spaces.cli import run_command

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# every documented fixture command reproduces its committed golden file
GOLDEN_COMMANDS = {
    "validate_loops4.txt": ["validate", "loops4.lgr"],
    "validate_chain7.txt": ["validate", "chain7.lgr"],
    "balgebra_chain7_a1.txt": ["balgebra", "chain7.lgr", "--word", "a1"],
    "balgebra_chain7_a1a2.txt": ["balgebra", "chain7.lgr", "--word", "a1.a2"],
    "ultrafilters_loops4_a.txt": ["ultrafilters", "loops4.lgr", "--word", "a"],
    "ufgraph_loops4.txt": ["ufgraph", "loops4.lgr"],
    "tight_loops4.txt": ["tight", "loops4.lgr", "--max-word", "3", "--max-cycle", "2"],
    "boundary_loops4_powerset.txt": [
        "boundary", "loops4_powerset.lgr", "--max-len", "1", "--max-cycle", "1",
    ],
    "compare_loops4_powerset.txt": [
        "compare", "loops4_powerset.lgr", "--max-len", "4", "--max-cycle", "2",
    ],
    "refute_loops4_fat.txt": [
        "refute", "loops4.lgr", "--filter", "(a)^inf ; gens=({1 2 4})^inf", "--depth", "0",
    ],
    "isolated_twins3.txt": ["isolated", "twins3.lgr"],
    "isolated_twins2.txt": ["isolated", "twins2.lgr"],
    "mul_loops4.txt": ["mul", "loops4.lgr", "(a,{1 3},a)", "(a,{2 3 4},a)"],
    "leq_loops4.txt": ["leq", "loops4.lgr", "(a,{2 4},a)", "(@,{1},@)"],
    "inv_loops4.txt": ["inv", "loops4.lgr", "(a,{2 4},@)"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_matches_committed_output(self, name):
        code, out, _ = run(GOLDEN_COMMANDS[name])
        with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
            assert out == fh.read()
        assert code == 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_runs_are_deterministic(self, name):
        first = run(GOLDEN_COMMANDS[name])
        second = run(GOLDEN_COMMANDS[name])
        assert first == second


class TestExitCodes:
    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.lgr"
        bad.write_text("vertices u\nedge u a w\nfamily powerset\n")
        code, _, err = run(["validate", str(bad)])
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_two(self):
        code, _, err = run(["validate", "missing.lgr"])
        assert code == 2

    def test_unknown_command_is_two(self, capsys):
        code, out, err = run(["frobnicate", "loops4.lgr"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "frobnicate" in err
        assert capsys.readouterr() == ("", "")

    def test_require_failure_is_one(self):
        code, _, _ = run(["validate", "chain7.lgr", "--require", "complements"])
        assert code == 1

    def test_require_success_is_zero(self):
        code, _, _ = run(["validate", "chain7.lgr", "--require", "accommodating,wlr"])
        assert code == 0

    def test_unsupported_family_is_one(self):
        code, _, err = run(["ufgraph", "chain7.lgr"])
        assert code == 1
        assert "relative complements" in err

    def test_unsupported_family_names_its_witness(self):
        code, out, err = run(["ufgraph", "chain7.lgr"])
        assert (code, out) == (1, "")
        assert err == (
            "error: family is not closed under relative complements: "
            "{v1 v10 v2 v3 v4} {v1 v10 v2}\n"
        )

    def test_validate_prints_the_report_built_on_load(self, monkeypatch):
        calls = []
        validate_members = family._validate_members

        def counted(*args):
            calls.append(args)
            return validate_members(*args)

        # every validation runs here, the family's own and any through the
        # public ``validate``, so a second one from the CLI would count too
        monkeypatch.setattr(family, "_validate_members", counted)
        code, out, _ = run(["validate", "chain7.lgr"])
        assert code == 0 and out.startswith("accommodating=true wlr=true complements=false\n")
        assert len(calls) == 1

    def test_bad_element_is_two(self):
        code, _, _ = run(["mul", "loops4.lgr", "(a,{9},a)", "0"])
        assert code == 2

    def test_compare_success_is_zero(self):
        code, _, _ = run(["compare", "loops4_powerset.lgr", "--max-len", "2", "--max-cycle", "2"])
        assert code == 0

    def test_directory_is_two(self, tmp_path):
        code, _, err = run(["validate", str(tmp_path)])
        assert code == 2
        assert err.count("error:") == 1

    def test_non_utf8_file_is_two(self, tmp_path):
        bad = tmp_path / "bad.lgr"
        bad.write_bytes(b"vertices \xff\n")
        code, _, err = run(["validate", str(bad)])
        assert code == 2
        assert err.count("error:") == 1

    def test_oversized_powerset_is_two(self, tmp_path):
        # 2^17 members: refused before any is listed
        big = tmp_path / "big.lgr"
        verts = ["v%02d" % i for i in range(17)]
        edges = ["edge %s a %s" % (v, verts[(i + 1) % 17]) for i, v in enumerate(verts)]
        big.write_text("\n".join(["vertices " + " ".join(verts)] + edges + ["family powerset"]))
        code, out, err = run(["validate", str(big)])
        assert (code, out) == (2, "")
        assert err == (
            "error: line 19: family would have 131072 members; at most 65536 are supported\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["tight", "loops4.lgr", "--max-word", "-1"],
            ["tight", "loops4.lgr", "--max-cycle", "-1"],
            ["boundary", "loops4.lgr", "--max-len", "-1"],
            ["compare", "loops4_powerset.lgr", "--max-cycle", "-1"],
            ["refute", "loops4.lgr", "--filter", "a ; gen={3}", "--depth", "-1"],
            ["isolated", "twins3.lgr", "--max-prefix", "-1"],
        ],
        ids=["max-word", "max-cycle", "max-len", "compare-max-cycle", "depth", "max-prefix"],
    )
    def test_negative_bound_is_two(self, argv, capsys):
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        # one line on the caller's error stream, nothing on the process's
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expected a nonnegative integer, got '-1'" in err
        assert capsys.readouterr() == ("", "")

    # a cycle bound far above the recursion limit: the lasso walker keeps its
    # walks on an explicit stack
    def test_long_cycle_bound_boundary_is_zero(self):
        code, out, err = run(["boundary", "single_loop.lgr", "--max-cycle", "3000"])
        assert (code, err) == (0, "")
        assert out.split("infinite paths (1):\n")[1].startswith("  v ([e1]a)^inf\n")

    def test_long_cycle_bound_tight_is_zero(self):
        code, out, err = run(["tight", "single_loop.lgr", "--max-cycle", "3000"])
        assert (code, err) == (0, "")
        assert "infinite type (1):\n  (a)^inf ; gens=({v})^inf ; f0={v}\n" in out


class TestListingBudget:
    """``boundary``, ``tight`` and ``isolated`` count exactly before they
    list, and refuse a listing past the budget at once, naming the bounds and
    the count; ``compare`` counts without listing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["boundary", "twins3.lgr", "--max-len", "30", "--max-cycle", "2"],
             "the boundary up to length 30 and cycle 2 has 9227464 points"),
            (["tight", "twins3.lgr", "--max-word", "12", "--max-cycle", "12"],
             "the tight spectrum up to word length 12 and cycle 12 has 263565 points"),
            (["isolated", "twins3.lgr", "--max-prefix", "30"],
             "the isolated part of the boundary up to prefix 30 has 3524577 points"),
        ],
    )
    def test_refused_at_once(self, argv, message):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: %s; at most 100000 are listed\n" % message

    def test_compare_counts_past_the_budget(self):
        start = time.perf_counter()
        code, out, err = run(["compare", "twins3.lgr", "--max-len", "25", "--max-cycle", "3"])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out == ("boundary: 0 finite + 1346268 infinite | "
                       "spectrum: 0 finite + 1346268 infinite\nbijection: yes\n")

    def test_compare_golden_builds_no_tower(self, monkeypatch):
        built = []
        lasso_init = LassoFilterFamily.__init__

        def counted_init(self, *args, **kwargs):
            built.append("lasso")
            lasso_init(self, *args, **kwargs)

        from_top = FiniteFilterFamily.from_top.__func__

        def counted_from_top(klass, *args):
            built.append("from_top")
            return from_top(klass, *args)

        monkeypatch.setattr(LassoFilterFamily, "__init__", counted_init)
        monkeypatch.setattr(FiniteFilterFamily, "from_top", classmethod(counted_from_top))
        name = "compare_loops4_powerset.txt"
        code, out, _ = run(GOLDEN_COMMANDS[name])
        with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
            assert (code, out) == (0, fh.read())
        assert built == []

    def test_tight_golden_scans_no_preimage(self, monkeypatch):
        # every tower, level 0 included, is read off the transition graph
        scans = []
        preimage_gen = filters._preimage_gen
        from_top = FiniteFilterFamily.from_top.__func__

        def counted_preimage_gen(*args):
            scans.append("_preimage_gen")
            return preimage_gen(*args)

        def counted_from_top(klass, *args):
            scans.append("from_top")
            return from_top(klass, *args)

        monkeypatch.setattr(filters, "_preimage_gen", counted_preimage_gen)
        monkeypatch.setattr(FiniteFilterFamily, "from_top", classmethod(counted_from_top))
        name = "tight_loops4.txt"
        code, out, _ = run(GOLDEN_COMMANDS[name])
        with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
            assert (code, out) == (0, fh.read())
        assert scans == []


class TestOutputs:
    def test_mul(self):
        _, out, _ = run(["mul", "loops4.lgr", "(a,{1 3},a)", "(a,{2 3 4},a)"])
        assert out == "(a,{3},a)\n"

    def test_leq(self):
        _, out, _ = run(["leq", "loops4.lgr", "(a,{2 4},a)", "(@,{1},@)"])
        assert out == "true\n"

    def test_refute_tight_filter_reports_none(self):
        _, out, _ = run(["refute", "loops4.lgr", "--filter", "a ; gen={3}", "--depth", "4"])
        assert out == "no counterexample at depth 4\n"

    def test_isolated_with_prefix_bound(self):
        _, out, _ = run(["isolated", "twins3.lgr", "--max-prefix", "2"])
        assert out.splitlines()[0] == "isolated points (4):"


class TestParser:
    def test_patched_handler_is_seen_by_next_call(self, monkeypatch):
        run(["tight", "single_loop.lgr", "--max-word", "0", "--max-cycle", "1"])

        def patched(args, out):
            out.write("patched %d %d\n" % (args.max_word, args.max_cycle))
            return 0

        monkeypatch.setattr(cli, "cmd_tight", patched)
        assert run(["tight", "single_loop.lgr", "--max-word", "2"]) == (0, "patched 2 3\n", "")

    def test_help_is_zero(self, capsys):
        # the help text goes to the caller's ``out``, not the process's stdout
        for argv in (["--help"], ["tight", "--help"]):
            code, out, err = run(argv)
            assert (code, err) == (0, "")
            assert out.startswith("usage: lspace " + " ".join(argv[:-1])), out
            assert capsys.readouterr() == ("", "")

    @pytest.fixture
    def built(self, monkeypatch):
        """The progs of the ``ArgumentParser``s built, from an empty cache."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.setattr(cli, "_PARSERS", {})
        return built

    def test_known_command_builds_its_parser_alone(self, built):
        argv = GOLDEN_COMMANDS["tight_loops4.txt"]
        assert run(argv)[0] == 0
        # the top-level parser and the ``tight`` subparser; all twelve before
        assert built == ["lspace", "lspace tight"]

    def test_each_parser_is_built_once_per_process(self, built):
        # one call of every subcommand, then help with every subparser
        argvs = list({argv[0]: argv for argv in GOLDEN_COMMANDS.values()}.values())
        argvs.append(["--help"])
        assert len(argvs) == len(cli._COMMANDS) + 1
        builds = []
        for _ in range(20):
            for argv in argvs:
                before = len(built)
                assert run(argv)[0] == 0, argv
                builds.append(len(built) - before)
        # ``lspace`` and ``lspace <name>``, then ``lspace`` and all twelve
        assert builds[:len(argvs)] == [2] * len(cli._COMMANDS) + [len(cli._COMMANDS) + 1]
        assert not any(builds[len(argvs):]), builds
        assert len(cli._PARSERS) == len(cli._COMMANDS) + 1

    @staticmethod
    def lspace(*argv, stdout=subprocess.PIPE, unbuffered=False):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "labelled_spaces.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )

    @staticmethod
    def assert_output_lost(proc, reason):
        # exit 1 and one error line: no traceback, and nothing more at
        # interpreter shutdown ("Exception ignored ...")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "error: cannot write output: %s\n" % reason, proc.stderr

    # buffered, the write fails at the flush; unbuffered, inside the handler
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_is_one(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.lspace(*GOLDEN_COMMANDS["tight_loops4.txt"], stdout=write_end,
                               unbuffered=unbuffered)
        finally:
            os.close(write_end)
        self.assert_output_lost(proc, "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device_is_one(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.lspace(*GOLDEN_COMMANDS["boundary_loops4_powerset.txt"], stdout=full,
                               unbuffered=unbuffered)
        self.assert_output_lost(proc, "No space left on device")

    def test_usage_error_through_process_streams(self):
        proc = self.lspace("tight", "loops4.lgr", "--max-word", "x")
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["tight", "--help"]], ids=["top", "tight"])
    def test_help_through_process_streams(self, argv):
        proc = self.lspace(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: lspace"), proc.stdout


# argv tokens: every subcommand and an unknown one, help and "--", every
# option and some abbreviations (one ambiguous), good and bad values, and
# fixtures that load quickly at the default bounds and a missing file
NAMES = list(cli._COMMANDS) + ["frobnicate"]
FILES = ["loops4.lgr", "loops4_powerset.lgr", "twins2.lgr", "single_loop.lgr", "chain7.lgr",
         "missing.lgr"]
TOKENS = NAMES + FILES + [
    "-h", "--help", "--",
    "--require", "--word", "--max-word", "--max-cycle", "--max-len", "--filter", "--depth",
    "--max-prefix", "--max-w", "--max-c", "--max", "--req", "--dep",
    "x", "-1", "0", "1", "2", "a", "a.a", "(a,{1 3},a)", "(@,{1},@)", "a ; gen={3}",
    "accommodating,wlr", "complements",
]


def run_streams(argv):
    """``run`` with the process's stdout and stderr captured as well."""
    proc_out, proc_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(proc_out), contextlib.redirect_stderr(proc_err):
        answer = run(argv)
    return answer + (proc_out.getvalue(), proc_err.getvalue())


def run_fresh(argv):
    """``run_streams`` with every subparser built afresh for this call."""
    build = cli.build_parser
    with mock.patch.object(cli, "_PARSERS", {}), \
            mock.patch.object(cli, "build_parser", lambda names=None: build()):
        return run_streams(argv)


def assert_same_as_full_parser(argv):
    """A call answers as it would with every subparser built, with its parser
    cache cold and warm, and it builds only the named subparser, once, when
    the first token names a subcommand."""
    build = cli.build_parser
    asked = []

    def recording(names=tuple(cli._COMMANDS)):
        asked.append(tuple(names))
        return build(names)

    with mock.patch.object(cli, "_PARSERS", {}), \
            mock.patch.object(cli, "build_parser", recording):
        cold = run_streams(argv)
        warm = run_streams(argv)
    assert cold == warm == run_fresh(argv), argv
    if argv and argv[0] in cli._COMMANDS:
        assert asked == [(argv[0],)], argv
    else:
        assert asked == [tuple(cli._COMMANDS)] and cold[0] in (0, 2), argv
    return cold


def draw_argv(rng):
    """Mostly a subcommand and a graph file, then a few random tokens."""
    head = [rng.choice(NAMES) if rng.random() < 0.8 else rng.choice(TOKENS)]
    if rng.random() < 0.7:
        head.append(rng.choice(FILES))
    return head + [rng.choice(TOKENS) for _ in range(rng.choice((0, 0, 1, 2, 4)))]


class TestOneSubparser:
    """Parsing with the named subparser alone must answer exactly as the full
    parser does: exit code, output, error text and the process's streams."""

    def test_seeded_argvs(self):
        rng = random.Random(0)
        codes = {}
        for _ in range(400):
            code = assert_same_as_full_parser(draw_argv(rng))[0]
            codes[code] = codes.get(code, 0) + 1
        # answers and usage errors are both drawn
        assert codes.get(0, 0) >= 20 and codes.get(2, 0) >= 20, codes

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=7))
    def test_any_argv(self, argv):
        assert_same_as_full_parser(argv)

    @pytest.mark.parametrize(
        "argv",
        [[], ["--"], ["-h"], ["--help"], ["frobnicate"], ["tigh", "loops4.lgr"],
         ["--", "tight", "loops4.lgr"], ["tight"], ["tight", "--max", "1"],
         ["ufgraph", "chain7.lgr"], ["validate", "chain7.lgr", "--require", "complements"]],
    )
    def test_edge_argvs(self, argv):
        assert_same_as_full_parser(argv)

    def test_seeded_sequence_on_warm_parsers(self, monkeypatch):
        """In one process, each call answers as a fresh full parser does,
        whatever the calls before it left in the parsers it reuses."""
        rng = random.Random(1)
        tight = GOLDEN_COMMANDS["tight_loops4.txt"]
        blocks = [[draw_argv(rng)] for _ in range(150)] + [
            # each help text reaches its own ``out``
            [["--help"], ["--help"]],
            [["tight", "--help"], ["tight", "--help"]],
            # a usage error, then a valid call of the same subcommand
            [["tight", "loops4.lgr", "--max-word", "x"], tight],
            [["refute", "loops4.lgr", "--depth", "0"], GOLDEN_COMMANDS["refute_loops4_fat.txt"]],
            # explicit bounds, then the defaults again
            [["isolated", "twins3.lgr", "--max-prefix", "2"],
             GOLDEN_COMMANDS["isolated_twins3.txt"]],
            [["tight", "loops4.lgr", "--max-word", "1", "--max-cycle", "0"],
             ["tight", "loops4.lgr"]],
            [["validate", "chain7.lgr", "--require", "complements"], ["validate", "chain7.lgr"]],
        ]
        rng.shuffle(blocks)
        monkeypatch.setattr(cli, "_PARSERS", {})
        for block in blocks:
            answers = [run_streams(argv) for argv in block]
            assert answers == [run_fresh(argv) for argv in block], block
        for argv in (["--help"], ["tight", "--help"]):
            code, out, err, proc_out, proc_err = run_streams(argv)
            assert (code, err, proc_out, proc_err) == (0, "", "", "")
            assert out.startswith("usage: lspace " + " ".join(argv[:-1]))
        for name in ("tight_loops4.txt", "isolated_twins3.txt", "refute_loops4_fat.txt"):
            with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
                assert run(GOLDEN_COMMANDS[name]) == (0, fh.read(), "")

        # a handler patched between calls is seen by the next one, which
        # gets the default bounds back
        def patched(args, out):
            out.write("patched %d %d\n" % (args.max_word, args.max_cycle))
            return 0

        monkeypatch.setattr(cli, "cmd_tight", patched)
        assert run(["tight", "single_loop.lgr", "--max-cycle", "1"]) == (0, "patched 4 1\n", "")
        assert run(["tight", "single_loop.lgr", "--max-word", "2"]) == (0, "patched 2 3\n", "")
        assert run(tight) == (0, "patched 3 2\n", "")
        assert len(cli._PARSERS) <= len(cli._COMMANDS) + 1


# the shipped fixtures, each with a letter it labels an edge with
FUZZ_FILES = {"loops4": "a", "loops4_powerset": "a", "chain7": "a1", "twins2": "0",
              "twins3": "1", "single_loop": "a"}
# bytes inserted into a file: every token of the format, and some it forbids
FUZZ_BYTES = [b"\xff", b"\x00", b"\n", b"\r", b"\t", b" ", b"{", b"}", b"{}", b":", b"#",
              b"a", b"1", b"v1", b"vertices ", b"edge ", b"edge 1 a 1\n", b"edge v1 1 v2\n",
              b"family ", b"powerset", b"closure", b"explicit", b"family powerset\n"]


def fuzzed_lgr(rng, data):
    """``data`` with one or two random edits, each at a random byte or at the
    start of a line: a truncation, inserted bytes, a deletion, or a line
    duplicated or deleted."""
    for _ in range(rng.choice((1, 1, 2))):
        starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        at = rng.choice(starts) if rng.random() < 0.5 else rng.randrange(len(data) + 1)
        line = data[at:].split(b"\n", 1)[0] + b"\n"
        kind = rng.randrange(5)
        if kind == 0:
            data = data[:at]
        elif kind == 1:
            data = data[:at] + b"".join(rng.choices(FUZZ_BYTES, k=rng.randint(1, 2))) + data[at:]
        elif kind == 2:
            data = data[:at] + data[at + rng.randint(1, 12):]
        elif kind == 3:
            data = data[:at] + line + data[at:]
        else:
            data = data[:at] + data[at + len(line):]
    return data


def test_fuzzed_files_keep_the_cli_contract(tmp_path):
    """Mutated fixtures, run through the commands that read a file, exit 0,
    1 or 2; a failure prints one ``error:`` line and a success none, nothing
    reaches the process's streams, and a rerun answers alike."""
    rng = random.Random(19)
    codes = {}
    for i in range(300):
        name = rng.choice(sorted(FUZZ_FILES))
        with open(fixtures.path(name), "rb") as fh:
            data = fuzzed_lgr(rng, fh.read())
        path = str(tmp_path / ("%d.lgr" % i))
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["validate", path], ["balgebra", path, "--word", FUZZ_FILES[name]],
                     ["ufgraph", path], ["tight", path, "--max-word", "2", "--max-cycle", "2"],
                     ["boundary", path, "--max-len", "2", "--max-cycle", "2"],
                     ["compare", path, "--max-len", "2", "--max-cycle", "2"],
                     ["isolated", path, "--max-prefix", "2"]):
            answer = run_streams(argv)
            code, out, err, proc_out, proc_err = answer
            where = (argv[0], name, data)
            assert code in (0, 1, 2), where
            if code == 0:
                assert err == "", where
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (where, err)
            assert (proc_out, proc_err) == ("", ""), where
            assert run_streams(argv) == answer, where
            codes[code] = codes.get(code, 0) + 1
    # both answers and refusals are drawn
    assert codes.get(0, 0) >= 100 and codes.get(2, 0) >= 300, codes


def test_import_loads_no_dataclasses_inspect_or_typing():
    """A real ``lspace`` process pays for each module it imports.  The
    library's values are named tuples and plain classes, so importing the CLI
    on a bare interpreter (``-S``: no site hooks) loads none of these."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, labelled_spaces.cli; print(' '.join("
            "m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "", "")
