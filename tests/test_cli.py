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

from labelled_spaces import FiniteFilterFamily, LassoFilterFamily, cli, family, filters
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

    def test_known_command_builds_its_parser_alone(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = GOLDEN_COMMANDS["tight_loops4.txt"]
        assert run(argv)[0] == 0
        # the top-level parser and the ``tight`` subparser; all twelve before
        assert built == ["lspace", "lspace tight"]

    @staticmethod
    def lspace(*argv):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "labelled_spaces.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

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


def assert_same_as_full_parser(argv):
    """A call answers as it would with every subparser built, and it builds
    only the named one when the first token names a subcommand."""
    build = cli.build_parser
    asked = []

    def recording(names=tuple(cli._COMMANDS)):
        asked.append(tuple(names))
        return build(names)

    with mock.patch.object(cli, "build_parser", recording):
        answer = run_streams(argv)
    with mock.patch.object(cli, "build_parser", lambda names=None: build()):
        assert answer == run_streams(argv), argv
    if argv and argv[0] in cli._COMMANDS:
        assert asked == [(argv[0],)], argv
    else:
        assert asked == [tuple(cli._COMMANDS)] and answer[0] in (0, 2), argv
    return answer


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
