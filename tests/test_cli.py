import io
import os
import subprocess
import sys

import pytest

from labelled_spaces import cli, family
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
        assert run(["--help"])[0] == 0
        assert capsys.readouterr().out.startswith("usage: lspace")

    def test_usage_error_through_process_streams(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "labelled_spaces.cli", "tight", "loops4.lgr",
             "--max-word", "x"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
