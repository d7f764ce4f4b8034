"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

Run from the root of a checkout.  It checks that
  1. the input generator is deterministic: the same seed writes the same
     bytes and deals the same ops in two processes with different string
     hash seeds, and another seed does not;
  2. the checker flags corrupted answers: every answer of one deck per
     workload is corrupted and each corruption must be caught;
  3. traced runs repeat: two ``run.py --trace 1`` processes per workload
     report identical counts.
Prints one line per check and exits non-zero if any fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402


def digest(workload, seed, workdir):
    """Digest of every generated file and op label of the first two decks."""
    work, _ = run.set_up(workload, seed, workdir)
    h = hashlib.sha256()
    for op in work.first + work.next_deck():
        h.update(op.label.encode() + b"\0")
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def digest_in_process(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--digest", workload, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600)
    return proc.stdout.strip()


def corrupt(answer):
    """Plausible wrong answers of the same shape as the real one."""
    if isinstance(answer, tuple) and len(answer) == 3 and isinstance(answer[0], int):
        code, out, err = answer
        lines = out.splitlines(True)
        yield (code ^ 1, out, err)
        if lines:
            yield (code, "".join(lines[:-1]), err)
            swapped = out.replace("true", "@T").replace("false", "true").replace("@T", "false")
            if swapped != out:
                yield (code, swapped, err)
        if err:
            yield (code, out, err + err)
        return
    if isinstance(answer, bool):
        yield not answer
    elif answer is None:
        yield frozenset(["v0"])
    elif answer == "refused":
        yield None
    elif isinstance(answer, str):
        yield answer[:-1] + ("x" if answer[-1:] != "x" else "y")
    elif isinstance(answer, frozenset):
        yield answer | {"zz"}
    elif isinstance(answer, tuple) and answer:
        yield answer[:-1]
        yield answer + (answer[-1],)
    elif isinstance(answer, tuple):
        yield (None,)


def flagged(op, answer):
    """Whether the checker rejects an answer; like run.check, a checker
    that raises on a malformed answer rejects it."""
    try:
        return op.check(answer) is not None
    except Exception:
        return True


def corruption_caught(workload, seed, workdir):
    work, _ = run.set_up(workload, seed, workdir)
    deadline = run.Deadline(work.wl.DEADLINE_S[workload])
    results = []
    run.run_ops(deadline, work.first, results)
    tried = missed = 0
    for op, status, answer, _ in results:
        if status != "ok" or flagged(op, answer):
            continue
        for bad in corrupt(answer):
            if bad == answer:
                continue
            tried += 1
            if not flagged(op, bad):
                missed += 1
                print("  not caught: %s -> %r" % (op.label, bad), file=sys.stderr)
    return tried, missed


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead_s"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--digest", choices=run.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    workdir = os.path.join(HERE, "_work", "selfcheck-%d" % os.getpid())
    if args.digest:
        try:
            print(digest(args.digest, args.seed, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    ok = True

    def report(passed, text):
        nonlocal ok
        ok &= passed
        print("%s %s" % ("PASS" if passed else "FAIL", text), flush=True)

    try:
        for workload in run.WORKLOADS:
            first = digest_in_process(workload, args.seed, 1)
            again = digest_in_process(workload, args.seed, 2)
            other = digest_in_process(workload, args.seed + 1, 1)
            report(len(first) == 64 and first == again and first != other,
                   "%s: seed %d gives the same inputs in two processes, seed %d differs"
                   % (workload, args.seed, args.seed + 1))
        for workload in run.WORKLOADS:
            tried, missed = corruption_caught(workload, args.seed, workdir)
            report(tried > 0 and missed == 0,
                   "%s: %d of %d corrupted answers caught" % (workload, tried - missed, tried))
        for workload in run.WORKLOADS:
            a, b = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
            differ = sorted(k for k in a if a[k] != b.get(k))
            report(not differ and a.keys() == b.keys(),
                   "%s: %d counts repeat across two traced runs%s"
                   % (workload, len(a), "; differ: " + ", ".join(differ) if differ else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
