"""Benchmark of the labelled_spaces library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
One process, one thread, a closed loop with one caller: the next op starts
when the previous one ends.  Each op has a deadline enforced by an interval
timer; an op past it counts as failed and enters the latency distribution
at the deadline.  Every answer is checked against ``reference.py`` after
the timed loop.  The last line of stdout is one JSON object with the
metrics; a summary, every failed op by name and every input draw skipped for
its estimated lasso work go to stderr.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
a fixed, seed-determined list of ops runs twice from the same state, first
untraced and then traced, and the per-layer metrics come from the traced
pass (see ``tracing.py``); spans are written to ``perfbench/_out/``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("cli-oneshot", "session", "spectrum-ladder")
MIN_OPS = 100
SETUP_REPEATS = 15
# peak RSS is read after this many decks: the unbounded caches grow with the
# work done, so a time-bound run would report more memory for faster code
RSS_DECKS = {"cli-oneshot": 3, "session": 3, "spectrum-ladder": 2}
# decks in the fixed op list of a traced run
TRACE_DECKS = {"cli-oneshot": 3, "session": 100, "spectrum-ladder": 2}


class OpTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so that library code
    catching Exception cannot swallow it."""


class Deadline:
    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def run(self, op):
        """(status, answer, seconds) for one op; the clock covers the op
        alone, not the arming and disarming of the timer."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        start = time.perf_counter()
        try:
            answer = op.run()
            self.armed = False
            end = time.perf_counter()
            status = "ok"
        except OpTimeout:
            end = time.perf_counter()
            answer, status = None, "timeout"
        except Exception:
            self.armed = False
            end = time.perf_counter()
            answer, status = traceback.format_exc(limit=3), "error"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
        return status, answer, end - start


class Stopwatch:
    """Sums the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start


def fresh_import(watch):
    """Import the library and the benchmark's modules from scratch; only the
    library's import is timed."""
    for name in list(sys.modules):
        if name == "labelled_spaces" or name.startswith("labelled_spaces.") or name in (
                "gen", "reference", "workloads", "tracing"):
            del sys.modules[name]
    with watch:
        importlib.import_module("labelled_spaces.cli")
    return importlib.import_module("workloads")


class Workload:
    """Inputs and the deck stream of one workload, built from the seed.

    ``watch`` times the part of set-up that a user of the library pays:
    importing it, formatting the input files with its formatter, and for
    session loading the spaces and the warm-up.  Drawing the inputs and
    building reference models is the benchmark's own work and is left out."""

    def __init__(self, name, seed, workdir):
        self.watch = Stopwatch()
        self.wl = fresh_import(self.watch)
        gen = sys.modules["gen"]
        self.name = name
        self.rng = gen.rng_for(seed, name)
        self.workdir = workdir
        self.decks = 0
        self.skipped = []
        if name == "cli-oneshot":
            self.files = self.wl.cli_oneshot_inputs(self.rng, workdir, self.watch)
        elif name == "session":
            self.spaces = self.wl.session_spaces(self.rng, self.watch)
            warm_up = self.wl.session_deck(self.rng, self.spaces)
            with self.watch:
                for sp in self.spaces:
                    for w in sp.words:
                        sp.fam.algebra(w)
                # an op that fails here fails again in the timed loop, which
                # deals the same kinds of query and reports it
                for op in warm_up:
                    try:
                        op.run()
                    except Exception:
                        pass
        self.first = self.next_deck()
        self.setup_s = self.watch.seconds

    def next_deck(self):
        self.decks += 1
        if self.name == "cli-oneshot":
            return self.wl.cli_oneshot_deck(self.rng, self.files, self.decks)
        if self.name == "session":
            return self.wl.session_deck(self.rng, self.spaces)
        return self.wl.spectrum_deck(self.rng, self.workdir, self.decks, self.watch,
                                     self.skipped)

    def ops(self, decks):
        """The first ``decks`` decks as one list."""
        ops = list(self.first)
        for _ in range(decks - 1):
            ops += self.next_deck()
        return ops


def set_up(name, seed, workdir):
    """A fresh set-up.  Callers drop the previous one first, so that only
    one is alive at a time and peak RSS is not that of two set-ups."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    gc.collect()
    work = Workload(name, seed, workdir)
    return work, work.setup_s


def set_ups(args, workdir, count):
    """``count`` fresh set-ups in a row: the last one, and every set-up time."""
    work, times = None, []
    for _ in range(count):
        work = None
        work, seconds = set_up(args.workload, args.seed, workdir)
        times.append(seconds)
    return work, times


def run_ops(deadline, ops, results, tracer=None):
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.start_op(len(results))
        results.append((op,) + deadline.run(op))
    return time.perf_counter() - start


class Tally:
    """Latencies and failures of the ops judged so far."""

    def __init__(self, deadline_s):
        self.deadline_s = deadline_s
        self.latencies, self.failures, self.wrong = [], [], 0

    def add(self, results):
        for op, status, answer, seconds in results:
            reason = None
            if status == "timeout":
                reason = "timeout after %.2f s" % self.deadline_s
                seconds = self.deadline_s
            elif status == "error":
                reason = "traceback: %s" % answer.strip().splitlines()[-1]
            else:
                try:
                    reason = op.check(answer)
                except Exception:
                    reason = "checker raised: %s" % traceback.format_exc(limit=2)
            if reason is not None:
                self.failures.append((op.label, reason))
                self.wrong += status != "timeout"
            self.latencies.append(seconds)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(correct, attempted, failed, metrics, failures):
    for label, reason in failures:
        print("FAILED %s: %s" % (label, reason), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def measure(args, workdir):
    # half of the set-ups run before the timed loop and half after it, so
    # that their median samples this shared machine at two times
    work, setups = set_ups(args, workdir, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deadline_s = work.wl.DEADLINE_S[args.workload]
    deadline = Deadline(deadline_s)
    tally, pending, loop_s, deck = Tally(deadline_s), [], 0.0, work.first
    while True:
        results = []
        loop_s += run_ops(deadline, deck, results)
        pending += results
        if work.decks == RSS_DECKS[args.workload]:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if work.decks >= RSS_DECKS[args.workload]:
            # judged between decks with the clock stopped, and only after
            # peak RSS is read, so that the checker's memory is not in it
            tally.add(pending)
            pending = []
            if loop_s >= args.seconds and len(tally.latencies) >= MIN_OPS:
                break
        deck = work.next_deck()  # generated with the clock stopped
    latencies, failures, wrong = tally.latencies, tally.failures, tally.wrong
    attempted = len(latencies)
    completed = attempted - len(failures)
    decks, skipped = work.decks, work.skipped
    work = deck = results = None
    later = set_ups(args, workdir, SETUP_REPEATS // 2)[1]
    metrics = {
        "setup_s": metric(statistics.median(setups + later), "s"),
        "ops_per_s": metric(completed / loop_s, "1/s"),
        "op_p50_ms": metric(1000 * percentile(latencies, 0.5), "ms"),
        "op_p90_ms": metric(1000 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    print("%s seed %d: %d ops in %.2f s (%d decks), %d failed (%d wrong), deadline %.2f s, "
          "op_p50_ms and op_p90_ms over ops=%d; peak RSS %.1f MB after set-up, %.1f MB "
          "after %d decks"
          % (args.workload, args.seed, attempted, loop_s, decks, len(failures), wrong,
             deadline_s, attempted, setup_rss_kb / 1024, rss_kb / 1024,
             RSS_DECKS[args.workload]), file=sys.stderr)
    print("set-up times (ms) before and after the loop: %s | %s" % tuple(
        " ".join("%.1f" % (1000 * t) for t in times) for times in (setups, later)),
        file=sys.stderr)
    list_skipped(skipped)
    report(wrong == 0, attempted, len(failures), metrics, failures)


def list_skipped(skipped):
    for label, estimate in skipped:
        print("SKIPPED %s: estimated lasso work %d" % (label, estimate), file=sys.stderr)


def trace_ops(args, workdir):
    """A fresh set-up and the fixed op list of a traced run."""
    work, _ = set_up(args.workload, args.seed, workdir)
    return work, work.ops(TRACE_DECKS[args.workload])


def traced(args, workdir):
    work, ops = trace_ops(args, workdir)
    deadline_s = work.wl.DEADLINE_S[args.workload]
    untraced_results = []
    untraced_s = run_ops(Deadline(deadline_s), ops, untraced_results)

    # the same ops again from the same state: a fresh import and fresh inputs,
    # so the library's caches are cold again
    work = ops = untraced_results = None
    work, ops = trace_ops(args, workdir)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(sys.modules["labelled_spaces.errors"].DomainError)
    tracer.install()
    # tracing slows the ops down; the deadline only stops a hang
    backstop_s = max(30.0, 3 * deadline_s)
    results = []
    try:
        traced_s = run_ops(Deadline(backstop_s), ops, results, tracer)
    finally:
        tracer.uninstall()
    tally = Tally(backstop_s)
    tally.add(results)
    failures, wrong = tally.failures, tally.wrong
    metrics = {k: metric(v, "s" if k.endswith("_s") else ("ratio" if k.endswith("ratio")
                                                          else "count"))
               for k, v in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    metrics["trace.spans"] = metric(len(tracer.span_start), "count")
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans-%s.csv.gz" % args.workload))
    print("%s seed %d traced: %d ops, untraced %.2f s, traced %.2f s, %d spans"
          % (args.workload, args.seed, len(ops), untraced_s, traced_s,
             len(tracer.span_start)), file=sys.stderr)
    list_skipped(work.skipped)
    report(wrong == 0, len(results), len(failures), metrics, failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "labelled_spaces")):
        print("error: run from the root of a checkout (no src/labelled_spaces here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    try:
        (traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
