"""homcheck benchmark: one workload per process, a closed loop of CLI jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job calls ``homcheck.cli.main(argv)`` in this process with stdout
captured; the next job starts when the previous one returns.  Jobs come
in decks (see workloads.py) and a run executes whole decks until
``--seconds`` of job time have passed.  After each deck every answer is
checked against its expected answer.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one deck untraced, once traced and once untraced
again, and reports per-layer metrics from the traced pass together with
the tracing overhead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tiny``
selects the small decks the self-test uses.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "_work")
SETUP_RUNS = 8  # fresh interpreters timed for setup_s before the jobs, and again after

import fresh_setup  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small decks (self-test)")
    return p.parse_args(argv)


def time_setups(workload, runs):
    """Seconds each of ``runs`` fresh interpreters needs for the set-up."""
    cmd = [sys.executable, os.path.join(HERE, "fresh_setup.py"), workload, WORK_DIR]
    times = []
    for _ in range(runs):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_deck(cli, deck, tracer=None):
    """Run the jobs back to back; returns ([(rc or exception, stdout, s)], wall s)."""
    results = []
    perf = time.perf_counter
    start = perf()
    for job in deck:
        if tracer is not None:
            tracer.job += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf()
            try:
                rc = cli.main(job.argv)
            except Exception as exc:  # a crash is a failed job, not a harness error
                rc = exc
            dt = perf() - t0
        results.append((rc, out.getvalue(), dt))
    return results, perf() - start


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons = []

    def add(self, wl, deck, results):
        for job, (rc, out, _) in zip(deck, results):
            self.attempted += 1
            if isinstance(rc, Exception):
                status, why = workloads.FAILED, f"raised {type(rc).__name__}: {rc}"
            else:
                status, why = wl.check(job, rc, out)
            if status != workloads.OK:
                self.failed += 1
                self.wrong += status == workloads.WRONG
                if len(self.reasons) < 5:
                    self.reasons.append(f"{status}: {' '.join(job.argv)[:100]} -> {why}")


def p90(times):
    """Nearest-rank 90th percentile."""
    ranked = sorted(times)
    return ranked[math.ceil(0.9 * len(ranked)) - 1]


def timed_run(cli, wl, seconds):
    tally, times, wall = Tally(), [], 0.0
    while True:
        deck = wl.deck()
        results, deck_wall = run_deck(cli, deck)
        wall += deck_wall
        times.extend(dt for _, _, dt in results)
        tally.add(wl, deck, results)
        if wall >= seconds:
            break
    metrics = {
        "verdicts_per_s": (len(times) / wall, "1/s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_p90": (p90(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"jobs {len(times)} in {wall:.3f} s of job time",
             f"verdict_s_p50 and verdict_s_p90 over {len(times)} samples"
             + ("" if len(times) >= 100 else
                " (fewer than 100: p90 is a nearest-rank value, not a resolved p90)")]
    return tally, metrics, notes


def traced_run(cli, wl):
    deck = wl.deck()
    tally = Tally()
    warm, _ = run_deck(cli, deck)
    tracer = Tracer()
    tracer.install()
    try:
        fresh_setup.set_up(wl.name, WORK_DIR)
        traced, traced_wall = run_deck(cli, deck, tracer)
    finally:
        tracer.uninstall()
    plain, plain_wall = run_deck(cli, deck)
    tally.add(wl, deck, traced)
    for results in (warm, plain):  # checked too, but counted once
        extra = Tally()
        extra.add(wl, deck, results)
        tally.wrong += extra.wrong
    path = os.path.join(WORK_DIR, f"trace-{wl.name}-seed{wl.seed}.json")
    tracer.write(path)
    notes = [f"traced pass {traced_wall:.3f} s, untraced pass {plain_wall:.3f} s,"
             f" {len(deck)} jobs; spans in {os.path.relpath(path, ROOT)}"]
    return tally, tracer.metrics(traced_wall / plain_wall - 1), notes


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        # span_membership's certificate replay check is an assert
        print("error: run without -O, which strips homcheck's checks", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(fresh_setup.SRC, "homcheck")):
        print(f"error: no homcheck sources under {fresh_setup.SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOMCHECK_MAX_K", None)
    os.makedirs(WORK_DIR, exist_ok=True)

    if not args.trace:
        time_setups(args.workload, 1)  # may compile bytecode
        setups = time_setups(args.workload, SETUP_RUNS)
    cli = fresh_setup.set_up(args.workload, WORK_DIR)
    if not os.path.abspath(cli.__file__).startswith(fresh_setup.SRC + os.sep):
        print(f"error: imported homcheck from {cli.__file__}", file=sys.stderr)
        return 2
    wl = workloads.Workload(args.workload, args.seed, args.tiny, WORK_DIR,
                            os.path.join(fresh_setup.SRC, "homcheck", "data"))
    wl.precheck()

    if args.trace:
        tally, metrics, notes = traced_run(cli, wl)
    else:
        tally, metrics, notes = timed_run(cli, wl, args.seconds)
        # the machine's speed drifts: sample it before and after the jobs
        setups += time_setups(args.workload, SETUP_RUNS)
        metrics["setup_s"] = (statistics.median(setups), "s")
    single_threaded = threading.active_count() == 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"failed {tally.failed} of {tally.attempted}, wrong verdicts {tally.wrong}")
    # failed / attempted: in the JSON line as "failed" and "attempted", not
    # as a metric, because it is 0 on most workloads
    print(f"{'failed_frac':42s} {tally.failed / tally.attempted:.6g} ratio")
    for reason in tally.reasons:
        print("  " + reason)
    if not single_threaded:
        print("error: the run started threads")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0 and single_threaded,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
