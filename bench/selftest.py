"""Self-test of the benchmark harness at tiny size (K=0, a few jobs).

    python3 bench/selftest.py

For every workload it checks that
  1. ``run.py --tiny`` prints every metric BENCHMARK.json names, with its
     unit, in the end-to-end and in the traced mode;
  2. the counts of two traced runs with the same seed are identical;
  3. a deliberately wrong expected answer is counted as a failed job.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

import fresh_setup
import run
import workloads

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny_run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def wrong_answer_counts(workload):
    """Run a tiny deck in this process, then again with the first job's
    expected answer corrupted; returns the two failure counts."""
    cli = fresh_setup.set_up(workload, run.WORK_DIR)
    wl = workloads.Workload(workload, 3, True, run.WORK_DIR,
                            os.path.join(fresh_setup.SRC, "homcheck", "data"))
    deck = wl.deck()
    results, _ = run.run_deck(cli, deck)
    honest = run.Tally()
    honest.add(wl, deck, results)
    expect = deck[0].expect
    if "value" in expect:
        expect["value"] = workloads.model.add([(1, expect["value"]), (1, {0: 1})])
    else:
        expect["rc"] = 1 - expect["rc"]
    corrupted = run.Tally()
    corrupted.add(wl, deck, results)
    return honest.failed, corrupted.failed


def main():
    with open(SPEC) as fh:
        spec = json.load(fh)
    problems = []
    os.makedirs(run.WORK_DIR, exist_ok=True)
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_run(workload, trace)
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload}: {m['name']} missing or unit {got}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: correct is false")
        again = tiny_run(workload, 1)["metrics"]
        for m in spec["per_layer"]:
            if m["unit"] == "count" and again[m["name"]] != result["metrics"][m["name"]]:
                problems.append(f"{workload}: {m['name']} differs between runs")
        honest, corrupted = wrong_answer_counts(workload)
        if corrupted != honest + 1:
            problems.append(f"{workload}: wrong expected answer gave {honest} -> {corrupted} failures")
        print(f"{workload}: checked")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
