#!/usr/bin/env python3
"""Quick self-check of the benchmark (a few minutes on 2 cores).

    python3 perfbench/selfcheck.py

Runs every workload once end-to-end and twice traced, each at a tiny
size (--seconds 1, which still completes one sweep), through
perfbench/run.py. Checks that each run is correct, that every metric
BENCHMARK.json names is present with its unit, that end-to-end values
are positive, and that the exact counts of the two traced runs on one
seed are equal and not zero. Exits 1 on the first failed check.
"""

import json
import subprocess
import sys

SEED = 7
EXACT = {
    "analysis-corpus": ["analysis.loops_proven", "interp.busy_ticks",
                        "interp.minor_words", "ceres.accesses_checked"],
    "exec-par": ["interp.busy_ticks", "interp.minor_words",
                 "par_exec.instances", "par_exec.chunks"],
    "serve-mix": ["service.replay_hits", "service.replay_misses"],
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("selfcheck: %s trace %d exited %d" % (workload, trace, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        sys.exit("selfcheck: " + msg)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    check(names == set(EXACT), "workloads %s differ from %s" % (sorted(names), sorted(EXACT)))
    for w in sorted(names):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [run(w, trace) for _ in range(1 if trace == 0 else 2)]
            for r in results:
                check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                      "%s trace %d: incorrect run %s" % (w, trace, {k: r[k] for k in ("correct", "attempted", "failed")}))
                for m in spec[key]:
                    got = r["metrics"].get(m["name"])
                    check(got is not None and got["unit"] == m["unit"],
                          "%s: metric %s missing or unit differs" % (w, m["name"]))
                    if trace == 0:
                        check(got["value"] > 0, "%s: %s is not positive" % (w, m["name"]))
                check(len(r["metrics"]) == len(spec[key]), "%s: extra metrics" % w)
            if trace == 1:
                a, b = (r["metrics"] for r in results)
                for name in EXACT[w]:
                    check(a[name]["value"] == b[name]["value"] and a[name]["value"] > 0,
                          "%s: exact count %s differs or is zero: %s vs %s"
                          % (w, name, a[name]["value"], b[name]["value"]))
            print("selfcheck: %s trace %d ok" % (w, trace))
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
