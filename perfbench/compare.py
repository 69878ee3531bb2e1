#!/usr/bin/env python3
"""Compare two sets of benchmark records written by perfbench/run.py.

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- NEW_DIR_OR_FILES...

Each side is a list of record files (or directories of them) from
perfbench-out/results/. For every workload and metric it prints the
median and quartiles of each side and the change of the medians.
Exact counts (see EXACT below) must be equal on both sides.

Sides whose host facts or workload definitions differ are refused
(exit 3): a baseline measured on another host, another OCaml, or with
other workload definitions is not a baseline.
"""

import json
import os
import statistics
import sys

HOST_FACTS = ["nproc", "ocaml", "server_jobs", "workload_digest", "seconds"]
EXACT = {
    "analysis.loops_proven", "interp.busy_ticks", "interp.minor_words",
    "ceres.accesses_checked", "par_exec.instances", "par_exec.chunks",
    "service.replay_hits", "service.replay_misses",
}


def load(paths):
    recs = []
    for p in paths:
        files = ([os.path.join(p, f) for f in sorted(os.listdir(p))]
                 if os.path.isdir(p) else [p])
        for f in files:
            with open(f) as fh:
                recs.append(json.load(fh))
    return recs


def facts(recs):
    return {tuple((k, json.dumps(r["provenance"].get(k))) for k in HOST_FACTS)
            for r in recs}


def group(recs):
    out = {}
    for r in recs:
        p = r["provenance"]
        key = (p["workload"], p["trace"])
        for name, m in r["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def summary(vals):
    med = statistics.median(vals)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
    return med, q[0], q[2]


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    i = argv.index("--")
    base, new = load(argv[:i]), load(argv[i + 1:])
    if not base or not new:
        print("compare: no records on one side", file=sys.stderr)
        return 2
    fb, fn = facts(base), facts(new)
    if len(fb) != 1 or fb != fn:
        print("compare: refused, host facts or workload definitions differ:",
              file=sys.stderr)
        for f in sorted(fb | fn):
            print("  ", dict(f), file=sys.stderr)
        return 3
    gb, gn = group(base), group(new)
    bad = 0
    for key in sorted(set(gb) & set(gn)):
        print("%s (trace %d)" % key)
        for name in gb[key]:
            if name not in gn[key]:
                continue
            b, n = gb[key][name], gn[key][name]
            if name in EXACT:
                same = len(set(b) | set(n)) == 1
                bad += not same
                print("  %-40s exact %s %s" % (name, b[0], "ok" if same else "DIFFERS %s" % sorted(set(b) | set(n))))
                continue
            mb, qb1, qb3 = summary(b)
            mn, qn1, qn3 = summary(n)
            change = (mn - mb) / mb if mb else 0.0
            print("  %-40s %12.4f [%.4f..%.4f] -> %12.4f [%.4f..%.4f] %+6.1f%%"
                  % (name, mb, qb1, qb3, mn, qn1, qn3, 100 * change))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
