#!/usr/bin/env python3
"""Benchmark entry point for js-ceres.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark executable and the `jsceres` binary from source
with dune, runs one workload, and prints as its last two stdout lines
a provenance object and the result object
{"correct", "attempted", "failed", "metrics"}. The same record is
kept under perfbench-out/results/ for perfbench/compare.py.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_EXE = "_build/default/perfbench/perfbench.exe"
TARGETS = ["./perfbench/perfbench.exe", "./bin/jsceres.exe"]
OUT_DIR = "perfbench-out"
RUN_TIMEOUT_S = 170
# Inputs of the build whose digest identifies the code under test.
SOURCE_ROOTS = ["dune-project", "lib", "bin", "perfbench"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            yield root
            continue
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if not f.endswith((".pyc",)):
                    yield os.path.join(d, f)


def source_digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def declared_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in ("dune-project", "lib", "bin/dune", "perfbench/dune")
               if not os.path.exists(p)]
    if missing:
        fail("not a js-ceres source checkout (missing %s)" % ", ".join(missing), 2)

    # Without dune's shared cache, which lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so a run that overstays is stopped together
    # with the server it spawned.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        fail("workload run failed (exit %d)" % run.returncode)
    prov = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            fail("metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(declared.items())))

    prov["commit"] = commit()
    prov["source_digest"] = source_digest()
    prov["host_nproc"] = os.cpu_count()
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace,
                                          time.time_ns())
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)

    print(json.dumps({"provenance": prov}, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
