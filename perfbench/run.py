#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload table2|cohort|clinic --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles src/) into the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
bring that build up to date. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end ones of BENCHMARK.json with --trace 0 and its
per-layer ones with --trace 1. Exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    configured = [os.path.join(build_dir, f)
                  for f in ("CMakeCache.txt", "Makefile")]
    if not all(os.path.exists(f) for f in configured):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build step exceeded %d s" % BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = build(build_dir)
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    result = json.loads(lines[-1])

    # A per-layer metric the workload does not report belongs to a layer
    # it leaves idle (the service on table2, transport on clinic): 0.
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(metrics) - names)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            # An end-to-end metric is missing only from a run that
            # failed before measuring; its verdict already says so.
            if args.trace == "0" and result["correct"]:
                fail("end-to-end metric %s not reported" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    result["metrics"] = out

    # The context line (machine fingerprint, seed) also records why the
    # workload exists.
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    for line in lines[:-1]:
        record = json.loads(line)
        if "context" in record:
            record["context"]["why"] = why
        print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
