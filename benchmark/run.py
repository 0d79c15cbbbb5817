#!/usr/bin/env python3
"""Builds relaxbench from source and runs one workload of the benchmark.

Run from the repository root:

  python3 benchmark/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

The build goes to build-bench/ (CMake, Release). The script forwards
relaxbench's report and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, measured untraced; with --trace 1
they are its per_layer metrics, from a run that also writes a Chrome trace
to build-bench/trace-<workload>.json.

Exits nonzero without a result line when the build, the run or the report
fails. A run with a wrong result prints its result line with correct=false
and exits 1.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    steps = [["cmake", "--build", BUILD, "-j4", "--target", "relaxbench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "benchmark"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the report.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    rows_path = os.path.join(BUILD, "rows-%s.json" % args.workload)
    if os.path.exists(rows_path):
        os.remove(rows_path)
    cmd = [os.path.join(BUILD, "relaxbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%r" % args.seconds,
           "--json=" + rows_path]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            BUILD, "trace-%s.json" % args.workload))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("relaxbench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(rows_path):
        fail("relaxbench exited with %d" % proc.returncode)

    with open(rows_path) as f:
        row = json.load(f)["rows"][0]
    if not row["valid"]:
        print("run.py: run marked invalid: " + row["invalid_reason"],
              file=sys.stderr)
    source, defs = (("layer", spec["per_layer"]) if args.trace
                    else ("e2e", spec["end_to_end"]))
    metrics = {}
    for d in defs:
        m = row[source].get(d["name"])
        if m is None or not isinstance(m["value"], (int, float)):
            fail("relaxbench reported no value for " + d["name"])
        metrics[d["name"]] = {"value": m["value"], "unit": d["unit"]}
    correct = bool(row["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": row["ops_attempted"],
                      "failed": row["ops_failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
