#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-zoo --seed 1 --seconds 20 --trace 0

Workloads: plan-zoo, search-anneal, service-mix, or `all` (each
workload in its own process, then one summary table of the named
end-to-end metrics). The first run configures and compiles the
benchmark (perfbench/CMakeLists.txt, which builds the library from
src/) into .bench_build/perfbench; later runs only check that build.

The last line of standard output is the result of the run as one JSON
object with the keys correct, attempted, failed and metrics. Without a
usable build, or when the benchmark sources name a library API that
is slated for removal (tests/check_api_surface.py), it exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("plan-zoo", "search-anneal", "service-mix")
RUN_TIMEOUT_S = 170

# Leave no bytecode cache in the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(HERE, "tests"))
import check_api_surface  # noqa: E402


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as text:
                    tail = text.read()[-4000:]
                fail("build failed (" + " ".join(step) + "):\n" + tail)


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs one workload process; returns its parsed result line."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--data-dir", os.path.join(HERE, "data"),
               "--trace-dir", TRACE_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    if done.returncode != 0:
        fail("%s exited with code %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(workload + " printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(workload + " printed a malformed result line")
    check_declared_metrics(workload, trace, result["metrics"])
    return result, lines[-1]


def check_declared_metrics(workload, trace, metrics):
    """The result line carries exactly the metrics BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as text:
        declared = json.load(text)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail("%s reported metrics that differ from BENCHMARK.json: %s"
             % (workload, sorted(set(want.items()) ^ set(got.items()))))


def run_all(seed, seconds, trace):
    """Every workload, each in its own process, then one summary."""
    correct, attempted, failed, named = True, 0, 0, []
    for workload in WORKLOADS:
        print("== " + workload)
        result, _ = run_workload(workload, seed, seconds, trace)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        named.append((workload, result))
    print("== summary (seed %d, %s s per workload, trace %d)"
          % (seed, seconds, trace))
    for workload, result in named:
        for name, metric in result["metrics"].items():
            print("  %-14s %-28s %14.6g  %s"
                  % (workload, name, metric["value"], metric["unit"]))
        print("  %-14s %-28s %14.6g  ratio"
              % (workload, "fail_ratio",
                 result["failed"] / max(1, result["attempted"])))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {w + "/" + n: m for w, r in named
                                  for n, m in r["metrics"].items()}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    violations = check_api_surface.scan(HERE)
    if violations:
        fail("benchmark sources use APIs outside the allowed surface:\n"
             + "\n".join(violations))
    build()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        _, line = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
        print(line)


if __name__ == "__main__":
    main()
