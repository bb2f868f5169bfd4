#!/usr/bin/env python3
"""The repo benchmark's one command (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the library and the benchmark program from source into
.bench_build/perfbench (CMake, Release), runs one workload, checks that
its report names every metric BENCHMARK.json declares for the mode and no
other, each with its declared unit, and prints the report as the last
line of stdout:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes a Chrome trace to .bench_build/perfbench/traces/. Exits non-zero,
printing no report, when the build or the run fails. Stdlib only.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["nsc_perfbench", "perfbench_selftest"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False on failure. Both steps
    are incremental, so a run after the first costs a second or two."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False,
                                  env=env)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build failed: %s" % err)
            return False
        if done.returncode != 0:
            log("build failed: %s exited %d" % (" ".join(cmd), done.returncode))
            return False
    return True


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_report(report, trace):
    """Problems with the report's shape, as a list of strings."""
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("report keys are %s" % sorted(report))
        return problems
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(report["failed"], int) or report["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = declared_metrics(trace)
    for name, metric in report["metrics"].items():
        if name not in declared:
            problems.append("metric %s is not declared" % name)
        elif metric.get("unit") != declared[name]:
            problems.append("metric %s has unit %s, declared %s"
                            % (name, metric.get("unit"), declared[name]))
    for name in sorted(set(declared) - set(report["metrics"])):
        problems.append("declared metric %s is missing" % name)
    return problems


def run_workload(args):
    binary = os.path.join(BUILD, "nsc_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False,
                              universal_newlines=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("run failed: %s" % err)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("nsc_perfbench exited %d" % done.returncode)
        return 1
    try:
        report = json.loads(lines[-1])
    except ValueError:
        log("last line is not a JSON report: %r" % lines[-1])
        return 1
    problems = check_report(report, bool(args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))
    return 0


def main():
    # On SIGTERM, leave through SystemExit: subprocess.run then kills the
    # build or the benchmark program and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              check=False).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
