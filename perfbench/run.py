#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run one workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 12 --trace 0

The program is built from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build) on first use. The report goes to stdout; its last
line is the one-line JSON result. `--workload all` runs every workload.

Other commands:

    python3 perfbench/run.py test                  # the benchmark's own tests
    python3 perfbench/run.py spread --workload W --seeds 5
    python3 perfbench/run.py compare BASE.json NEW.json

`spread` runs W on several seeds and prints each end-to-end metric's
median and interquartile spread against its bound. `compare` compares two
results files (written under <build>/results/ by every run) metric by
metric, and only when both carry the same hardware key.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["read_zipf", "cluster_zipf", "write_mixed", "allpairs"]
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.abspath(path)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "simrank", "server",
                                       "server.h")):
        fail("library sources not found under %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", BUILD_JOBS, "--target",
                      target])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)
    return os.path.join(out, target)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its parsed JSON result line."""
    out = build_dir()
    work = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    results = os.path.join(out, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, trace))
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work, "--results", stem + ".json",
               "--spans", stem + "-spans.jsonl"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s failed (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    check_result(result, trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result


def check_result(result, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    names for this kind of run."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    spec = benchmark_spec()
    if spec is None:
        return
    expected = [m["name"] for m in spec["per_layer" if trace else
                                        "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail("result metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(expected)))


def command_run(args):
    binary = build("simrank_perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.workload not in WORKLOADS + ["all"]:
        fail("unknown workload %r (one of %s, or all)"
             % (args.workload, ", ".join(WORKLOADS)))
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        sys.stdout.flush()


def command_test(_):
    build("perfbench_logic_test")
    sys.exit(subprocess.call(["ctest", "--test-dir", build_dir(),
                              "--output-on-failure"]))


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def command_spread(args):
    binary = build("simrank_perfbench")
    spec = benchmark_spec() or {}
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec.get("run_seconds", 10)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        result = run_workload(binary, args.workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("%-20s %14s %8s %8s  %s" % ("metric", "median", "spread", "bound",
                                       "values"))
    for name, vals in values.items():
        print("%-20s %14.6g %8.3f %8s  %s" % (
            name, statistics.median(vals), spread(vals),
            bounds.get(name, "-"), " ".join("%.4g" % v for v in vals)))


def command_compare(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    if base["key"] != new["key"]:
        print("no baseline for this hardware: %s\n  vs %s"
              % (new["key"], base["key"]))
        return
    spec = benchmark_spec() or {}
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    for name, metric in new["gated_metrics"].items():
        old = base["gated_metrics"].get(name)
        if old is None or not old["value"]:
            continue
        change = metric["value"] / old["value"] - 1
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = ("REGRESSION" if worse > bounds[name]["bound"]
                       else "within bound")
        print("%-34s %14.6g -> %-14.6g %+7.1f%%  %s" % (
            name, old["value"], metric["value"], 100 * change, verdict))


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "test":
        return command_test(None)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return command_compare(parser.parse_args(argv[1:]))
    if argv and argv[0] == "spread":
        parser = argparse.ArgumentParser(prog="run.py spread")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seeds", type=int, default=5)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--seconds", type=int, default=0)
        return command_spread(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return command_run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
