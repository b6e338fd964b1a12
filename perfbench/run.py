#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`). With `--trace 0` the last line of standard output is the JSON result
with every end-to-end metric; with `--trace 1` it carries the per-layer metrics. A failed
build or output check exits non-zero without printing a result. See README.md.

With `--trace 0` this wrapper adds `setup_s`, the one end-to-end metric the benchmark
binary cannot measure on itself: cold `FleetSimulator::new` calls, each in a fresh
process so the process-wide profile cache starts empty, as in a user's run. Each of those
processes also times the reference kernel (`src/reference.rs`) right before and right
after its set-up. `setup_s` is the median over SETUP_SAMPLES processes of the set-up time
rescaled to a host on which that kernel takes REFERENCE_KERNEL_S: on a small shared host
raw set-up time follows the host's speed, which can drift by a third between two sets of
runs of the same code, and the kernel drifts with it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 11
# Wall time of one reference-kernel run on the host `setup_s` is expressed for. Like the
# kernel, it belongs to the benchmark and stays fixed across commits.
REFERENCE_KERNEL_S = 0.05
# Every invocation must end well inside the 180 s it is allowed.
TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_child(argv):
    """Runs argv to completion; returns (exit code, stdout lines)."""
    try:
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(argv)} ran past {TIMEOUT_S} s", 1)
    return child.returncode, child.stdout.splitlines()


def setup_sample(base):
    """One cold set-up: (raw seconds, seconds at the reference kernel speed)."""
    code, lines = run_child(base + ["--setup-once"])
    fields = lines[-1].split() if code == 0 and lines else []
    if len(fields) != 5 or fields[0] != "setup_s" or fields[2] != "kernel_s":
        fail("set-up run failed", code or 1)
    seconds, before, after = (float(fields[i]) for i in (1, 3, 4))
    return seconds, seconds * REFERENCE_KERNEL_S / ((before + after) / 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "cluster", "Cargo.toml")):
        fail(f"simulator sources not found under {ROOT}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target), stdout=sys.stderr, check=False)
    if build.returncode != 0:
        fail("build failed")
    base = [os.path.join(target, "release", "perfbench"),
            "--workload", args.workload, "--seed", str(args.seed)]
    # The benchmark is single-threaded: keep it on one CPU so runs are not timed across
    # migrations between cores that neighbours load differently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup = [setup_sample(base) for _ in range(0 if args.trace else SETUP_SAMPLES)]

    code, lines = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    print("\n".join(lines[:-1] if code == 0 else lines))
    if code != 0:
        fail(f"benchmark exited with {code}", code)
    result = json.loads(lines[-1])
    if setup:
        median = statistics.median(scaled for _, scaled in setup)
        # setup_s goes second, after the headline run metric.
        (head, value), *rest = result["metrics"].items()
        result["metrics"] = {head: value, "setup_s": {"value": median, "unit": "s"}, **dict(rest)}
        print(f"setup_s raw samples ({SETUP_SAMPLES} cold processes): "
              + " ".join(f"{raw:.6f}" for raw, _ in setup))
        print(f"setup_s at reference kernel speed ({REFERENCE_KERNEL_S} s): "
              + " ".join(f"{scaled:.6f}" for _, scaled in setup))
        print(f"metric setup_s {median} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
