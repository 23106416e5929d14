#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tosa_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds `tdl-perfbench` (the library sources
under src/ plus perfbench/src/) with CMake into `.bench_build/perfbench`
(or `$CARGO_TARGET_DIR/perfbench` when that is set); later calls rebuild
incrementally. Build output goes to stderr. The benchmark's own report goes
to stdout, and its last line is the JSON result. `--self-test` runs every
workload for a few requests, checks each oracle against a corrupted output,
and checks that the printed metric names and units match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for --seconds plus set-up and the determinism probe; the
# whole process must end well within three minutes.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build() -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return out / "tdl-perfbench"


def check_names(lines, spec):
    """Each self-test result line carries exactly the metrics BENCHMARK.json
    declares, in order: untraced then traced, per workload."""
    results = [json.loads(l) for l in lines if l.startswith('{"correct"')]
    expected = []
    for _ in spec["workloads"]:
        expected += [spec["end_to_end"], spec["per_layer"]]
    if len(results) != len(expected):
        return ["expected %d result lines, got %d" % (len(expected), len(results))]
    problems = []
    for result, metrics in zip(results, expected):
        want = [(m["name"], m["unit"]) for m in metrics]
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        if want != got:
            problems.append("metrics differ from BENCHMARK.json: %s" %
                            sorted(set(want) ^ set(got)))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    binary = build()
    common = ["--strategy-dir", str(HERE / "strategies"),
              "--out-dir", str(build_dir() / "out")]
    if args.self_test:
        proc = subprocess.run([str(binary), "--self-test"] + common, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        problems = check_names(proc.stdout.splitlines(), spec)
        for problem in problems:
            print("SELF-TEST FAIL: " + problem)
        return 1 if proc.returncode or problems else 0

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + common
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
