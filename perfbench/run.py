#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare BEFORE.txt AFTER.txt

The first form configures and builds perfbench/ (which compiles the library
from this checkout's src/) as a Release build under .bench_build/, runs one
workload, streams its report and ends with the one-line JSON result. It
exits nonzero when the build fails, a correctness check fails, or the
library sources are missing.

The second form compares two saved outputs of the first (the JSON line is
read from the end of each file): exact counts must match exactly, timings
are held against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

# Units whose values are exact counts: any difference is a change, not noise.
EXACT_UNITS = {"count", "words", "messages"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in (ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt"):
        if not needed.is_file():
            fail(f"library sources not found ({needed.relative_to(ROOT)} is missing)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed", code=3)
    binary = BUILD / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary", code=3)
    return binary


def last_json(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty output")
    return json.loads(lines[-1])


def run(args):
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    out = proc.stdout
    try:
        result = last_json(out)
    except ValueError as err:
        sys.stdout.write(out)
        fail(f"no JSON result ({err}); exit code {proc.returncode}", code=5)
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        fail(f"result keys {sorted(result)} are not {sorted(keys)}", code=5)
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json", code=5)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def compare(before_path, after_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    before = last_json(Path(before_path).read_text())["metrics"]
    after = last_json(Path(after_path).read_text())["metrics"]
    regressions = 0
    for name in sorted(set(before) | set(after)):
        if name not in before or name not in after:
            print(f"{name:32s} only in {'after' if name in after else 'before'}")
            regressions += 1
            continue
        old, new = before[name]["value"], after[name]["value"]
        unit = after[name]["unit"]
        if unit in EXACT_UNITS:
            verdict = "same" if old == new else "CHANGED (exact count)"
            regressions += old != new
        else:
            ratio = new / old if old else float("inf")
            worse = ratio - 1 if better.get(name) == "lower" else 1 - ratio
            verdict = f"{ratio:8.3f}x"
            if name in bounds and worse > bounds[name]["bound"]:
                verdict += f"  WORSE than bound {bounds[name]['bound']}"
                regressions += 1
        print(f"{name:32s} {old!s:>22} -> {new!s:<22} {unit:8s} {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
