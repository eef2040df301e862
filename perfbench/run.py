#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Builds the program's libraries from this checkout's src/ with the root
CMakeLists.txt's Release flags, together with the workload program, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
program. Build output goes to standard error. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"} holding
every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1; a layer a workload does not run reads 0). --test builds
and runs the benchmark's own tests of its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_sync", "serve_batched", "build_surrogate")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources at {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def complete(result, wanted, trace):
    """Checks the workload program's metrics against BENCHMARK.json. In a traced run a
    per-layer metric of a layer the workload does not run is reported as 0."""
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, m in metrics.items():
        if name not in units:
            fail(f"metric {name} is not in BENCHMARK.json")
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {units[name]}")
    for m in wanted:
        if m["name"] not in metrics:
            if not trace:
                fail(f"end-to-end metric {m['name']} missing")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if args.test:
        build(bdir)
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_checks")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    spec = load_spec()
    build(bdir)

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(bdir, "spans", f"{args.workload}-seed{args.seed}.jsonl")]
    # Set-up takes under 15 s on 4 cores; the rest is the measured phase and
    # the traced run's extra passes.
    timeout_s = 120 + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout_s:g} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode} without a result")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = complete(json.loads(lines[-1]), wanted, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
