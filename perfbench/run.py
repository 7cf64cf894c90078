#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload scale_100k [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The binary's output is passed through, and its
last line is the JSON result. Exits non-zero, printing no result, when the
sources are missing, the build fails, or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
THREADS = "4"


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", THREADS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no library sources under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    try:
        if not build(build_dir):
            return fail("build failed")
    except (OSError, subprocess.TimeoutExpired) as err:
        return fail(f"build failed: {err}")

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-{seed}.json")]
    # The library reads DREL_* knobs (profiling, SIMD backend, refit mode,
    # pool size); pin them so every run measures the same program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DREL_")}
    env["DREL_NUM_THREADS"] = THREADS
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        return fail(f"benchmark run failed: {err}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        return fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        return fail("benchmark printed no result")
    missing = [m for m in expected_metrics(args.trace) or [] if m not in result["metrics"]]
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(f"result lacks metrics named in BENCHMARK.json: {', '.join(missing)}")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
