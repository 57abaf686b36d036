#!/usr/bin/env python3
"""Builds and runs the obliv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The benchmark is compiled from source into
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs rebuild
incrementally.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  OBLIV_* variables are removed from the
environment: the benchmark measures the library defaults.

--smoke runs every workload in both modes at tiny sizes (seconds in total)
and exits 0 only if every run checks correct.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("uniform", "skewed")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit(f"error: {need} not found under {ROOT}: the benchmark "
                     "builds the library from the checkout's sources")
    cmake_dir = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "obliv_perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("error: building the benchmark failed")
    return os.path.join(cmake_dir, "obliv_perfbench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("OBLIV_")}


def run(binary, workload, seed, seconds, trace, smoke=False, capture=False):
    """Runs one benchmark process; returns its exit code and stdout."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), f"spans-{workload}.json")]
    try:
        p = subprocess.run(cmd, env=clean_env(), timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return p.returncode, (p.stdout.decode() if capture else "")


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, out = run(binary, workload, 1, 1, trace, smoke=True,
                            capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            passed = result.get("correct") is True and result.get("failed") == 0
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if passed else 'FAILED'} "
                  f"({len(result.get('metrics', {}))} metrics)")
            ok = ok and passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    code, _ = run(binary, args.workload, args.seed, args.seconds,
                  args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
