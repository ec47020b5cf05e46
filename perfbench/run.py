#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <serve_cold|serve_hot|solve> \\
        --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] \\
        [--corrupt 0|1|2] [--rate <req/s>]

Run from the repository root. The first run configures and builds the
library and the benchmark (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild incrementally. The
benchmark's output is passed through unchanged: its last stdout line is the
JSON result, and the exit code is non-zero on a failed build, a failed
check or a timeout. A traced run (--trace 1) also writes a chrome trace
next to the binary.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The benchmark's thread budget is 4 hardware threads: the router's two
# workers plus two load threads (serving) or one caller whose kernels run
# on an OpenMP team of two (solve; the benchmark sets that team itself).
# Every other thread keeps a team of one, so no worker's forward pass forks
# onto a CPU a load thread is using. Idle team threads spin only briefly.
BENCH_ENV = {"OMP_NUM_THREADS": "1", "GOMP_SPINCOUNT": "10000"}
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--corrupt", type=int, default=0, choices=(0, 1, 2))
    ap.add_argument("--rate", type=float, default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--corrupt", str(args.corrupt),
           "--rate", str(args.rate)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, f"trace-{args.workload}.json")]
    sys.stdout.flush()
    # A terminated run.py takes the benchmark down with it: SIGTERM becomes
    # an exception, and the finally clause stops and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, env={**os.environ, **BENCH_ENV})
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
