#!/usr/bin/env python3
"""Builds the KAMEL benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which pulls in the repository as a CMake subproject) under
.bench_build/; later runs only re-check the build. The benchmark binary's
last stdout line is the JSON result. Every process started here is stopped
and reaped on every exit path: this script becomes a child subreaper, runs
the benchmark in its own process group, and kills and reaps that group when
the benchmark ends, times out, or this script is signalled.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
# A first run (which builds) must end within 900 s, any other within 180 s.
BUILD_BUDGET_S = 700
RUN_TIMEOUT_S = 175
PR_SET_CHILD_SUBREAPER = 36

_group = None  # process group of the running child, if any


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def reap_all():
    """Kills what is left of the child's process group, reaps every child."""
    global _group
    if _group is not None:
        try:
            os.killpg(_group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _group = None
    while True:
        try:
            pid, _ = os.waitpid(-1, 0)
        except ChildProcessError:
            return
        if pid == 0:
            return


def run_group(cmd, timeout_s, stdout=None):
    """Runs cmd in a new process group; returns (returncode, stdout)."""
    global _group
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    _group = proc.pid
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout_s} s: {' '.join(cmd[:3])}")
        out, code = None, 124
    reap_all()
    return code, out


def on_signal(signum, _frame):
    reap_all()
    sys.exit(128 + signum)


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_BUDGET_S
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target",
              "kamel_perfbench", "kamel_cli"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        code, _ = run_group(step, left, stdout=sys.stderr)
        if code != 0:
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # reaping still covers direct children

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("no KAMEL sources here (CMakeLists.txt and src/ at the "
            "checkout root); run from the root of a checkout")
        return 2
    if shutil.which("cmake") is None:
        log("cmake not found")
        return 2

    started = time.monotonic()
    build_dir = build(root)
    if build_dir is None:
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    bench = os.path.join(build_dir, "kamel_perfbench")
    kamel = os.path.join(build_dir, "kamel", "tools", "kamel")
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--kamel", kamel, "--out", os.path.join(root, OUT_DIR)]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    text = (out or b"").decode("utf-8", "replace")
    if code != 0:
        sys.stdout.write(text)
        log(f"benchmark exited with {code}")
        return code if code > 0 else 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        reap_all()
