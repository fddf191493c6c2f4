#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload {mix|deformable|server_1k} \
        --seed N --seconds S --trace {0|1}

Configures and builds perfbench/ (which compiles the engine from
src/) into .bench_build/perfbench, then runs the benchmark binary. The
binary's standard output is passed through unchanged: informational
lines, then one JSON result line last. The exit code is the binary's,
or 2 when the engine sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "pax_perfbench"
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr, stdout kept clean."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail(f"failed: {' '.join(map(str, cmd))}")


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target",
               "pax_perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def source_id():
    """Git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=30).stdout.strip()
            dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                    "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True,
                                   timeout=30).stdout.strip()
            if sha:
                return sha + ("-dirty" if dirty else "")
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mix", "deformable", "server_1k"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    for needed in ("src/CMakeLists.txt", "include/parallax.hh"):
        if not (ROOT / needed).is_file():
            fail(f"engine sources not found: {ROOT / needed} is missing")
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace, "--source-id", source_id()]
    sys.stdout.flush()
    # Its own process group, so that stopping it also stops the setup
    # probe processes it spawns.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        returncode = proc.wait(timeout=120 + 3 * args.seconds)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail("benchmark binary timed out")
        raise
    sys.exit(returncode)


if __name__ == "__main__":
    main()
