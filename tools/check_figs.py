#!/usr/bin/env python3
"""Smoke and byte-identity gate for the figure-reproduction pipeline.

Discovers every `bench_fig*` binary registered in bench/CMakeLists.txt
and runs each one twice at a tiny scene scale (--scale, handled by the
shared harness): once serially (--jobs=1) and once with its sweep
points spread over N host threads (--jobs=N; see docs/SIMULATOR.md).
It fails if

- a registered fig bench has no built binary in the bench dir,
- any run exits nonzero (or crashes / times out),
- any BENCH_*.json a run writes is not valid JSON, or
- the two runs' stdouts differ by even one byte.

The exit code is the number of failing benches (0 = pass), so CMake
registers it directly as the `check_figs` test (check-figs preset).

Run: python3 tools/check_figs.py <bench-binary-dir>
         [--cmake=bench/CMakeLists.txt] [--scale=0.05]
         [--jobs=4] [--timeout=120]
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_RE = re.compile(r"pax_add_bench\((bench_fig[a-z0-9_]+)\)")


def registered_fig_benches(cmake: Path) -> list[str]:
    return sorted(set(BENCH_RE.findall(cmake.read_text(encoding="utf-8"))))


def run_bench(binary: Path, scale: float, jobs: int,
              timeout: float) -> tuple[bytes, list[str]]:
    """Run one bench in a scratch dir; return its stdout and failures."""
    tag = f"{binary.name} --jobs={jobs}"
    with tempfile.TemporaryDirectory(prefix=binary.name) as scratch:
        try:
            proc = subprocess.run(
                [str(binary), f"--scale={scale}", f"--jobs={jobs}"],
                cwd=scratch, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        except subprocess.TimeoutExpired:
            return b"", [f"{tag}: timed out after {timeout:.0f}s"]
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).decode(errors="replace")
            tail = tail.strip()[-400:] or "(no output)"
            return b"", [f"{tag}: exit code {proc.returncode}\n{tail}"]
        errors = []
        for out in sorted(Path(scratch).glob("*.json")):
            try:
                json.loads(out.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                errors.append(f"{tag}: malformed {out.name}: {exc}")
        return proc.stdout, errors


def first_difference(serial: bytes, parallel: bytes, jobs: int) -> str:
    """Describe the first line where two stdouts differ."""
    a = serial.decode(errors="replace").splitlines()
    b = parallel.decode(errors="replace").splitlines()
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else "<end of output>"
        right = b[i] if i < len(b) else "<end of output>"
        if left != right:
            return (f"line {i + 1}:\n  --jobs=1: {left}\n"
                    f"  --jobs={jobs}: {right}")
    return "outputs differ only in trailing bytes"


def main() -> int:
    bench_dir = None
    cmake = None
    scale, jobs, timeout = 0.05, 4, 120.0
    for arg in sys.argv[1:]:
        if arg.startswith("--cmake="):
            cmake = Path(arg.split("=", 1)[1])
        elif arg.startswith("--scale="):
            scale = float(arg.split("=", 1)[1])
        elif arg.startswith("--jobs="):
            jobs = int(arg.split("=", 1)[1])
        elif arg.startswith("--timeout="):
            timeout = float(arg.split("=", 1)[1])
        else:
            # Resolve now: benches run from a scratch working dir.
            bench_dir = Path(arg).resolve()
    if bench_dir is None:
        print(__doc__)
        return 1
    if cmake is None:
        cmake = Path(__file__).resolve().parent.parent / "bench" / \
            "CMakeLists.txt"

    benches = registered_fig_benches(cmake)
    if not benches:
        print(f"check_figs: no bench_fig* registered in {cmake}")
        return 1

    failures = []
    for name in benches:
        binary = bench_dir / name
        if not binary.exists():
            failures.append(f"{name}: binary not found in {bench_dir}")
            continue
        serial, errors = run_bench(binary, scale, 1, timeout)
        parallel, parallel_errors = run_bench(binary, scale, jobs, timeout)
        errors += parallel_errors
        if not errors and serial != parallel:
            errors.append(f"{name}: stdout differs between --jobs=1 and "
                          f"--jobs={jobs} at "
                          f"{first_difference(serial, parallel, jobs)}")
        if errors:
            failures.append("\n".join(errors))
        print(f"check_figs: {name}: {'FAIL' if errors else 'ok'}")
    for failure in failures:
        print(f"check_figs: {failure}")
    print(f"check_figs: {len(benches)} benches, {len(failures)} failures "
          f"(scale={scale}, jobs=1 vs {jobs})")
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
