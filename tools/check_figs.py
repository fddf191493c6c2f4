#!/usr/bin/env python3
"""Smoke, golden and byte-identity gate for the figure pipeline.

Discovers every `bench_fig*` binary registered in bench/CMakeLists.txt
and runs each one twice at a tiny scene scale (--scale, handled by the
shared harness): once serially (--jobs=1) and once with its sweep
points spread over N host threads (--jobs=N; see docs/SIMULATOR.md).
It fails if

- a registered fig bench has no built binary in the bench dir,
- any run exits nonzero (or crashes / times out),
- any BENCH_*.json a run writes is not valid JSON,
- the two runs' stdouts differ by even one byte, or
- the serial stdout differs from the bench's committed golden,
  `<golden-dir>/<bench>.golden` (tests/golden/figs/ by default), so an
  engine change that moves a figure fails even when it moves it
  identically at every --jobs count.

With PAX_UPDATE_GOLDEN=1 in the environment it rewrites each golden
from the serial stdout instead of comparing (the convention of
tools/check_golden.py); the other checks still run. The goldens are
taken at the default --scale=0.05; at any other scale they are not
compared.

The exit code is the number of failing benches (0 = pass), so CMake
registers it directly as the `check_figs` test (check-figs preset).

Run: python3 tools/check_figs.py <bench-binary-dir>
         [--cmake=bench/CMakeLists.txt] [--golden=tests/golden/figs]
         [--scale=0.05] [--jobs=4] [--timeout=120]
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_RE = re.compile(r"pax_add_bench\((bench_fig[a-z0-9_]+)\)")
GOLDEN_SCALE = 0.05


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


def first_difference(a: bytes, b: bytes, a_tag: str, b_tag: str) -> str:
    """Describe the first line where two stdouts differ."""
    a_lines = a.decode(errors="replace").splitlines()
    b_lines = b.decode(errors="replace").splitlines()
    for i in range(max(len(a_lines), len(b_lines))):
        left = a_lines[i] if i < len(a_lines) else "<end of output>"
        right = b_lines[i] if i < len(b_lines) else "<end of output>"
        if left != right:
            return (f"line {i + 1}:\n  {a_tag}: {left}\n"
                    f"  {b_tag}: {right}")
    return "outputs differ only in trailing bytes"


def check_golden(name: str, serial: bytes, golden_dir: Path) -> list[str]:
    """Compare a serial stdout with its golden, or rewrite the golden."""
    golden = golden_dir / f"{name}.golden"
    if os.environ.get("PAX_UPDATE_GOLDEN"):
        golden_dir.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(serial)
        print(f"check_figs: wrote {golden}")
        return []
    if not golden.exists():
        return [f"{name}: no golden {golden} (record it with "
                f"PAX_UPDATE_GOLDEN=1)"]
    expected = golden.read_bytes()
    if serial == expected:
        return []
    return [f"{name}: stdout differs from {golden.name} at "
            f"{first_difference(expected, serial, 'golden', 'actual')}\n"
            f"if the change is intended, regenerate with "
            f"PAX_UPDATE_GOLDEN=1"]


def main() -> int:
    bench_dir = None
    cmake = None
    golden_dir = None
    scale, jobs, timeout = 0.05, 4, 120.0
    for arg in sys.argv[1:]:
        if arg.startswith("--cmake="):
            cmake = Path(arg.split("=", 1)[1])
        elif arg.startswith("--golden="):
            golden_dir = Path(arg.split("=", 1)[1])
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
    repo = Path(__file__).resolve().parent.parent
    if cmake is None:
        cmake = repo / "bench" / "CMakeLists.txt"
    if golden_dir is None:
        golden_dir = repo / "tests" / "golden" / "figs"

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
            where = first_difference(serial, parallel, "--jobs=1",
                                     f"--jobs={jobs}")
            errors.append(f"{name}: stdout differs between --jobs=1 and "
                          f"--jobs={jobs} at {where}")
        if not errors and scale == GOLDEN_SCALE:
            errors += check_golden(name, serial, golden_dir)
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
