#!/usr/bin/env python3
"""Golden-output gate: run a command and compare its stdout with a file.

Used for the trajectory goldens (`state_hash_golden` and
`state_hash_deformable_golden` in tools/CMakeLists.txt):
`tools/state_hash 60 0.25 --simd=scalar` prints one FNV-1a fingerprint
per benchmark scene and worker count, and `tools/state_hash 150 1.0
--simd=scalar --scene=deformable` those of the full-scale Deformable
scene, so a change that promises bitwise-unchanged trajectories must
reproduce tests/golden/state_hash.golden and
tests/golden/state_hash_deformable.golden byte for byte. Only the
scalar backend is pinned: the native fingerprint depends on the host
ISA. The
`fault_storm_json` and `server_storm_json` tests pin the JSON summary
lines of those drivers (quarantine, rollback and eviction counts)
the same way.

On a mismatch it prints the first differing line and exits 1. With
PAX_UPDATE_GOLDEN=1 in the environment it rewrites the golden from
the command's stdout instead (the same convention as the trace
golden in tests/test_trace.cc).

Run: python3 tools/check_golden.py <golden-file> <command> [args...]
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    golden = Path(sys.argv[1])
    command = sys.argv[2:]
    proc = subprocess.run(command, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        print(f"{' '.join(command)}: exit code {proc.returncode}")
        return 1
    actual = proc.stdout.decode()

    if os.environ.get("PAX_UPDATE_GOLDEN"):
        golden.write_text(actual, encoding="utf-8")
        print(f"wrote {golden}")
        return 0

    expected = golden.read_text(encoding="utf-8")
    if actual == expected:
        print(f"{golden.name}: {len(actual.splitlines())} lines match")
        return 0
    want = expected.splitlines()
    got = actual.splitlines()
    for i in range(max(len(want), len(got))):
        left = want[i] if i < len(want) else "<end of golden>"
        right = got[i] if i < len(got) else "<end of output>"
        if left != right:
            print(f"{golden.name} line {i + 1} differs:\n"
                  f"  golden: {left}\n  actual: {right}")
            break
    else:
        print(f"{golden.name}: outputs differ only in line endings")
    print("if the change is intended, regenerate with PAX_UPDATE_GOLDEN=1")
    return 1


if __name__ == "__main__":
    sys.exit(main())
