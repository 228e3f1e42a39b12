#!/usr/bin/env python3
"""Self-test of tools/bench_golden.py: a one-character change planted in a
temporary copy of one golden must fail the check, and the printed diff must
show the planted line.

  tools/test_bench_golden.py --build=<dir holding bench_pruning>
"""

import argparse
import pathlib
import subprocess
import sys
import tempfile

TOOL = pathlib.Path(__file__).resolve().parent / "bench_golden.py"
GOLDEN_DIR = TOOL.parent.parent / "bench" / "golden"
BENCH = "pruning"  # the cheapest of the 17 benches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", required=True)
    args = parser.parse_args()

    lines = (GOLDEN_DIR / f"{BENCH}.txt").read_text().split("\n")
    # Plant the change in the first figure of the first table row.
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    col = next(j for j, ch in enumerate(lines[row]) if ch.isdigit() and j > 0
               and lines[row][j - 1] == " ")
    digit = lines[row][col]
    lines[row] = (lines[row][:col] + str((int(digit) + 1) % 10) +
                  lines[row][col + 1:])

    with tempfile.TemporaryDirectory() as tmp:
        (pathlib.Path(tmp) / f"{BENCH}.txt").write_text("\n".join(lines))
        proc = subprocess.run(
            [sys.executable, str(TOOL), f"--build={args.build}",
             f"--golden-dir={tmp}", f"--only={BENCH}"],
            capture_output=True, text=True)
    print(proc.stdout, end="")
    if proc.returncode != 1:
        print(f"FAIL: planted change exited {proc.returncode}, expected 1")
        return 1
    if f"-{lines[row]}\n" not in proc.stdout:
        print(f"FAIL: the diff does not show the planted line {lines[row]!r}")
        return 1
    print("ok: the planted one-character change fails the check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
