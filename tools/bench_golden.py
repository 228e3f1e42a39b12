#!/usr/bin/env python3
"""Golden-output check for the simulated-time figure benches.

Runs each of the 17 sim-only benches (the paper's figures and tables, both
ablations, the maintenance policy sweep, the planner and the pruning bench) at
--scale=0.1 from a build directory, masks the few fields that measure host
time, and diffs stdout against bench/golden/<bench>.txt. Every other printed
figure is simulated device time or a count, deterministic for a given source
tree, so any difference is a behaviour change. A change that moves a row
regenerates the goldens with --update and says which rows moved and why.

  tools/bench_golden.py --build=build            # check: exit 1 on any diff
  tools/bench_golden.py --build=build --update   # rewrite bench/golden/

--golden-dir reads (or writes) the goldens elsewhere, and --only=<bench>
limits the run to one bench; tools/test_bench_golden.py uses both.
"""

import argparse
import difflib
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SCALE = "0.1"
BENCHES = [
    "fig03_cutoff_runtime",
    "fig04_query1",
    "fig05_query2",
    "fig06_query3",
    "fig07_query4",
    "fig08_query5",
    "fig09_deterioration",
    "fig10_costmodel_frac",
    "fig11_pointer_estimation",
    "fig12_costmodel_cutoff",
    "tab07_maintenance",
    "tab08_merging",
    "ablation_partial_merge",
    "ablation_pointer_limit",
    "maintenance_policy",
    "planner",
    "pruning",
]
MASK = "<host>"


def mask_host_time(bench: str, text: str) -> str:
    """Replaces the wall-clock fields of `bench`'s output with MASK."""
    lines = text.split("\n")
    if bench == "fig04_query1":
        # The last column of the Query 1 table, wall(UPI)ms.
        in_table = False
        for i, line in enumerate(lines):
            if line.endswith("wall(UPI)ms"):
                in_table = True
            elif in_table and line and not line.startswith("#"):
                lines[i] = re.sub(r"\s+\S+$", "  " + MASK, line)
            else:
                in_table = False
    elif bench == "planner":
        for i, line in enumerate(lines):
            # The planning-overhead block: its wall-clock times and ratio ...
            line = re.sub(r"\s+[0-9.]+ ms  \(", "  " + MASK + " ms  (", line)
            line = re.sub(r"is [0-9.]+x lower", "is " + MASK + "x lower", line)
            # ... and the verdict count, which includes the ">= 2x" check.
            line = re.sub(r"cheaper\) on \d+/", "cheaper) on " + MASK + "/", line)
            lines[i] = line
    return "\n".join(lines)


def run_bench(build: pathlib.Path, bench: str) -> tuple[str, str]:
    """Masked stdout of one bench run, and a failure message ('' if none)."""
    binary = build / f"bench_{bench}"
    if not binary.exists():
        return "", f"{binary} not found (build the benches first)"
    proc = subprocess.run([str(binary), f"--scale={SCALE}"],
                          capture_output=True, text=True)
    failure = "" if proc.returncode == 0 else f"exited {proc.returncode}"
    return mask_host_time(bench, proc.stdout), failure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", required=True, type=pathlib.Path,
                        help="build directory holding the bench_* binaries")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens from this run")
    parser.add_argument("--golden-dir", type=pathlib.Path,
                        default=REPO / "bench" / "golden")
    parser.add_argument("--only", choices=BENCHES,
                        help="run one bench instead of all")
    args = parser.parse_args()

    mismatches = 0
    for bench in [args.only] if args.only else BENCHES:
        out, failure = run_bench(args.build, bench)
        golden = args.golden_dir / f"{bench}.txt"
        if failure:
            print(f"FAIL {bench}: {failure}")
            mismatches += 1
            continue
        if args.update:
            args.golden_dir.mkdir(parents=True, exist_ok=True)
            golden.write_text(out)
            print(f"wrote {golden}")
            continue
        expected = golden.read_text() if golden.exists() else ""
        if out == expected:
            print(f"ok   {bench}")
            continue
        mismatches += 1
        print(f"DIFF {bench}")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile=str(golden), tofile=f"bench_{bench} --scale={SCALE}"))
    if mismatches:
        print(f"{mismatches} bench(es) differ from their goldens or failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
