#!/usr/bin/env python3
"""Self-test of tools/lint_invariants.py: a copy of src/ as it stands must
lint clean, and one violation planted per rule in that copy must fail the
lint with exactly that finding, named by rule, file and line.

  tools/test_lint_invariants.py
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

TOOL = pathlib.Path(__file__).resolve().parent / "lint_invariants.py"
REPO = TOOL.parent.parent

# rule -> (file under src/ to plant in, the planted line). Each line is
# appended to the file, except the dead-rank one, which goes right after the
# `enum class LockRank` line.
PLANTS = {
    "raw-sync": ("core/upi.cc", "std::mutex planted_mu;"),
    "assert": ("core/upi.cc", "void Planted() { assert(true); }"),
    "naked-new": ("core/upi.cc", "int* planted = new int;"),
    "dead-rank": ("sync/lock_rank.h", "  kPlanted = 999,"),
    "create-file": ("core/upi.cc", 'auto* planted = env->CreateFile("p", 8);'),
    "layer": ("core/upi.h", '#include "engine/query.h"'),
}


def run_lint(tree: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tree / "tools" / TOOL.name)],
        capture_output=True, text=True)


def plant(path: pathlib.Path, line: str) -> int:
    """Plants `line` in `path`; returns its 1-based line number."""
    lines = path.read_text().split("\n")
    if path.name == "lock_rank.h":
        at = next(i for i, text in enumerate(lines)
                  if "enum class LockRank" in text) + 1
    else:
        at = len(lines) - 1 if lines[-1] == "" else len(lines)
    lines.insert(at, line)
    path.write_text("\n".join(lines))
    return at + 1


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        (tree / "tools").mkdir()
        shutil.copy2(TOOL, tree / "tools" / TOOL.name)
        shutil.copytree(REPO / "src", tree / "src")

        proc = run_lint(tree)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, end="")
            print(f"FAIL: the untouched copy exited {proc.returncode}, "
                  "expected 0")
            return 1
        print(f"ok: the untouched copy is clean ({proc.stdout.strip()})")

        failures = 0
        for rule, (rel, line) in PLANTS.items():
            path = tree / "src" / rel
            original = path.read_text()
            lineno = plant(path, line)
            proc = run_lint(tree)
            path.write_text(original)
            want = f"src/{rel}:{lineno}: [{rule}]"
            findings = proc.stdout.splitlines()
            if (proc.returncode != 1 or len(findings) != 1 or
                    not findings[0].startswith(want)):
                print(proc.stdout + proc.stderr, end="")
                print(f"FAIL: planted {rule} exited {proc.returncode}; "
                      f"expected exactly one finding {want!r}")
                failures += 1
            else:
                print(f"ok: planted {rule} fails: {findings[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
