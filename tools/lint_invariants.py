#!/usr/bin/env python3
"""Repo-specific invariant lint, CI-gated (see .github/workflows/ci.yml).

Machine-checks the conventions the engine relies on but a compiler won't
enforce:

  raw-sync      std::mutex / std::shared_mutex / std::condition_variable /
                std::recursive_mutex / std::timed_mutex — and RAII guards
                instantiated over them (lock_guard<std::mutex>, ...) — are
                banned outside src/sync/. Every lock must be a rank-carrying
                sync::Mutex / sync::SharedMutex / sync::CondVar so the
                UPI_SYNC_CHECKS acquisition checker sees it; one unwrapped
                mutex is a hole in the deadlock-freedom argument.

  assert        assert( in src/ is banned (static_assert is fine). The
                default build is RelWithDebInfo with NDEBUG, which compiles
                asserts out — an invariant worth stating is worth enforcing
                in every build type, which is UPI_CHECK (common/check.h).

  naked-new     new / delete expressions in src/ are banned outside smart-
                pointer initialization (a line, or continuation of a line,
                mentioning unique_ptr / shared_ptr / make_unique /
                make_shared). Placement of `= delete` and deleted operators
                are fine.

  dead-rank     every sync::LockRank enumerator in src/sync/lock_rank.h
                must be named as LockRank::kX by some lock outside
                src/sync/. A rank no lock carries is a row in the documented
                hierarchy that no code path can exercise, and it lets a
                deleted lock's ordering claims outlive the lock.

  create-file   a CreateFile( call in src/ outside src/storage/ is banned.
                Files are created in one place, storage::NewFiles, which
                drops the files of a build that fails; a file created
                anywhere else outlives a failed build, and a retry under the
                same name then collides with it.

  layer         a file under src/ outside engine/, exec/ and wal/ includes
                no header from those three directories, and one outside
                them and maintenance/ includes no maintenance/ header. The
                designs implement core::AccessPath (core/access_path.h) and
                learn of writes through FracturedUpi's hooks, never through
                an engine or a maintenance type. engine/, exec/ and wal/
                include each other; everything else points downward.

Zero third-party dependencies; line-based on purpose (simple enough to
audit, and the few multi-line cases are handled by the continuation rule).
Exit status 0 = clean, 1 = findings (printed one per line as
path:line: [rule] message).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

RAW_SYNC = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable"
    r"(_any)?)\b"
)
RAW_GUARD = re.compile(r"\b(lock_guard|unique_lock|shared_lock|scoped_lock)\s*<\s*std::")
ASSERT = re.compile(r"(?<![_\w])assert\s*\(")
NEW_EXPR = re.compile(r"(?<![_\w.:])new\b(?!\s*\()")  # `new T`, not placement-new idioms we don't use
DELETE_EXPR = re.compile(r"(?<![_\w.:])delete\b(\s*\[\s*\])?\s")
SMART = re.compile(r"unique_ptr|shared_ptr|make_unique|make_shared")
LOCK_RANK_HEADER = SRC / "sync" / "lock_rank.h"
RANK_ENUMERATOR = re.compile(r"^\s*(k\w+)\s*=\s*\d+\s*,")
RANK_USE = re.compile(r"\bLockRank::(k\w+)\b")
CREATE_FILE = re.compile(r"\bCreateFile\s*\(")
INCLUDE_DIR = re.compile(r'^\s*#\s*include\s*"(\w+)/')
UPPER_LAYERS = ("engine", "exec", "wal")


def strip_comments_and_strings(line: str, in_block: bool) -> tuple[str, bool]:
    """Blanks out string/char literals, // and /* */ comment content."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote)
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def code_lines(path: Path):
    """Yields (line number, line with comments and literals blanked)."""
    in_block = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        code, in_block = strip_comments_and_strings(raw, in_block)
        yield lineno, code


def lint_dead_ranks(files: list[Path]) -> list[str]:
    """Every LockRank enumerator is named by a lock outside src/sync/."""
    declared = {}  # enumerator -> line in lock_rank.h
    in_enum = False
    for lineno, code in code_lines(LOCK_RANK_HEADER):
        if "enum class LockRank" in code:
            in_enum = True
        elif in_enum and "}" in code:
            break
        elif in_enum:
            m = RANK_ENUMERATOR.match(code)
            if m:
                declared[m.group(1)] = lineno
    used = set()
    for path in files:
        if path.relative_to(REPO).parts[:2] == ("src", "sync"):
            continue
        for _, code in code_lines(path):
            used.update(RANK_USE.findall(code))
    rel = LOCK_RANK_HEADER.relative_to(REPO)
    return [
        f"{rel}:{lineno}: [dead-rank] LockRank::{name} is named by no lock "
        "outside src/sync/; delete the rank or give it its lock"
        for name, lineno in declared.items()
        if name not in used
    ]


def layer_finding(layer: str, included: str) -> str | None:
    """Why a file in src/<layer>/ may not include a header of src/<included>/."""
    if layer in UPPER_LAYERS:
        return None
    if included in UPPER_LAYERS:
        return (f"{layer}/ includes an {included}/ header; only engine/, "
                "exec/ and wal/ may")
    if included == "maintenance" and layer != "maintenance":
        return (f"{layer}/ includes a maintenance/ header; only engine/, "
                "exec/, wal/ and maintenance/ may")
    return None


def lint_file(path: Path) -> list[str]:
    findings = []
    rel = path.relative_to(REPO)
    in_sync = rel.parts[:2] == ("src", "sync")
    in_storage = rel.parts[:2] == ("src", "storage")
    layer = rel.parts[1] if len(rel.parts) > 2 else ""
    raw_lines = path.read_text().splitlines()
    prev_code = ""
    for lineno, code in code_lines(path):
        def report(rule: str, msg: str) -> None:
            findings.append(f"{rel}:{lineno}: [{rule}] {msg}")

        if not in_sync:
            if RAW_SYNC.search(code):
                report(
                    "raw-sync",
                    "raw std sync primitive; use sync::Mutex / "
                    "sync::SharedMutex / sync::CondVar (src/sync/sync.h)",
                )
            if RAW_GUARD.search(code):
                report(
                    "raw-sync",
                    "lock guard over a raw std mutex type; guard a "
                    "sync:: wrapper instead",
                )
        if ASSERT.search(code) and "static_assert" not in code:
            report("assert", "assert() compiles out under NDEBUG; use UPI_CHECK")
        if NEW_EXPR.search(code):
            # Allowed only as smart-pointer initialization; a wrapped
            # expression carries the unique_ptr/... on the previous line.
            if not (SMART.search(code) or SMART.search(prev_code)):
                report("naked-new", "naked new; own it with a smart pointer")
        if DELETE_EXPR.search(code) and "= delete" not in code:
            report("naked-new", "naked delete; owning type should manage this")
        if not in_storage and CREATE_FILE.search(code):
            report(
                "create-file",
                "file created outside src/storage/; create it through "
                "storage::NewFiles (storage/db_env.h)",
            )
        # The path is a string literal, blanked in `code`: read it raw.
        include = INCLUDE_DIR.match(raw_lines[lineno - 1])
        if include and code.lstrip().startswith("#"):
            why = layer_finding(layer, include.group(1))
            if why:
                report("layer", why)
        if code.strip():
            prev_code = code
    return findings


def main() -> int:
    files = sorted(
        p for p in SRC.rglob("*") if p.suffix in (".h", ".cc") and p.is_file()
    )
    if not files:
        print("lint_invariants: no sources found under src/", file=sys.stderr)
        return 1
    findings = []
    for f in files:
        findings.extend(lint_file(f))
    findings.extend(lint_dead_ranks(files))
    for line in findings:
        print(line)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
