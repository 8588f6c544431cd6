#!/usr/bin/env python3
"""Repo-specific concurrency-invariant lint.

Checks that src/ observes the locking discipline documented in
src/common/mutex.h and README.md ("Concurrency invariants"):

  1. No raw standard-library locking primitives outside the annotated
     wrappers (common/mutex.h, common/thread_annotations.h). std::mutex is
     not a Clang TSA capability, so any state it guards is invisible to
     -Wthread-safety; hgs::Mutex / MutexLock / CondVar must be used instead.
  2. No naked .Lock()/.Unlock()/.lock()/.unlock() calls: critical sections
     use the scoped MutexLock holder so early returns cannot leak a held
     lock. (Mutex::Lock/Unlock exist only for MutexLock and CondVar.)
  3. Every `mutable` member is either a Mutex, an atomic, or carries a
     GUARDED_BY annotation — a bare mutable member is mutated through const
     paths and therefore needs a stated synchronization story. A
     `// lint: mutable-ok <reason>` comment on the same line waives this.
  4. No materializing Decompress() on the read path (src/tgi/,
     src/kvstore/): those layers must go through DecompressShared so
     stored-form blocks (kColumnar especially) decode as zero-copy windows
     and value_copies stays an honest counter. Decompress() is for tests
     and byte-exact round-trip checks only.

Exit status 0 when clean, 1 when violations were found (they are printed
as file:line: message, one per line). Run locally with:

    python3 tools/lint_invariants.py

`--self-test` runs the built-in corpus of known-good / known-bad snippets
and is wired into ctest as `lint_invariants_selftest`.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Files that implement the wrappers and may touch the raw primitives.
ALLOWED_RAW_MUTEX = {
    "src/common/mutex.h",
    "src/common/thread_annotations.h",
}

RAW_PRIMITIVE_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable)\b"
)

# A naked lock/unlock call on some object: `foo.lock()`, `mu_.Unlock()`, ...
# MutexLock/CondVar internals live in the allow-listed files.
NAKED_LOCK_RE = re.compile(r"\.\s*(?:Lock|Unlock|lock|unlock)\s*\(\s*\)")

# `mutable <type> name...;` declarations. Deliberately line-based: the
# codebase's style keeps member declarations on one line (or wraps after the
# name, which still leaves `mutable <type>` on the first line).
MUTABLE_DECL_RE = re.compile(r"^\s*mutable\s+(?P<type>[A-Za-z_][\w:<>,\s*&]*?)\s+[A-Za-z_]\w*\s*(?:\{[^}]*\})?\s*(?:=[^;]*)?;")
MUTABLE_OK_TYPES = re.compile(r"^(hgs::)?(Mutex|std::atomic\b.*)$")
MUTABLE_WAIVER = "lint: mutable-ok"

# The materializing decoder. `\(` directly after the name keeps
# DecompressShared out of the match.
MATERIALIZING_DECOMPRESS_RE = re.compile(r"\bDecompress\s*\(")
# Read-path layers where every block decode must stay a window.
ZERO_COPY_DIRS = ("src/tgi/", "src/kvstore/")

COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_noise(line: str) -> str:
    """Removes string literals and // comments so they cannot match."""
    return COMMENT_RE.sub("", STRING_RE.sub('""', line))


def lint_file(path: pathlib.Path, rel: str) -> list[str]:
    problems = []
    allow_raw = rel in ALLOWED_RAW_MUTEX
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [f"{rel}:1: not valid UTF-8"]
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = strip_noise(raw_line)
        if not allow_raw:
            m = RAW_PRIMITIVE_RE.search(line)
            if m:
                problems.append(
                    f"{rel}:{lineno}: raw std::{m.group(1)} — use the "
                    "annotated hgs::Mutex/MutexLock/CondVar from "
                    "common/mutex.h instead"
                )
            if NAKED_LOCK_RE.search(line):
                problems.append(
                    f"{rel}:{lineno}: naked lock()/unlock() call — hold "
                    "locks through the scoped MutexLock so early returns "
                    "cannot leak them"
                )
        if rel.startswith(ZERO_COPY_DIRS) and \
                MATERIALIZING_DECOMPRESS_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: materializing Decompress() on the read "
                "path — use DecompressShared so stored blocks decode as "
                "zero-copy windows (Decompress is test-only)"
            )
        m = MUTABLE_DECL_RE.match(line)
        if m and MUTABLE_WAIVER not in raw_line:
            decl_type = m.group("type").strip()
            if "GUARDED_BY" in line or "PT_GUARDED_BY" in line:
                continue
            if MUTABLE_OK_TYPES.match(decl_type):
                continue
            problems.append(
                f"{rel}:{lineno}: mutable member of type '{decl_type}' "
                "without GUARDED_BY — state mutated through const paths "
                "needs a declared synchronization story (annotate it, make "
                f"it atomic, or waive with '// {MUTABLE_WAIVER} <reason>')"
            )
    return problems


def lint_tree(root: pathlib.Path) -> list[str]:
    problems = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".h", ".cc"}:
            continue
        rel = path.relative_to(root).as_posix()
        problems.extend(lint_file(path, rel))
    return problems


# --- self test ---------------------------------------------------------------

SELF_TEST_CASES = [
    # (snippet, expected substring in the violation, or None for clean;
    # optional third element overrides the lint-relative path)
    ("std::mutex mu_;", "raw std::mutex"),
    ("std::lock_guard<std::mutex> lock(mu_);", "raw std::lock_guard"),
    ("std::unique_lock<std::mutex> l(mu_);", "raw std::unique_lock"),
    ("std::condition_variable cv_;", "raw std::condition_variable"),
    ("mu_.lock();", "naked lock()"),
    ("mu_.Unlock();", "naked lock()"),
    ("mutable size_t count_ = 0;", "without GUARDED_BY"),
    ("mutable std::string cache_;", "without GUARDED_BY"),
    ("// std::mutex in a comment", None),
    ('const char* s = "std::mutex";', None),
    ("mutable Mutex mu_;", None),
    ("mutable std::atomic<uint64_t> reads_{0};", None),
    ("mutable size_t memo_ GUARDED_BY(mu_) = 0;", None),
    ("mutable size_t scratch_ = 0;  // lint: mutable-ok single-threaded", None),
    ("MutexLock lock(mu_);", None),
    ("auto raw = Decompress(value);", "materializing Decompress()",
     "src/tgi/selftest.cc"),
    ("auto raw = Decompress(value);", "materializing Decompress()",
     "src/kvstore/selftest.cc"),
    ("auto view = DecompressShared(value);", None, "src/tgi/selftest.cc"),
    # Outside the read-path layers the materializing form stays legal.
    ("auto raw = Decompress(value);", None, "src/common/selftest.cc"),
]


def self_test() -> int:
    failures = 0
    for case in SELF_TEST_CASES:
        snippet, expect = case[0], case[1]
        rel = case[2] if len(case) > 2 else "src/selftest.cc"
        tmp = pathlib.Path("/tmp") / "hgs_lint_selftest.cc"
        tmp.write_text(snippet + "\n", encoding="utf-8")
        problems = lint_file(tmp, rel)
        if expect is None:
            if problems:
                print(f"SELF-TEST FAIL (expected clean): {snippet!r} -> {problems}")
                failures += 1
        else:
            if not any(expect in p for p in problems):
                print(f"SELF-TEST FAIL (expected {expect!r}): {snippet!r} -> {problems}")
                failures += 1
    # The real tree must also be clean, so the self-test doubles as the gate.
    root = pathlib.Path(__file__).resolve().parent.parent
    tree_problems = lint_tree(root)
    for p in tree_problems:
        print(p)
    failures += len(tree_problems)
    print(f"lint_invariants self-test: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in lint corpus, then lint src/")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    problems = lint_tree(args.root)
    for p in problems:
        print(p)
    if problems:
        print(f"lint_invariants: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
