#!/usr/bin/env python3
"""Secret-hygiene and locking-discipline lint for the ECQV session fabric.

Runs in CI (static-analysis job) and locally via `ctest -R ct_lint` or
`python3 tools/ct_lint.py`. The checks are the grep-able half of the
mechanism whose other half is the type system (common/secret.hpp deletes
the operators, this lint polices the span escapes C++ cannot type):

  1. No raw std::lock_guard / std::scoped_lock over the annotated
     capability ecqv::Mutex. Clang's thread-safety analysis cannot see
     through std guards on custom mutexes, so locking it must go through
     MutexLock. std::mutex guards for pure condition-variable rendezvous
     are fine.
  2. No memcmp over key material. Identifiers that smell like secrets
     (key, secret, nonce, ikm, okm, mac) next to memcmp are an error —
     the only equality on key bytes is ct_equal.
  3. No operator==/!= over secret byte spans (.bytes() escapes from
     ct::Secret, mac_key/enc_key/iv_seed field accesses).
  4. NO_THREAD_SAFETY_ANALYSIS budget: at most MAX_NTSA uses across src/,
     each carrying a justification comment naming the budget within the
     preceding lines. The escape hatch exists for condition-variable wait
     loops; it must never become a habit.
  5. Wipe-in-destructor registry: types that hold key material as raw
     bytes (not through ct::Secret) must keep their destructor wipe. The
     registry pins the exact marker so a refactor that drops the wipe
     fails CI instead of silently leaking schedules.

Exit code 0 = clean, 1 = violations (printed one per line, grep-style).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ["src", "tests", "examples", "bench"]
SKIP_PARTS = {"compile_fail"}  # negative-compile fixtures violate on purpose

MAX_NTSA = 3
NTSA_JUSTIFICATION_WINDOW = 8  # comment lines searched above an escape

SECRET_NAME = re.compile(
    r"\b\w*(key|secret|nonce|ikm|okm|mac)\w*\b", re.IGNORECASE)
MEMCMP = re.compile(r"\bmemcmp\s*\(")
STD_GUARD_ON_CAPABILITY = re.compile(
    r"std::(lock_guard|scoped_lock|unique_lock)\s*<\s*(ecqv::)?Mutex\s*>")
SECRET_SPAN_COMPARE = re.compile(
    r"(\.bytes\(\)\s*[!=]=)|([!=]=\s*\w+(\.\w+)*\.bytes\(\))")
NTSA = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")

# file (repo-relative) -> substring that must stay present.
WIPE_REGISTRY = {
    "src/common/secret.hpp": "~Secret() { wipe(); }",
    "src/aes/aes128.hpp": "~Aes128() { wipe(); }",
    "src/kdf/session_keys.hpp": "ct::Secret<aes::Key> enc_key",
    "src/common/wipe.cpp": "volatile MemsetFn memset_fn",
}


def strip_comments(lines: list[str]) -> list[str]:
    """Blank out // and /* */ comment text, preserving line numbers."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                result.append(line[i])
                i += 1
        out.append("".join(result))
    return out


def iter_source_files():
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
                continue
            if SKIP_PARTS.intersection(path.parts):
                continue
            yield path


def main() -> int:
    errors: list[str] = []
    ntsa_sites: list[str] = []

    for path in iter_source_files():
        rel = path.relative_to(REPO)
        raw = path.read_text(encoding="utf-8").splitlines()
        code = strip_comments(raw)

        for lineno, line in enumerate(code, 1):
            where = f"{rel}:{lineno}"

            if STD_GUARD_ON_CAPABILITY.search(line):
                errors.append(
                    f"{where}: std guard over an annotated capability — "
                    "use MutexLock so -Wthread-safety sees the acquisition")

            if MEMCMP.search(line) and SECRET_NAME.search(line):
                errors.append(
                    f"{where}: memcmp over key material — use ecqv::ct_equal")

            if SECRET_SPAN_COMPARE.search(line):
                errors.append(
                    f"{where}: ==/!= over a secret byte span — use ecqv::ct_equal")

            if NTSA.search(line) and rel.as_posix() != "src/common/thread_annotations.hpp":
                ntsa_sites.append(where)
                window = raw[max(0, lineno - 1 - NTSA_JUSTIFICATION_WINDOW):lineno - 1]
                if not any("budget" in w for w in window):
                    errors.append(
                        f"{where}: NO_THREAD_SAFETY_ANALYSIS without a justification "
                        f"comment naming the budget within {NTSA_JUSTIFICATION_WINDOW} lines")

    if len(ntsa_sites) > MAX_NTSA:
        listing = ", ".join(ntsa_sites)
        errors.append(
            f"NO_THREAD_SAFETY_ANALYSIS budget exceeded: {len(ntsa_sites)} uses "
            f"(max {MAX_NTSA}): {listing}")

    for rel, marker in WIPE_REGISTRY.items():
        path = REPO / rel
        if not path.is_file():
            errors.append(f"{rel}: wipe-registry file missing")
        elif marker not in path.read_text(encoding="utf-8"):
            errors.append(
                f"{rel}: wipe-registry marker lost: {marker!r} — key material "
                "must keep its destructor/DSE-hardened wipe")

    if errors:
        print(f"ct_lint: {len(errors)} violation(s)", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1

    print(f"ct_lint: clean ({len(ntsa_sites)}/{MAX_NTSA} NO_THREAD_SAFETY_ANALYSIS budget used)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
