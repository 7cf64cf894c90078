#!/usr/bin/env python3
"""Fail when a library header has no consumer.

    python3 scripts/check_consumers.py [REPO_ROOT]

A header src/<module>/<name>.hpp is consumed when a file other than its own
src/<module>/<name>.cpp includes it as "<module>/<name>.hpp" from src/,
bench/, examples/ or perfbench/. Tests do not count. Code nothing consumes
is deleted rather than carried.

ALLOWLIST names the headers exempt from the rule, each with its reason. An
entry whose header is gone or has gained a consumer is stale and fails the
check too, so the list cannot outlive its reasons.

Exit codes: 0 every header is consumed, 1 some header is not (or the
allowlist is stale), 2 no src/ under REPO_ROOT.
"""
import re
import sys
from pathlib import Path

ALLOWLIST = {
    "linalg/reference.hpp":
        "the scalar reference kernels the linalg tests compare against",
}

CONSUMER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def includers(root):
    """Maps each quoted include target to the repo-relative files naming it."""
    found = {}
    for top in CONSUMER_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            for target in INCLUDE.findall(path.read_text(errors="replace")):
                found.setdefault(target, set()).add(rel)
    return found


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"check_consumers: no src/ under {root}", file=sys.stderr)
        return 2
    found = includers(root)
    headers = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.hpp"))

    unconsumed = []
    for header in headers:
        own_source = "src/" + header[: -len(".hpp")] + ".cpp"
        if not found.get(header, set()) - {own_source}:
            unconsumed.append(header)

    failures = [f"{h}: no consumer in {', '.join(d + '/' for d in CONSUMER_DIRS)}"
                for h in unconsumed if h not in ALLOWLIST]
    for header in sorted(ALLOWLIST):
        if header not in headers:
            failures.append(f"{header}: allowlisted but not in src/ (drop the entry)")
        elif header not in unconsumed:
            failures.append(f"{header}: allowlisted but consumed (drop the entry)")

    if failures:
        for line in failures:
            print(f"check_consumers: {line}")
        return 1
    print(f"check_consumers: {len(headers)} headers, all consumed "
          f"({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
