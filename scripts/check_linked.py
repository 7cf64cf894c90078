#!/usr/bin/env python3
"""Fail when an out-of-line library function is kept by no consumer binary.

    python3 scripts/check_linked.py BUILD_DIR PERFBENCH_BUILD_DIR

BUILD_DIR is a build of the repository and PERFBENCH_BUILD_DIR one of
perfbench/, both configured so that the linker drops every function no
binary reaches:

    flags=(-DCMAKE_BUILD_TYPE=None
           -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
           -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
    cmake -S . -B build-linked "${flags[@]}"
    cmake --build build-linked -j --target $(basename -s .cpp bench/*.cpp examples/*.cpp)
    cmake -S perfbench -B build-linked-perfbench "${flags[@]}"
    cmake --build build-linked-perfbench -j --target perfbench
    python3 scripts/check_linked.py build-linked build-linked-perfbench

The consumers are the bench/ and examples/ binaries and perfbench. Tests do
not count. Every strong out-of-line function (an `nm` type T symbol) that a
src/ library defines must be defined by at least one consumer binary. Each
overload is judged on its own, by its demangled signature. At -O0 nothing is
inlined, so a binary keeps exactly the functions main() can reach.
Functions defined inline in a header and internal-linkage functions are out
of scope; scripts/check_consumers.py checks the first by name.

A function of src/<module>/<name>.cpp belongs to the header
<module>/<name>.hpp. It is exempt when check_consumers.py's
FUNCTION_ALLOWLIST holds that header and its name, qualified by its class
but not its namespaces (`Registry::reset`, `log_normal_pdf`); the entry
covers every overload, and an entry naming a class covers its members. An
entry that names a class or a member is stale when that header defines no
function it covers, and any entry is stale when a consumer keeps every
function it covers. A stale entry fails the check too. (An entry for a free
function this rule does not see, one defined inline, is check_consumers'
to judge.)

Exit codes: 0 every function is kept, 1 one is not (or an entry is stale),
2 a library or binary is missing.
"""
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_consumers import FUNCTION_ALLOWLIST, names_member  # noqa: E402

CONSUMER_DIRS = ("bench", "examples")


def short_name(signature):
    """The name a function is allowlisted by: its demangled signature minus
    the parameter list, the ABI tags and the leading namespaces."""
    end = len(signature)
    depth = 0
    for i in range(len(signature) - 1, -1, -1):
        if signature[i] == ")":
            depth += 1
        elif signature[i] == "(":
            depth -= 1
            if depth == 0:
                end = i
                break
    name = signature[:end].replace("[abi:cxx11]", "")
    parts = name.split("::")
    first = next((i for i, part in enumerate(parts[:-1]) if part[:1].isupper()),
                 len(parts) - 1)
    return "::".join(parts[first:])


def library_functions(listing, module):
    """Yields (header, signature) for every strong out-of-line function in an
    `nm -C` listing of src/<module>'s archive."""
    header = None
    for line in listing.splitlines():
        if line.endswith(".cpp.o:"):
            header = f"{module}/{line[:-len('.cpp.o:')]}.hpp"
            continue
        fields = line.split(" ", 2)
        if header and len(fields) == 3 and fields[1] == "T":
            yield header, fields[2]


def covers(entry, name):
    """Whether an allowlist entry covers the function `name`: the function
    itself, or a member of the class the entry names."""
    return name == entry or name.startswith(entry + "::")


def defined_names(listing):
    """Every symbol an `nm -C` listing of a binary defines."""
    return {fields[2] for fields in (line.split(" ", 2) for line in listing.splitlines())
            if len(fields) == 3}


def judge(libraries, binaries, allowlist):
    """Failure lines for an {module: archive listing} and a list of binary
    listings, given {(header, name): reason}."""
    kept = set().union(*map(defined_names, binaries))
    functions = {}
    for module, listing in sorted(libraries.items()):
        for header, signature in library_functions(listing, module):
            functions.setdefault((header, short_name(signature)), {})[signature] = (
                signature in kept)

    failures = [f"{header}: {signature} is kept by no consumer binary"
                for (header, name), overloads in sorted(functions.items())
                if not any(h == header and covers(entry, name) for h, entry in allowlist)
                for signature, is_kept in sorted(overloads.items()) if not is_kept]
    for header, entry in sorted(allowlist):
        kept = [is_kept for (h, name), overloads in functions.items()
                if h == header and covers(entry, name) for is_kept in overloads.values()]
        if not kept:
            if names_member(entry):
                failures.append(f"{header}: {entry} allowlisted but not defined there "
                                "(drop the entry)")
        elif all(kept):
            failures.append(f"{header}: {entry} allowlisted but kept by a consumer "
                            "(drop the entry)")
    return failures, sum(len(overloads) for overloads in functions.values())


def nm(path):
    return subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                          capture_output=True, text=True).stdout


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    build, perfbench_build = Path(argv[1]), Path(argv[2])
    archives = sorted((build / "src").glob("*/libdrel_*.a"))
    binaries = [build / top / source.stem for top in CONSUMER_DIRS
                for source in sorted((root / top).glob("*.cpp"))]
    binaries.append(perfbench_build / "perfbench")
    missing = [str(path) for path in binaries if not path.is_file()]
    if not archives or missing:
        print(f"check_linked: not built: {', '.join(missing) or build / 'src'}",
              file=sys.stderr)
        return 2

    libraries = {path.parent.name: nm(path) for path in archives}
    failures, checked = judge(libraries, [nm(path) for path in binaries], FUNCTION_ALLOWLIST)
    if failures:
        for line in failures:
            print(f"check_linked: {line}")
        return 1
    print(f"check_linked: {checked} out-of-line functions in {len(archives)} libraries, "
          f"each kept by one of {len(binaries)} consumer binaries or allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
