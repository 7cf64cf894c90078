#!/usr/bin/env python3
"""Fail when a library header or free function has no consumer.

    python3 scripts/check_consumers.py [REPO_ROOT]

A header src/<module>/<name>.hpp is consumed when a file other than its own
src/<module>/<name>.cpp includes it as "<module>/<name>.hpp" from src/,
bench/, examples/ or perfbench/. Tests do not count. Code nothing consumes
is deleted rather than carried.

The same rule holds one level down for free functions. A function declared
at namespace scope in a src/ header (clang-format puts such a declaration at
column 0) is consumed when a file in those directories other than its own
.hpp/.cpp names it, or when its own .hpp/.cpp calls it on an indented line
(a `name(` inside a function body). Comments and strings do not count.
Names are matched as identifiers, so a free function that shares its name
with a consumed one passes. Headers in ALLOWLIST are skipped.

Methods, and free functions that share a consumed name, are checked at link
time instead: scripts/check_linked.py fails on every out-of-line src/
function that no bench/, examples/ or perfbench binary keeps, judged on
builds with section garbage collection. CI runs it as the link-check job;
locally, after the two cmake builds its docstring lists,

    python3 scripts/check_linked.py build-linked build-linked-perfbench

This rule still sees what a link cannot: headers, and functions defined
inline in them. Config fields stay unchecked.

ALLOWLIST names the headers exempt from the rule. FUNCTION_ALLOWLIST is the
allowlist both rules share, keyed by header and by a function's name
qualified by its class but not its namespaces (`log_normal_pdf`,
`Registry::reset`); an entry naming a class (`ScopedMetricsEnabledForTesting`)
covers its members. Each entry carries its reason. This rule checks the
entries that name a free function; an entry whose header or function is
gone or has gained a consumer is stale and fails the check too, so the
lists cannot outlive their reasons.

Exit codes: 0 everything is consumed, 1 something is not (or an allowlist
is stale), 2 no src/ under REPO_ROOT.
"""
import re
import sys
from pathlib import Path

ALLOWLIST = {
    "linalg/reference.hpp":
        "the scalar reference kernels the linalg tests compare against",
}

FUNCTION_ALLOWLIST = {
    ("dro/wasserstein_regression.hpp", "regression_adversary_value"):
        "the attaining adversary the closed-form regression robust loss is checked against",
    ("stats/distributions.hpp", "log_normal_pdf"):
        "the univariate oracle MultivariateNormal::log_pdf is checked against",
    ("linalg/simd.hpp", "active_backend"):
        "SIMD backend introspection: the dispatch tests reach every backend through it",
    ("linalg/simd.hpp", "backend_available"):
        "SIMD backend introspection: the dispatch tests skip backends the host lacks",
    ("linalg/simd.hpp", "backend_name"):
        "SIMD backend introspection: names the forced backend in dispatch test failures",
    ("linalg/vector_ops.hpp", "distance2"):
        "the distance the tests measure other functions' vectors by, like max_abs_diff",
    ("stats/descriptive.hpp", "nearest_rank"):
        "the sorted-sample oracle nearest_rank_index's selection is checked against",
    ("util/logging.hpp", "set_log_level"):
        "DREL_LOG_LEVEL is read only at start-up, so tests set the level through it",
    ("linalg/simd.hpp", "ScopedBackendForTesting"):
        "DREL_SIMD is read only at start-up, so the dispatch tests force a backend through it",
    ("obs/metrics.hpp", "ScopedMetricsEnabledForTesting"):
        "DREL_METRICS is read only at start-up, so tests of metric primitives force it on",
    ("obs/metrics.hpp", "Registry::reset"):
        "scopes the golden snapshots and the metric tests to one scenario",
    ("obs/metrics.hpp", "Histogram::reset"):
        "Registry::reset zeroes each histogram through it",
    ("obs/profiler.hpp", "Profiler::reset"):
        "scopes the profiler tests' phase counts to one case, as Registry::reset does",
    ("obs/profiler.hpp", "Profiler::enable_trace"):
        "DREL_TRACE is read only at start-up, so the trace tests turn tracing on through it",
    ("obs/json.hpp", "JsonValue::parse"):
        "reads back every sidecar, profile, trace and golden document the writer emits",
    ("linalg/matrix.hpp", "Matrix::max_abs_diff"):
        "the distance the tests measure other functions' matrices by",
    ("optim/objective.hpp", "Objective::numerical_gradient"):
        "the finite-difference oracle every analytic gradient is checked against",
    ("models/softmax.hpp", "SoftmaxModel::pairwise_feature_norm"):
        "the Lipschitz modulus the softmax Wasserstein penalty is checked against",
    ("dp/batch_responsibilities.hpp", "BatchResponsibilities::log_densities_into"):
        "the densities score_match_into takes its argmax of; the batch-scorer tests check "
        "them against linalg::reference::batch_log_densities and across backends and tiles",
}

CONSUMER_DIRS = ("src", "bench", "examples", "perfbench")


def names_member(name):
    """Whether an allowlist name is a class or a class member, which only the
    link rule can judge, rather than a free function."""
    return "::" in name or name[:1].isupper()

SOURCE_SUFFIXES = {".hpp", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
# Comments and string literals, which name functions without using them.
NON_CODE = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"', re.DOTALL)
# A column-0 line that declares or defines a function: a return type, then
# the name and its opening parenthesis, with no `=` before it.
DECLARATION = re.compile(r"^(?!(?:class|struct|enum|union|namespace|using|typedef|return|"
                         r"template|static_assert|extern|friend)\b)[A-Za-z_][^=(;{}]*?"
                         r"\b([A-Za-z_]\w*)\s*\(")


def sources(root):
    """Yields (repo-relative path, text) for every consumer-directory source."""
    for top in CONSUMER_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path.relative_to(root).as_posix(), path.read_text(errors="replace")


def includers(files):
    """Maps each quoted include target to the repo-relative files naming it."""
    found = {}
    for rel, text in files.items():
        for target in INCLUDE.findall(text):
            found.setdefault(target, set()).add(rel)
    return found


def declared_functions(text):
    """Names of the functions a header declares at namespace scope."""
    names = []
    for line in NON_CODE.sub("", text).splitlines():
        match = DECLARATION.match(line)
        if match and not match.group(1).startswith("operator") and match.group(1) not in names:
            names.append(match.group(1))
    return names


def unconsumed_functions(root, files, headers):
    """Maps (header, function) to False for every declared free function
    that nothing consumes, True for those consumed."""
    code = {rel: NON_CODE.sub("", text) for rel, text in files.items()}
    result = {}
    for header in headers:
        own = {"src/" + header, "src/" + header[: -len(".hpp")] + ".cpp"}
        for name in declared_functions(files["src/" + header]):
            mention = re.compile(r"\b" + re.escape(name) + r"\b")
            call = re.compile(r"^[ \t]+[^\n]*\b" + re.escape(name) + r"\s*\(", re.MULTILINE)
            result[(header, name)] = any(
                (call if rel in own else mention).search(text) for rel, text in code.items())
    return result


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"check_consumers: no src/ under {root}", file=sys.stderr)
        return 2
    files = dict(sources(root))
    found = includers(files)
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

    functions = unconsumed_functions(
        root, files, [h for h in headers if h not in ALLOWLIST])
    failures += [f"{h}: {name}() has no consumer outside its own tests"
                 for (h, name), consumed in sorted(functions.items())
                 if not consumed and (h, name) not in FUNCTION_ALLOWLIST]
    for header, name in sorted(FUNCTION_ALLOWLIST):
        if names_member(name):
            continue
        if (header, name) not in functions:
            failures.append(f"{header}: {name}() allowlisted but not declared there "
                            "(drop the entry)")
        elif functions[(header, name)]:
            failures.append(f"{header}: {name}() allowlisted but consumed (drop the entry)")

    if failures:
        for line in failures:
            print(f"check_consumers: {line}")
        return 1
    free = sum(not names_member(name) for _, name in FUNCTION_ALLOWLIST)
    print(f"check_consumers: {len(headers)} headers and {len(functions)} free functions, "
          f"all consumed ({len(ALLOWLIST)} headers and {free} functions allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
