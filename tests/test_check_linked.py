#!/usr/bin/env python3
"""Unit tests for the rule of scripts/check_linked.py on synthetic `nm -C`
listings.

The rule: every strong out-of-line (type T) function a src/ library defines
must be defined by at least one consumer binary, each overload judged on its
own, unless the shared allowlist names its header and its class-qualified
name (or its class). An allowlist entry that covers no defined function, or
only functions a consumer keeps, is stale and fails too."""

import importlib.util
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "check_linked.py")
spec = importlib.util.spec_from_file_location("check_linked", SCRIPT)
check_linked = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_linked)

# libdrel_stats.a: two overloads of one method, a free function, an inline
# (weak) method and an internal-linkage helper.
STATS = """
rng.cpp.o:
0000000000000000 V DW.ref.__gxx_personality_v0
0000000000000000 t drel::stats::(anonymous namespace)::mul_high(unsigned long, unsigned long)
0000000000000000 T drel::stats::Rng::uniform()
0000000000000000 T drel::stats::Rng::uniform(double, double)
0000000000000000 W drel::stats::Rng::next()

descriptive.cpp.o:
0000000000000000 T drel::stats::nearest_rank(std::vector<double, std::allocator<double> > const&, double)
"""

# libdrel_obs.a: a class whose constructor and destructor only tests use, and
# a method that returns a std::string.
OBS = """
metrics.cpp.o:
0000000000000000 T drel::obs::Scoped::Scoped(bool)
0000000000000000 T drel::obs::Scoped::Scoped(bool)
0000000000000000 T drel::obs::Scoped::~Scoped()
0000000000000000 T drel::obs::Registry::dump[abi:cxx11]() const
"""


def binary(*signatures):
    """An `nm -C` listing of a binary that defines `signatures`."""
    return "\n".join(f"0000000000401000 T {s}" for s in signatures) + "\n"


KEEPS_ALL = binary(
    "drel::stats::Rng::uniform()",
    "drel::stats::Rng::uniform(double, double)",
    "drel::stats::nearest_rank(std::vector<double, std::allocator<double> > const&, double)",
    "drel::obs::Scoped::Scoped(bool)",
    "drel::obs::Scoped::~Scoped()",
    "drel::obs::Registry::dump[abi:cxx11]() const",
    "main")


def judge(binaries, allowlist=None, libraries=None):
    failures, _ = check_linked.judge(libraries or {"stats": STATS, "obs": OBS}, binaries,
                                     allowlist or {})
    return failures


def without(listing, signature):
    return "".join(line + "\n" for line in listing.splitlines() if not line.endswith(signature))


class LinkRuleTest(unittest.TestCase):
    def test_everything_kept_passes(self):
        self.assertEqual(judge([KEEPS_ALL]), [])

    def test_a_method_no_binary_keeps_fails(self):
        failures = judge([without(KEEPS_ALL, "drel::obs::Registry::dump[abi:cxx11]() const")])
        self.assertEqual(len(failures), 1)
        self.assertIn("obs/metrics.hpp: drel::obs::Registry::dump[abi:cxx11]() const",
                      failures[0])

    def test_the_same_method_kept_by_one_binary_passes(self):
        lacking = without(KEEPS_ALL, "drel::obs::Registry::dump[abi:cxx11]() const")
        keeping = binary("drel::obs::Registry::dump[abi:cxx11]() const")
        self.assertEqual(judge([lacking, keeping]), [])

    def test_two_overloads_are_judged_apart(self):
        failures = judge([without(KEEPS_ALL, "drel::stats::Rng::uniform(double, double)")])
        self.assertEqual(failures, [
            "stats/rng.hpp: drel::stats::Rng::uniform(double, double) is kept by no "
            "consumer binary"])

    def test_an_allowlisted_function_passes(self):
        lacking = without(KEEPS_ALL, "drel::obs::Registry::dump[abi:cxx11]() const")
        self.assertEqual(judge([lacking], {("obs/metrics.hpp", "Registry::dump"): "a reason"}),
                         [])

    def test_an_allowlisted_class_covers_its_members(self):
        lacking = without(without(KEEPS_ALL, "drel::obs::Scoped::Scoped(bool)"),
                          "drel::obs::Scoped::~Scoped()")
        self.assertEqual(len(judge([lacking])), 2)
        self.assertEqual(judge([lacking], {("obs/metrics.hpp", "Scoped"): "a reason"}), [])

    def test_an_entry_covers_one_header_only(self):
        lacking = without(KEEPS_ALL, "drel::obs::Registry::dump[abi:cxx11]() const")
        failures = judge([lacking], {("obs/health.hpp", "Registry::dump"): "a reason"})
        self.assertTrue(any("is kept by no consumer binary" in f for f in failures))
        self.assertTrue(any("allowlisted but not defined there" in f for f in failures))

    def test_an_entry_whose_function_is_gone_fails(self):
        failures = judge([KEEPS_ALL], {("obs/metrics.hpp", "Registry::reset"): "a reason"})
        self.assertEqual(failures, [
            "obs/metrics.hpp: Registry::reset allowlisted but not defined there "
            "(drop the entry)"])

    def test_an_entry_whose_function_is_now_kept_fails(self):
        failures = judge([KEEPS_ALL], {("stats/descriptive.hpp", "nearest_rank"): "a reason"})
        self.assertEqual(failures, [
            "stats/descriptive.hpp: nearest_rank allowlisted but kept by a consumer "
            "(drop the entry)"])

    def test_an_entry_stays_while_one_overload_is_unkept(self):
        lacking = without(KEEPS_ALL, "drel::stats::Rng::uniform(double, double)")
        self.assertEqual(judge([lacking], {("stats/rng.hpp", "Rng::uniform"): "a reason"}), [])

    def test_a_free_function_entry_the_link_cannot_see_is_left_to_the_name_rule(self):
        # An inline free function has no T symbol; check_consumers judges it.
        self.assertEqual(judge([KEEPS_ALL], {("stats/rng.hpp", "fast_inline"): "a reason"}),
                         [])

    def test_weak_and_internal_functions_are_out_of_scope(self):
        # Rng::next() (W) and mul_high (t) appear in no binary, yet pass.
        self.assertEqual(judge([KEEPS_ALL]), [])


class ShortNameTest(unittest.TestCase):
    def test_namespaces_parameters_and_abi_tags_are_dropped(self):
        self.assertEqual(check_linked.short_name("drel::stats::Rng::uniform(double, double)"),
                         "Rng::uniform")
        self.assertEqual(check_linked.short_name(
            "drel::util::join[abi:cxx11](std::vector<std::string> const&, char)"), "join")
        self.assertEqual(check_linked.short_name("drel::obs::Scoped::~Scoped()"),
                         "Scoped::~Scoped")
        self.assertEqual(check_linked.short_name(
            "drel::util::run(std::function<void (unsigned long)> const&)"), "run")
        self.assertEqual(check_linked.short_name(
            "drel::linalg::Matrix::operator()(unsigned long, unsigned long) const"),
            "Matrix::operator()")


if __name__ == "__main__":
    unittest.main()
