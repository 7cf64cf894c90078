#!/usr/bin/env python3
"""Unit tests for the rules of scripts/perf_ab.py on synthetic pairs.

The verdict: a gain needs the change to win at least 9 pairs in 10 AND to
move the median by more than the base's interquartile range; a regression
needs the change to lose more pairs than a fair coin would (one-sided sign
test, p <= 0.1) AND its median per-pair ratio to lie past 1 by more than
the ratios' interquartile range. The bound check: the change's median may
be worse than the base's by at most the bound, unless either side spreads
wider than it."""

import importlib.util
import os
import random
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "perf_ab.py")
spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)


def spread(center, width, n):
    """n values evenly spread over [center - width, center + width]."""
    return [center - width + 2 * width * i / (n - 1) for i in range(n)]


class VerdictTest(unittest.TestCase):
    def test_clear_gain(self):
        base = spread(1.00, 0.02, 10)
        pairs = [(b, 0.85 * b) for b in base]
        judged = perf_ab.verdict(pairs)
        self.assertEqual(judged["wins"], 10)
        self.assertEqual(judged["verdict"], "gain")

    def test_eight_wins_in_ten_is_not_enough(self):
        base = spread(1.00, 0.02, 10)
        pairs = [(b, 0.80 * b) for b in base[:8]] + [(b, 1.05 * b) for b in base[8:]]
        judged = perf_ab.verdict(pairs)
        self.assertEqual(judged["wins"], 8)
        self.assertEqual(judged["verdict"], "none")

    def test_nine_wins_in_ten_suffice(self):
        base = spread(1.00, 0.02, 10)
        pairs = [(b, 0.80 * b) for b in base[:9]] + [(base[9], 1.05 * base[9])]
        self.assertEqual(perf_ab.verdict(pairs)["verdict"], "gain")

    def test_a_shift_inside_the_base_spread_is_not_a_gain(self):
        # The change wins every pair, but by less than the base runs vary.
        base = spread(1.00, 0.20, 10)
        pairs = [(b, b - 0.01) for b in base]
        judged = perf_ab.verdict(pairs)
        self.assertEqual(judged["wins"], 10)
        self.assertGreater(judged["base_iqr"], 0.01)
        self.assertEqual(judged["verdict"], "none")

    def test_mirror_is_a_regression(self):
        base = spread(1.00, 0.02, 10)
        pairs = [(b, 1.15 * b) for b in base]
        judged = perf_ab.verdict(pairs)
        self.assertEqual(judged["losses"], 10)
        self.assertEqual(judged["verdict"], "regression")

    def test_higher_is_better_flips_the_sides(self):
        base = spread(100.0, 2.0, 10)
        pairs = [(b, 1.2 * b) for b in base]
        self.assertEqual(perf_ab.verdict(pairs, lower_is_better=False)["verdict"], "gain")
        self.assertEqual(perf_ab.verdict(pairs, lower_is_better=True)["verdict"],
                         "regression")

    def test_ties_count_for_neither_side(self):
        pairs = [(1.0, 1.0)] * 10
        judged = perf_ab.verdict(pairs)
        self.assertEqual((judged["wins"], judged["losses"]), (0, 0))
        self.assertEqual(judged["verdict"], "none")

    def test_self_pairs_give_no_verdict(self):
        rng = random.Random(2101)
        for _ in range(200):
            pairs = [(rng.gauss(1.0, 0.05), rng.gauss(1.0, 0.05)) for _ in range(20)]
            self.assertEqual(perf_ab.verdict(pairs)["verdict"], "none")

    def test_threshold_scales_with_the_pair_count(self):
        base = spread(1.00, 0.02, 20)
        better = [(b, 0.8 * b) for b in base]
        worse = [(b, 1.1 * b) for b in base]
        self.assertEqual(perf_ab.verdict(better[:18] + worse[18:])["verdict"], "gain")
        self.assertEqual(perf_ab.verdict(better[:17] + worse[17:])["verdict"], "none")

    def test_small_noise_self_pairs_rarely_read_regression(self):
        # One build against itself on a box that drifts from 0.38 to 0.49:
        # each pair's two runs share the drift and differ by up to 3 % of
        # noise. The rule is a test at a level, so a session of 20 such
        # pairs can read "regression" by chance; it does in about 0.03 % of
        # sessions (0.3 expected here), and never reads "gain".
        rng = random.Random(2026)
        verdicts = []
        for _ in range(1000):
            drift = [0.38 + 0.11 * i / 19 for i in range(20)]
            pairs = [(d * rng.uniform(0.97, 1.03), d * rng.uniform(0.97, 1.03))
                     for d in drift]
            verdicts.append(perf_ab.verdict(pairs)["verdict"])
        self.assertLessEqual(verdicts.count("regression"), 5)
        self.assertEqual(verdicts.count("gain"), 0)

    def test_a_slowdown_on_a_drifting_box_is_a_regression(self):
        # The base drifts from 0.38 to 0.49 and every change run is 1.10x
        # its own pair's base. The base's quartiles are wider than the
        # median shift, so only the paired ratios can tell.
        base = spread(0.435, 0.055, 10)
        pairs = [(b, 1.10 * b) for b in base]
        judged = perf_ab.verdict(pairs)
        shift = judged["change_quartiles"][1] - judged["base_quartiles"][1]
        self.assertGreater(judged["base_iqr"], shift)
        self.assertEqual(judged["losses"], 10)
        self.assertEqual(judged["verdict"], "regression")
        self.assertEqual(perf_ab.verdict(pairs[:5])["verdict"], "regression")

    def test_a_measured_injected_slowdown_is_a_regression(self):
        # Per-pair CPU ratios of a build that spins a tenth of each
        # shard-round against its own source, 20 s scale_100k runs
        # (EXPERIMENTS.md): 8 losses in 10, median ratio 1.09.
        ratios = [1.109, 1.156, 1.181, 1.125, 1.065, 1.054, 0.965, 1.120, 1.071, 0.980]
        base = spread(0.435, 0.055, 10)
        pairs = [(b, r * b) for b, r in zip(base, ratios)]
        judged = perf_ab.verdict(pairs)
        self.assertEqual(judged["losses"], 8)
        self.assertEqual(judged["verdict"], "regression")

    def test_measured_self_pairs_give_no_verdict(self):
        # 20 self-pairs of one commit, two builds, 20 s scale_100k runs
        # (EXPERIMENTS.md), CPU per device-round, first build / second.
        pairs = [(0.462, 0.502), (0.440, 0.440), (0.469, 0.439), (0.437, 0.454),
                 (0.453, 0.481), (0.407, 0.439), (0.440, 0.478), (0.480, 0.457),
                 (0.457, 0.443), (0.444, 0.424), (0.434, 0.486), (0.494, 0.493),
                 (0.461, 0.448), (0.367, 0.419), (0.430, 0.429), (0.455, 0.435),
                 (0.453, 0.462), (0.467, 0.429), (0.464, 0.477), (0.490, 0.470)]
        self.assertEqual(perf_ab.verdict(pairs)["verdict"], "none")

    def test_sign_test(self):
        self.assertEqual(perf_ab.sign_test_p(0, 10), 1.0)
        self.assertAlmostEqual(perf_ab.sign_test_p(8, 10), 56 / 1024)
        self.assertAlmostEqual(perf_ab.sign_test_p(10, 10), 1 / 1024)
        self.assertEqual(perf_ab.sign_test_p(0, 0), 1.0)

    def test_quartiles_interpolate(self):
        self.assertEqual(perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(perf_ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_no_pairs_is_an_error(self):
        with self.assertRaises(ValueError):
            perf_ab.verdict([])


class BoundCheckTest(unittest.TestCase):
    def test_a_steady_small_slowdown_is_within_the_bound(self):
        # Loses every pair (a "regression" verdict), yet 2 % is inside 25 %.
        base = spread(1.00, 0.005, 10)
        pairs = [(b, 1.02 * b) for b in base]
        self.assertEqual(perf_ab.verdict(pairs)["verdict"], "regression")
        self.assertEqual(perf_ab.bound_check(pairs, 0.25), "within")

    def test_a_frequent_large_slowdown_is_outside_the_bound(self):
        # 1.3x worse in 8 pairs of 10: a regression, and outside a 0.2 bound.
        base = spread(20.0, 0.2, 10)
        pairs = [(b, 1.3 * b) for b in base[:8]] + [(b, 0.99 * b) for b in base[8:]]
        self.assertEqual(perf_ab.verdict(pairs)["verdict"], "regression")
        self.assertEqual(perf_ab.bound_check(pairs, 0.2), "outside")

    def test_a_gain_is_within_the_bound(self):
        base = spread(1.00, 0.02, 10)
        pairs = [(b, 0.5 * b) for b in base]
        self.assertEqual(perf_ab.bound_check(pairs, 0.25), "within")

    def test_higher_is_better_flips_the_direction(self):
        base = spread(100.0, 1.0, 10)
        lower = [(b, 0.7 * b) for b in base]
        self.assertEqual(perf_ab.bound_check(lower, 0.25, lower_is_better=False), "outside")
        self.assertEqual(perf_ab.bound_check(lower, 0.25, lower_is_better=True), "within")
        higher = [(b, 1.3 * b) for b in base]
        self.assertEqual(perf_ab.bound_check(higher, 0.25, lower_is_better=False), "within")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = spread(1.00, 0.40, 10)
        narrow = spread(1.00, 0.01, 10)
        # Either side's spread suffices, whatever the medians say.
        self.assertEqual(perf_ab.bound_check(list(zip(wide, narrow)), 0.25), "unresolved")
        self.assertEqual(perf_ab.bound_check(list(zip(narrow, wide)), 0.25), "unresolved")

    def test_a_wide_spread_is_within_when_every_change_run_is_better(self):
        base = spread(2.00, 0.80, 10)
        change = spread(0.60, 0.30, 10)
        self.assertEqual(perf_ab.bound_check(list(zip(base, change)), 0.25), "within")
        self.assertEqual(perf_ab.bound_check(list(zip(base, change)), 0.25,
                                             lower_is_better=False), "unresolved")

    def test_zero_medians(self):
        zeros = [(0.0, 0.0)] * 10
        self.assertEqual(perf_ab.bound_check(zeros, 0.05), "within")
        self.assertEqual(perf_ab.bound_check([(0.0, 1.0)] * 10, 0.05), "outside")

    def test_benchmark_spec_loads(self):
        seconds, metrics = perf_ab.load_benchmark()
        self.assertGreater(seconds, 0)
        self.assertIn(perf_ab.HEADLINE_METRIC, metrics)
        for lower_is_better, bound in metrics.values():
            self.assertIsInstance(lower_is_better, bool)
            self.assertGreater(bound, 0)

    def test_no_pairs_is_an_error(self):
        with self.assertRaises(ValueError):
            perf_ab.bound_check([], 0.25)


if __name__ == "__main__":
    unittest.main()
