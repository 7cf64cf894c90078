#!/usr/bin/env python3
"""Paired A/B timing of the repository benchmark: a base commit against the working tree.

    python3 scripts/perf_ab.py --base HEAD~1 --workload scale_chaos_churn
        [--pairs 10] [--seed N] [--work-dir DIR]

Run from anywhere inside the repository. The base commit is exported with
`git archive` into <work-dir>/base, so the repository gains no worktree
entry and nothing is left to prune if a run is interrupted. Each side builds
perfbench into its own CARGO_TARGET_DIR (<work-dir>/base-target and
<work-dir>/change-target), so the two builds never mix. Without --work-dir
a temporary directory is used and removed at the end; with it, the export
and both builds are reused by the next invocation (the export is refreshed
when --base names another commit).

Before the pairs, each side builds and runs once for a tenth of a second;
that run is discarded, so no pair pays for a build. Each pair then runs
`perfbench/run.py` once per side, back to back, for BENCHMARK.json's
run_seconds, and the side that runs first alternates from pair to pair, so
a box that slows down as it heats up penalises both sides alike.

The script prints every pair's ratio (change / base) of
cpu_us_per_device_round. Then, for each end-to-end metric of
BENCHMARK.json, it prints each side's median [quartiles], the ratio of the
medians, the pairs the change won and lost, the metric's verdict (below),
every pair's values, and where the change's median sits against the
metric's bound (directions and bounds come from BENCHMARK.json):

  within      no worse than the base median by more than the bound, taken as
              a fraction of the base median;
  outside     worse than that;
  unresolved  either side's interquartile range is wider than the bound, as a
              fraction of that side's median, so the runs cannot tell;
              unless every change run is better than every base run, which
              is within.

The verdict, for every metric:

  gain        the change is better in at least 9 pairs in 10, and its median
              is better than the base median by more than the base's
              interquartile range;
  regression  judged from the per-pair ratios, oriented so that a ratio
              above 1 means the change is worse: the change loses more
              pairs than a fair coin would (one-sided sign test over the
              untied pairs, p <= 0.1), and the median ratio lies past 1 by
              more than the ratios' interquartile range. Each ratio compares
              two runs made back to back, so a box that drifts over the
              session moves both sides of a pair alike and widens neither
              test, where it widens the base's own spread. On synthetic
              self-pairs with a few per cent of noise it reads
              "regression" by chance in about 1 % of 10-pair sessions and
              0.03 % of 20-pair ones;
  none        neither.

Exit status: 0 when every end-to-end metric is within its bound, 1 when one
is outside its bound or unresolved, 2 when a build or a run fails or a run
reports incorrect output.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADLINE_METRIC = "cpu_us_per_device_round"
WARM_UP_SECONDS = 0.1
WIN_NUMERATOR, WIN_DENOMINATOR = 9, 10
SIGN_TEST_ALPHA = 0.1


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(losses, n):
    """P(X >= losses) for X ~ Binomial(n, 1/2): the one-sided sign test."""
    return sum(math.comb(n, k) for k in range(losses, n + 1)) / 2 ** n


def worse_ratio(base, change, lower_is_better=True):
    """change / base, inverted for a higher-is-better metric: above 1 is worse."""
    num, den = (change, base) if lower_is_better else (base, change)
    if den:
        return num / den
    return 1.0 if num == den else math.inf


def verdict(pairs, lower_is_better=True):
    """Judges (base, change) pairs of one metric.

    Returns a dict with the pair count, the change's wins and losses, each
    side's quartiles, the quartiles of the per-pair worse-ratios, the sign
    test's p-value for the losses, and the verdict string ("gain",
    "regression" or "none") as the module docstring defines it. A side
    wins a pair when its value is strictly better; ties count for neither
    side.
    """
    if not pairs:
        raise ValueError("verdict needs at least one pair")
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]

    def better(x, y):
        return x < y if lower_is_better else x > y

    wins = sum(1 for b, c in pairs if better(c, b))
    losses = sum(1 for b, c in pairs if better(b, c))
    base_q = quartiles(base)
    change_q = quartiles(change)
    base_iqr = base_q[2] - base_q[0]
    ratio_q = quartiles([worse_ratio(b, c, lower_is_better) for b, c in pairs])
    sign_p = sign_test_p(losses, wins + losses)
    n = len(pairs)
    result = "none"
    if wins * WIN_DENOMINATOR >= WIN_NUMERATOR * n and better(change_q[1], base_q[1]) \
            and abs(change_q[1] - base_q[1]) > base_iqr:
        result = "gain"
    elif sign_p <= SIGN_TEST_ALPHA and ratio_q[1] - 1 > ratio_q[2] - ratio_q[0]:
        result = "regression"
    return {
        "pairs": n,
        "wins": wins,
        "losses": losses,
        "base_quartiles": base_q,
        "change_quartiles": change_q,
        "base_iqr": base_iqr,
        "ratio_quartiles": ratio_q,
        "sign_p": sign_p,
        "verdict": result,
    }


def relative(delta, reference):
    """delta / |reference|, with a zero reference giving 0 or an infinity."""
    if reference:
        return delta / abs(reference)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def bound_check(pairs, bound, lower_is_better=True):
    """Where the change's median sits against a no-regression bound.

    Returns "within", "outside" or "unresolved" as the module docstring
    defines them. `bound` is a fraction of the base median.
    """
    if not pairs:
        raise ValueError("bound_check needs at least one pair")
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    base_q = quartiles(base)
    change_q = quartiles(change)
    spread = max(relative(q[2] - q[0], q[1]) for q in (base_q, change_q))
    if spread > bound:
        always_better = max(change) < min(base) if lower_is_better else min(change) > max(base)
        return "within" if always_better else "unresolved"
    worse = relative(change_q[1] - base_q[1], base_q[1])
    if not lower_is_better:
        worse = -worse
    return "outside" if worse > bound else "within"


def load_benchmark():
    """(run_seconds, {name: (lower_is_better, bound)}) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m.get("better", "lower") == "lower", float(m["bound"]))
               for m in spec["end_to_end"]}
    return float(spec["run_seconds"]), metrics


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_base(commit, dest):
    """Extracts `commit` into `dest` unless it already holds that commit."""
    stamp = dest / ".perf_ab_commit"
    if stamp.is_file() and stamp.read_text().strip() == commit:
        return
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    if not (dest / "perfbench" / "run.py").is_file():
        raise RuntimeError(f"commit {commit} has no perfbench/run.py")
    stamp.write_text(commit + "\n")


def run_side(tree, target, args, seconds):
    """One perfbench run; returns its parsed JSON result."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seconds", str(seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise RuntimeError(f"{tree}: run reported incorrect output: {lines[-1]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work-dir", type=Path)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    commit = git("rev-parse", "--verify", args.base + "^{commit}")
    seconds, metrics = load_benchmark()
    work = args.work_dir or Path(tempfile.mkdtemp(prefix="perf_ab_"))
    work = work.resolve()
    try:
        export_base(commit, work / "base")
        sides = {"base": (work / "base", work / "base-target"),
                 "change": (ROOT, work / "change-target")}
        print(f"base {commit[:12]} vs working tree, {args.workload}, "
              f"seed {args.seed if args.seed is not None else 'default'}, {seconds:g} s runs")
        for tree, target in sides.values():
            run_side(tree, target, args, WARM_UP_SECONDS)
        runs = []  # per pair: {side: {metric: value}}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            values = {}
            for side in order:
                tree, target = sides[side]
                result = run_side(tree, target, args, seconds)
                values[side] = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append(values)
            base, change = values["base"][HEADLINE_METRIC], values["change"][HEADLINE_METRIC]
            print(f"pair {i + 1:2d} ({order[0]} first): base {base:.6g}  "
                  f"change {change:.6g}  ratio {change / base:.4f}", flush=True)
    except (RuntimeError, subprocess.CalledProcessError, OSError, KeyError,
            json.JSONDecodeError) as err:
        print(f"perf_ab.py: {err}", file=sys.stderr)
        return 2
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)

    all_within = True
    for name, (lower_is_better, bound) in metrics.items():
        if not all(name in r["base"] and name in r["change"] for r in runs):
            print(f"  {name}: not reported by every run  unresolved")
            all_within = False
            continue
        pairs = [(r["base"][name], r["change"][name]) for r in runs]
        judged = verdict(pairs, lower_is_better)
        status = bound_check(pairs, bound, lower_is_better)
        all_within = all_within and status == "within"
        b, c = judged["base_quartiles"], judged["change_quartiles"]
        ratio_q = judged["ratio_quartiles"]
        print(f"  {name}: base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
              f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  "
              f"ratio {c[1] / b[1] if b[1] else float('nan'):.4f}  "
              f"change better in {judged['wins']}/{judged['pairs']}, "
              f"worse in {judged['losses']} (sign p {judged['sign_p']:.3g})  "
              f"worse-ratio {ratio_q[1]:.4f} [{ratio_q[0]:.4f}, {ratio_q[2]:.4f}]  "
              f"verdict {judged['verdict']}  {status} bound {bound:g}")
        print("    pairs (base/change): " + ", ".join(f"{x:.6g}/{y:.6g}" for x, y in pairs))
    print(f"end-to-end bounds: {'all within' if all_within else 'NOT all within'}")
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
