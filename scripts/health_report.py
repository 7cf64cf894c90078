#!/usr/bin/env python3
"""Render the fleet-health block of a bench metrics sidecar.

Reads a schema-v3 sidecar (obs::write_bench_sidecar, e.g. the one
bench_fleet_scale or bench_health_smoke writes), and prints:

  * the per-round fleet series (headline columns; --all-columns for all),
  * the per-round MEMBERSHIP series when present (liveness census + churn
    events — only churn-tracking runs emit it),
  * a summary of the virtual-clock upload-latency histogram,
  * the SLO verdict table with the first violating round per failed rule.

Exit codes: 0 when the SLO verdict is pass or warn, 1 when it is fail,
2 when the sidecar is unreadable or carries no valid health block.

Usage:
  health_report.py SIDECAR.json [--all-columns] [--max-rows N]
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# The columns rendered by default: the at-a-glance health of a round. The
# full schema (src/obs/health.hpp FleetCol) is available via --all-columns.
HEADLINE_COLUMNS = (
    "round",
    "devices",
    "healthy",
    "degraded",
    "uploads_attempted",
    "uploads_delivered",
    "uploads_rejected",
    "queue_depth_at_close",
    "broadcast_bytes",
    "latency_p50_ms",
    "latency_p99_ms",
)

# Headline subset of the membership series (src/obs/health.hpp
# MembershipCol); the event-counter tail is available via --all-columns.
MEMBERSHIP_HEADLINE_COLUMNS = (
    "round",
    "alive",
    "suspect",
    "dead",
    "joining",
    "participating",
    "joins",
    "rejoins",
    "rejoins_stale",
    "churn_events",
    "prior_version",
)


def schema_error(msg: str) -> SystemExit:
    """Exit code 2: the document itself is unusable (distinct from 1, which
    means the document is fine and reports an SLO failure)."""
    print(f"health_report: {msg}", file=sys.stderr)
    return SystemExit(2)


def load_health(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise schema_error(f"cannot read {path}: {err}")
    if not isinstance(doc, dict):
        raise schema_error(f"{path}: top level is not an object")
    health = doc.get("health")
    if not isinstance(health, dict):
        raise schema_error(f"{path}: no health block (schema_version "
                           f"{doc.get('schema_version')!r}; was the bench run "
                           "with DREL_METRICS=0 or without set_health?)")
    for key in ("series", "upload_latency_ms", "slo"):
        if key not in health:
            raise schema_error(f"{path}: health block missing {key!r}")
    return health


def print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))


def print_series(series: dict, all_columns: bool, max_rows: int,
                 title: str = "per-round series",
                 headline: tuple[str, ...] = HEADLINE_COLUMNS) -> None:
    columns = series.get("columns")
    rows = series.get("rows")
    if not isinstance(columns, list) or not isinstance(rows, list):
        raise schema_error(f"{title} is missing columns/rows")
    if all_columns:
        selected = list(range(len(columns)))
    else:
        selected = [columns.index(c) for c in headline if c in columns]
        if not selected:  # unknown schema: show everything rather than nothing
            selected = list(range(len(columns)))
    shown = rows[:max_rows] if max_rows > 0 else rows
    print(f"{title} ({len(rows)} rounds):")
    print_table([str(columns[i]) for i in selected],
                [[str(row[i]) for i in selected] for row in shown])
    if len(shown) < len(rows):
        print(f"  ... {len(rows) - len(shown)} more rounds (--max-rows 0 for all)")
    print()


def histogram_quantile(bounds: list[int], buckets: list[int], count: int,
                       q: float) -> str:
    """Nearest-rank bucket upper bound, mirroring HistogramSnapshot::
    quantile_bound; the overflow bucket renders as >max."""
    if count == 0:
        return "-"
    rank = max(1, math.ceil(q * count))
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= rank:
            return f">{bounds[-1]}" if i >= len(bounds) else str(bounds[i])
    return f">{bounds[-1]}"


def print_histogram(name: str, histogram: dict) -> None:
    bounds = histogram.get("bounds", [])
    buckets = histogram.get("buckets", [])
    count = int(histogram.get("count", 0))
    if len(buckets) != len(bounds) + 1:
        raise schema_error(f"{name}: {len(buckets)} buckets for {len(bounds)} bounds")
    print(f"{name}: count={count}", end="")
    if count > 0:
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p100", 1.0)):
            print(f"  {label}<={histogram_quantile(bounds, buckets, count, q)}", end="")
    print("\n")


def print_slo(slo: dict) -> str:
    verdict = slo.get("verdict")
    if verdict not in ("pass", "warn", "fail"):
        raise schema_error(f"slo verdict {verdict!r} is not pass/warn/fail")
    rows = []
    for rule in slo.get("rules", []):
        round_cell = rule.get("first_violating_round")
        rows.append([
            str(rule.get("name", "?")),
            str(rule.get("verdict", "?")),
            f"{rule.get('observed', 0.0):g}",
            f"{rule.get('warn', 0.0):g}",
            f"{rule.get('fail', 0.0):g}",
            "-" if round_cell is None else str(round_cell),
        ])
    print("SLO rules:")
    print_table(["rule", "verdict", "observed", "warn", "fail", "first bad round"], rows)
    print(f"\nSLO verdict: {verdict}")
    return verdict


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("sidecar", help="path to a <bench>.metrics.json sidecar")
    parser.add_argument("--all-columns", action="store_true",
                        help="render every series column, not just the headline set")
    parser.add_argument("--max-rows", type=int, default=20,
                        help="series rows to render (0 = all; default 20)")
    args = parser.parse_args(argv)

    health = load_health(args.sidecar)
    print_series(health["series"], args.all_columns, args.max_rows)
    membership = health.get("membership")
    if isinstance(membership, dict):
        # Emitted only by churn-tracking runs: the liveness census and the
        # round's membership events (src/obs/health.hpp MembershipCol).
        print_series(membership, args.all_columns, args.max_rows,
                     title="membership series",
                     headline=MEMBERSHIP_HEADLINE_COLUMNS)
    print_histogram("upload_latency_ms", health["upload_latency_ms"])
    partition = health.get("partition")
    if isinstance(partition, dict) and "service_wait_ms" in partition:
        print_histogram("service_wait_ms (partition-scoped)",
                        partition["service_wait_ms"])
    verdict = print_slo(health["slo"])
    return 1 if verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
