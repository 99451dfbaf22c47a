#!/usr/bin/env python3
"""Schema gate for the committed benchmark JSON artifacts.

One definition shared by tools/check.sh and .github/workflows/ci.yml (both
previously carried inline copies of these asserts, which let the two gates
drift). Checks structure and invariants, not performance numbers — speed
regressions are judged by a human against the committed BENCH_*.json.

Usage:
    validate_bench.py serve <BENCH_serve*.json> [--min-levels=N]

Exit status 0 iff the file parses and every schema invariant holds.
"""

import json
import sys


MAX_BATCH_DEADLINE_US = 10_000_000


def fail(msg):
    print(f"validate_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def validate_serve(d, min_levels):
    require(d.get("bench") == "serve", "bench != serve")
    require(d.get("mode") in ("closed", "open"), "mode must be closed or open")
    # The bench re-answers every captured reply with an in-process
    # recommend_batch before reporting; a report without that assertion
    # must never be waved through even if the numbers parse.
    require(d.get("responses_bit_identical") is True, "responses_bit_identical is not True")
    # serve::kMaxBatchDeadlineUs (src/serve/server.hpp): the service rejects
    # a longer admission window, so a report claiming one is not genuine.
    require(0 <= d.get("batch_deadline_us", -1) <= MAX_BATCH_DEADLINE_US,
            f"batch_deadline_us must be in [0, {MAX_BATCH_DEADLINE_US}]")
    require(d.get("batch_max", 0) >= 1, "batch_max must be >= 1")
    levels = d.get("levels", [])
    require(len(levels) >= min_levels, f"expected >= {min_levels} concurrency levels")
    seen = set()
    for lv in levels:
        c = lv.get("concurrency", 0)
        require(c >= 1, "concurrency must be >= 1")
        require(c not in seen, f"duplicate concurrency level {c}")
        seen.add(c)
        require(lv.get("requests", 0) > 0, f"level {c}: requests must be positive")
        require(lv.get("queries", 0) >= lv["requests"], f"level {c}: queries < requests")
        require(lv.get("seconds", 0) > 0, f"level {c}: seconds must be positive")
        require(lv.get("qps", 0) > 0, f"level {c}: qps must be positive")
        p50, p99, p999 = (lv.get("p50_us", 0), lv.get("p99_us", 0), lv.get("p999_us", 0))
        require(p50 > 0, f"level {c}: p50_us must be positive")
        require(p50 <= p99 <= p999, f"level {c}: percentiles must be monotone (p50<=p99<=p999)")
        require(lv.get("batches", 0) >= 1, f"level {c}: batches must be >= 1")
        require(lv.get("mean_batch_queries", 0) > 0,
                f"level {c}: mean_batch_queries must be positive")
    hist = d.get("batch_size_log2_hist", [])
    require(isinstance(hist, list) and len(hist) > 0, "batch_size_log2_hist missing")
    require(all(isinstance(b, int) and b >= 0 for b in hist),
            "batch_size_log2_hist must hold non-negative counts")
    require(sum(hist) == sum(lv["batches"] for lv in levels),
            "batch_size_log2_hist total != sum of per-level batches")
    require(d.get("served_requests", 0) == sum(lv["requests"] for lv in levels),
            "served_requests != sum of per-level requests")
    require(d.get("served_errors", -1) == 0, "served_errors must be 0")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2 or args[0] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    min_levels = 3
    for flag in flags:
        if flag.startswith("--min-levels="):
            min_levels = int(flag.split("=", 1)[1])
        else:
            print(__doc__, file=sys.stderr)
            return 2

    try:
        with open(args[1]) as f:
            d = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args[1]}: {e}")

    validate_serve(d, min_levels)
    print(f"validate_bench: {args[1]} ok ({args[0]} schema)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
