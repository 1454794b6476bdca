#!/usr/bin/env python3
"""Compare a freshly measured BENCH_sim_throughput.json to the baseline.

Usage: check_bench_regression.py BASELINE.json FRESH.json

Fails (exit 1) when a geomean throughput in FRESH drops more than
MAX_REGRESSION below BASELINE, or when FRESH lacks a geomean the
baseline has or reports it as zero or negative. The threshold is
deliberately wide — 25% — because both files are measured on whatever
host happens to run them: shared CI runners show double-digit
run-to-run variance, and the gate exists to catch algorithmic
regressions (which show up as 2x-10x drops), not to police
single-digit noise. Improvements never fail; they just
mean the committed baseline is stale and worth refreshing.
"""

import json
import sys

MAX_REGRESSION = 0.25  # host-noise band; see module docstring

KEYS = ["functional_geomean_ips", "pipeline_geomean_ips"]

# Layout version every emitter stamps via obs::JsonWriter. A fresh file
# without it (or with a different one) means the bench and this gate
# have drifted apart — fail loudly rather than comparing blind.
EXPECTED_SCHEMA_VERSION = 2


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    failed = False
    schema = fresh.get("schema_version")
    if schema != EXPECTED_SCHEMA_VERSION:
        print(
            f"schema_version: expected {EXPECTED_SCHEMA_VERSION}, "
            f"fresh file has {schema!r} FAIL"
        )
        failed = True
    else:
        print(f"schema_version: {schema} OK")
    for key in KEYS:
        base = baseline.get(key)
        now = fresh.get(key)
        if not base:
            # A baseline from before the metric existed can't gate it.
            print(f"{key}: not in baseline ({base!r}), skipping")
            continue
        if not isinstance(now, (int, float)) or now <= 0:
            # A bench that measured nothing must not pass as "no drop".
            print(f"{key}: fresh value {now!r} is missing or not positive FAIL")
            failed = True
            continue
        ratio = now / base
        status = "OK"
        if ratio < 1.0 - MAX_REGRESSION:
            status = "REGRESSION"
            failed = True
        print(f"{key}: {base:.3e} -> {now:.3e} ({ratio:.2f}x) {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
