#!/usr/bin/env python3
"""The frontier record: build and fast-verify times at n = 5, 6, 7.

    python3 tools/frontier.py --src PATH --label L

PATH is the `src` directory of a checkout, so one copy of this script
times any tree.  For each n in 5, 6, 7 and each field, `qq` and `fp`
(F_p with p = 2^31 - 1), one row at seed 5:
`projgeo.random_general_flats(n, 5, ctx)`, then RUNS times
`checks.build_all` (its wall time is `build_s`) and
`checks.run_suite(level="fast", timings=True)` (its wall time is
`verify_s`), in-process.  A row holds the median of the runs, with their
[min, max] in `build_s_range` and `verify_s_range`, and `checks` holds
each check's median ms from the reports: one-shot verifies at n = 4..6
over F_p moved by up to 30% between runs on a 2-CPU host.

Writes BENCH_<L>.json in the current directory, with the interpreter
version, whether gmpy2 is importable (it alone moves the rational timings
several times) and the number of CPUs this process may run on.  It is a
trajectory record for citing speed-ups, not a gate: nothing reads it.
Exits 1 when a report fails, 2 when PATH holds no `veneroni` package.
"""

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from statistics import median

SEED = 5
SIZES = (5, 6, 7)
FIELDS = {"qq": None, "fp": (1 << 31) - 1}
RUNS = 3  # timed runs per row


def frontier_row(n, field, veneroni):
    checks, projgeo, scalar = veneroni
    p = FIELDS[field]
    ctx = scalar.FieldCtx.rationals() if p is None else scalar.FieldCtx.prime(p)
    inst = projgeo.random_general_flats(n, SEED, ctx)
    builds, verifies, reports = [], [], []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        vmap, inv = checks.build_all(inst)
        t1 = time.perf_counter()
        reports.append(checks.run_suite(inst, vmap, inv, level="fast", timings=True))
        t2 = time.perf_counter()
        builds.append(t1 - t0)
        verifies.append(t2 - t1)
    return {
        "n": n,
        "field": field,
        "build_s": round(median(builds), 4),
        "build_s_range": [round(min(builds), 4), round(max(builds), 4)],
        "verify_s": round(median(verifies), 4),
        "verify_s_range": [round(min(verifies), 4), round(max(verifies), 4)],
        "ok": all(report.ok for report in reports),
        "summary": reports[0].summary,
        "checks": {
            c.name: round(median(r.checks[k].ms for r in reports), 3)
            for k, c in enumerate(reports[0].checks)
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src directory of a checkout")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "veneroni", "__init__.py")):
        print(f"error: no veneroni package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from veneroni import checks, projgeo, scalar

    rows = [frontier_row(n, field, (checks, projgeo, scalar)) for n in SIZES for field in FIELDS]
    record = {
        "label": args.label,
        "seed": SEED,
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "rows": rows,
    }
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for row in rows:
        print(f"n={row['n']} {row['field']}: build {row['build_s']} s, verify {row['verify_s']} s")
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
