#!/usr/bin/env python3
"""The frontier record: build, fast-verify and map-write times at n = 5, 6, 7.

    python3 tools/frontier.py --src PATH --label L

PATH is the `src` directory of a checkout, so one copy of this script
times any tree.  For each n in 5, 6, 7 and each field, `qq` and `fp`
(F_p with p = 2^31 - 1), one row at seed 5:
`projgeo.random_general_flats(n, 5, ctx)`, then RUNS times
`checks.build_all` (its wall time is `build_s`),
`checks.run_suite(level="fast", timings=True)` (`verify_s`) and
`cli.dump_json(cli.map_to_dict(...))` of the built map into a temporary
file (`write_s`), in-process; `map_bytes` is the size of that file.
Then the same row through the command line, as a user runs it:
`cli.main` `generate` of the flats (`cli_generate_s`), `build -i` of
them (`cli_build_s`) and `verify -i` of that map at `--level fast`
(`cli_verify_s`), with the map file's load, `cli.load_json` and
`cli.map_from_dict`, also timed on its own (`cli_load_s`).  A
row holds the median of each step's runs, with their [min, max] in
`<step>_s_range`, and the same for the process CPU seconds of the step
in `<step>_cpu_s` and `<step>_cpu_s_range`: wall times of one row moved
by up to 40% between runs on a 2-CPU host.  `checks` holds each check's
median ms from the reports.

Writes BENCH_<L>.json in the current directory, with the interpreter
version, whether gmpy2 is importable (it alone moves the rational timings
several times) and the number of CPUs this process may run on.
`probe_s` holds the host's speed before and after the rows: each the
median of `PROBE_REPS` runs of `host_probe`, the fixed task of
`perfbench/run.py` in this script's checkout, loaded by path, so that
records taken on two hosts can be scaled to one another.  It is a
trajectory record for citing speed-ups, not a gate: nothing reads it.
Exits 1 when a report fails or a command exits nonzero, 2 when PATH holds
no `veneroni` package.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

SEED = 5
SIZES = (5, 6, 7)
FIELDS = {"qq": None, "fp": (1 << 31) - 1}
RUNS = 3  # timed runs per row
PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def timed(step):
    """(result, wall seconds, process CPU seconds) of one call of step."""
    wall, cpu = time.perf_counter(), time.process_time()
    out = step()
    return out, time.perf_counter() - wall, time.process_time() - cpu


def host_prober():
    """A function giving the median of `PROBE_REPS` `host_probe` seconds,
    both taken from `PERFBENCH_RUN`."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return lambda: round(median(run.host_probe() for _ in range(run.PROBE_REPS)), 6)


def timed_cli(cli, argv):
    """(exit code, wall seconds, process CPU seconds) of one `cli.main(argv)`,
    its printed output discarded."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return timed(lambda: cli.main(argv))


def frontier_row(n, field, veneroni):
    checks, cli, projgeo, scalar = veneroni
    p = FIELDS[field]
    ctx = scalar.FieldCtx.rationals() if p is None else scalar.FieldCtx.prime(p)
    inst = projgeo.random_general_flats(n, SEED, ctx)
    steps = ("build", "verify", "write", "cli_generate", "cli_build", "cli_load", "cli_verify")
    times = {step: [] for step in steps}  # (wall, cpu) per run
    reports, codes = [], []
    spec = ["-n", str(n), "--seed", str(SEED), "--field", "qq" if p is None else f"fp:{p}"]
    with tempfile.TemporaryDirectory() as tmp:
        names = ("map.json", "flats.json", "cli-map.json", "report.json")
        path, flats, cli_map, cli_report = (os.path.join(tmp, name) for name in names)
        for _ in range(RUNS):
            (vmap, inv), *build = timed(lambda: checks.build_all(inst))
            report, *verify = timed(
                lambda: checks.run_suite(inst, vmap, inv, level="fast", timings=True)
            )
            _, *write = timed(lambda: cli.dump_json(cli.map_to_dict(inst, vmap, inv), path))
            code_g, *cli_generate = timed_cli(cli, ["generate", *spec, "-o", flats])
            code_b, *cli_build = timed_cli(cli, ["build", "-i", flats, "-o", cli_map])
            _, *cli_load = timed(lambda: cli.map_from_dict(cli.load_json(cli_map)))
            argv = ["verify", "-i", cli_map, "--level", "fast", "-o", cli_report]
            code_v, *cli_verify = timed_cli(cli, argv)
            runs = (build, verify, write, cli_generate, cli_build, cli_load, cli_verify)
            for step, t in zip(steps, runs):
                times[step].append(t)
            reports.append(report)
            codes += [code_g, code_b, code_v]
        map_bytes = os.path.getsize(path)
    row = {"n": n, "field": field, "map_bytes": map_bytes}
    for step, runs in times.items():
        for key, values in (("s", [w for w, _ in runs]), ("cpu_s", [c for _, c in runs])):
            row[f"{step}_{key}"] = round(median(values), 4)
            row[f"{step}_{key}_range"] = [round(min(values), 4), round(max(values), 4)]
    row["ok"] = all(report.ok for report in reports) and not any(codes)
    row["summary"] = reports[0].summary
    row["checks"] = {
        c.name: round(median(r.checks[k].ms for r in reports), 3)
        for k, c in enumerate(reports[0].checks)
    }
    return row


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
    from veneroni import checks, cli, projgeo, scalar

    veneroni = (checks, cli, projgeo, scalar)
    probe = host_prober()
    before = probe()
    rows = [frontier_row(n, field, veneroni) for n in SIZES for field in FIELDS]
    record = {
        "label": args.label,
        "seed": SEED,
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "probe_s": {"before": before, "after": probe()},
        "rows": rows,
    }
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for row in rows:
        print(
            f"n={row['n']} {row['field']}: build {row['build_s']} s,"
            f" verify {row['verify_s']} s, write {row['write_s']} s,"
            f" map {row['map_bytes']} bytes; cli generate {row['cli_generate_s']} s,"
            f" build {row['cli_build_s']} s, verify {row['cli_verify_s']} s"
            f" (load {row['cli_load_s']} s)"
        )
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
