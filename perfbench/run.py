#!/usr/bin/env python3
"""Benchmark of the veneroni command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
One process and one thread drive `veneroni.cli.main` in-process, one
instance at a time in a closed loop: `generate` the workload's flats, then
passes of `build -o map.json` of every instance followed (where the
workload verifies) by `verify -i map.json -o report.json` of every
instance, as long as the next pass is predicted to end within S seconds of
the start of the run (see `timed_run`).  Every operation is checked (see
`Gate`); a failed one is counted and makes the run fail.

`--trace 0` prints the end-to-end metrics, in seconds scaled to a
reference host speed (see `HostClock`).  `--trace 1` runs a warm-up pass,
an untraced pass and a pass with the tracer of `tracer.py` installed, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 when every operation passed the gate, 1
when one failed and 2 when the benchmark cannot run here (no
`src/veneroni`, bad usage).  See README.md in this directory for
workloads, metrics and their meaning.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    n: int
    field: str
    instances: int  # consecutive instance seeds starting at --seed
    level: str | None  # verify level, or None for a build-only workload


WORKLOADS = {
    # The symbolic composition proof is the largest check: Poly mul, minor_dp.
    "prove-n3": Workload(n=3, field="qq", instances=4, level="full"),
    # Elimination on Fp objects (rref) dominates; composition is sampled.
    "survey-n4-fp": Workload(n=4, field="fp:2147483647", instances=4, level="fast"),
    # Construction only: vanishes_on_flat -> Poly.substitute, no checks.
    "construct-n4": Workload(n=4, field="qq", instances=4, level=None),
}

SETUP_REPS = 9
PROBE_REPS = 3
# Seconds one host_probe takes on the reference host; timings are scaled
# to that host's speed (see HostClock).
PROBE_REF_S = 0.01
ORACLE_POINTS = 2
WORK_DIR = ".perfbench"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


# ---- environment record and host probe ---------------------------------


def git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment():
    from veneroni import scalar

    return {
        "python": platform.python_version(),
        "backend": f"{scalar.Rational.__module__}.{scalar.Rational.__name__}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def _probe_poly(rng, terms):
    return {
        tuple(rng.randint(0, 3) for _ in range(5)): Fraction(rng.randint(1, 99), rng.randint(1, 99))
        for _ in range(terms)
    }


_PROBE_RNG = random.Random("perfbench-host-probe")
PROBE_FACTORS = (_probe_poly(_PROBE_RNG, 40), _probe_poly(_PROBE_RNG, 40))


def host_probe():
    """Seconds for a fixed pure-Python task shaped like the program's inner
    loop: one product of two sparse polynomials with Fraction coefficients,
    held in dicts keyed by exponent tuples.  It is the benchmark's own code,
    so a change to the program does not change it."""
    a, b = PROBE_FACTORS
    t0 = time.perf_counter()
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - t0


class HostClock:
    """Times steps and scales each to the reference host's speed.

    The shared host's speed drifts by tens of percent within a minute, and
    wall time and CPU time drift together.  So host_probe runs right before
    and right after every timed step, and the step's seconds are scaled by
    PROBE_REF_S over the mean of those two probes (each the median of
    PROBE_REPS tries).  A step's scaled seconds are then the seconds it
    would take on a host on which the probe takes PROBE_REF_S.  Each step's
    start is preceded by a garbage collection, outside the timing.
    """

    def __init__(self):
        self.probes = []
        self._last = self._probe()

    def _probe(self):
        p = statistics.median(host_probe() for _ in range(PROBE_REPS))
        self.probes.append(p)
        return p

    def time(self, step):
        """(step's result, wall seconds, scaled seconds)."""
        before = self._last
        gc.collect()
        t0 = time.perf_counter()
        result = step()
        wall = time.perf_counter() - t0
        self._last = self._probe()
        return result, wall, wall * PROBE_REF_S * 2 / (before + self._last)


# ---- importing and driving the program ----------------------------------


def fresh_import():
    """Import veneroni from the checkout's src/, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "veneroni" or m.startswith("veneroni.")]:
        del sys.modules[name]
    cli = importlib.import_module("veneroni.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"veneroni imported from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(cli, argv):
    """(exit code or None on a crash, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, err.getvalue()


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


# ---- correctness gate ----------------------------------------------------


def expected_status(name, n, level):
    """The documented outcome of each check on a correct map."""
    if name == "multiplicity" and n < 4:
        return "skip"
    if name == "demos" and (level == "fast" or n not in (3, 4)):
        return "skip"
    return "pass"


def _field_parse(field):
    """(coefficient parser, modulus or None) for a map file's field."""
    if field["kind"] == "qq":
        return Fraction, None
    p = field["p"]
    return (lambda s: int(s) % p), p


def _evaluate(poly, point, parse):
    total = 0
    for term in poly["terms"]:
        v = parse(term["c"])
        for x, k in zip(point, term["e"]):
            if k:
                v = v * x**k
        total += v
    return total


def map_oracle(map_bytes, seed):
    """None if the map satisfies its defining identities at sample points,
    else the name of the first identity that fails.

    Independent of the program's Poly code: at random integer points x it
    checks component_i(x) = x_i Q_i(x), f_i(x) Q_i(x) = sum_j b_ij
    component_j(x) (the b-matrix identity) and det(C_i)(v(x)) = x_i prod Q(x)
    (the inverse composed with the map).
    """
    d = json.loads(map_bytes)
    parse, p = _field_parse(d["field"])

    def is_zero(v):
        return v % p == 0 if p else v == 0

    rng = random.Random(f"perfbench-oracle-{seed}")
    n1 = d["n"] + 1
    b = [[parse(s) for s in row] for row in d["b"]]
    forms = [[parse(s) for s in f["f2"]] for f in d["flats"]]
    for _ in range(ORACLE_POINTS):
        x = [rng.choice((-1, 1)) * rng.randint(1, 97) for _ in range(n1)]
        q = [_evaluate(poly, x, parse) for poly in d["Q"]]
        comp = [_evaluate(poly, x, parse) for poly in d["components"]]
        if p:
            comp = [c % p for c in comp]
        prod_q = 1
        for v in q:
            prod_q = prod_q * v
        for i in range(n1):
            if not is_zero(comp[i] - x[i] * q[i]):
                return f"component {i} != x_{i} Q_{i}"
            f_i = sum(a * xk for a, xk in zip(forms[i], x))
            if not is_zero(f_i * q[i] - sum(bij * c for bij, c in zip(b[i], comp))):
                return f"b-matrix identity fails in row {i}"
            w = _evaluate(d["inverse_components"][i], comp, parse)
            if not is_zero(w - x[i] * prod_q):
                return f"det(C_{i}) composed with the map != x_{i} prod Q"
    return None


class Gate:
    """Judges each operation; a repeat must reproduce its first bytes."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}  # (kind, instance index) -> bytes of the first output
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _judge(self, key, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{key[0]} of instance {key[1]}: {problem}")

    def _repeat(self, key, data):
        """None for a first output or an identical repeat, else a message."""
        if key not in self.first:
            self.first[key] = data
            return None
        if data != self.first[key]:
            return "output bytes differ from the first run of this instance"
        return None

    def build(self, k, rc, err, map_path, seed):
        key = ("build", k)
        data = read_bytes(map_path)
        if rc != 0 or data is None:
            return self._judge(key, f"exit {rc}: {err.strip()[-200:]}")
        if key not in self.first:
            try:
                problem = map_oracle(data, seed)
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                problem = f"unreadable map file: {type(exc).__name__}: {exc}"
            if problem is not None:
                return self._judge(key, problem)
        self._judge(key, self._repeat(key, data))

    def verify(self, k, rc, err, report_path):
        key = ("verify", k)
        data = read_bytes(report_path)
        if rc != 0 or data is None:
            return self._judge(key, f"exit {rc}: {err.strip()[-200:]}")
        try:
            checks = json.loads(data)["checks"]
            got = [(c["name"], c["status"]) for c in checks]
        except (ValueError, KeyError, TypeError) as exc:
            return self._judge(key, f"unreadable report: {exc}")
        want = [
            (name, expected_status(name, self.workload.n, self.workload.level))
            for name in tracing.CHECK_FUNCTIONS
        ]
        if got != want:
            diff = [f"{g[0]}={g[1]}" for g, w in zip(got, want) if g != w]
            return self._judge(key, f"check statuses differ: {diff or got}")
        self._judge(key, self._repeat(key, data))


# ---- one run ---------------------------------------------------------------


class Run:
    """Files and steps of one benchmark run of one workload."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.seeds = [seed + k for k in range(workload.instances)]
        self.paths = [
            {kind: os.path.join(work, f"{kind}{k}.json") for kind in ("flats", "map", "report")}
            for k in range(workload.instances)
        ]
        self.gate = Gate(workload)

    def generate(self):
        """Write every instance's flats file; a failure stops the run."""
        w = self.workload
        for s, paths in zip(self.seeds, self.paths):
            argv = ["generate", "-n", str(w.n), "--field", w.field, "--seed", str(s)]
            rc, err = call_cli(self.cli, argv + ["-o", paths["flats"]])
            if rc != 0:
                raise RuntimeError(f"generate failed for seed {s}: exit {rc}: {err}")

    def steps(self):
        """(kind, instance) of one pass: build every instance, then verify
        every built map where the workload verifies."""
        kinds = ("build", "verify") if self.workload.level else ("build",)
        return [(kind, k) for kind in kinds for k in range(self.workload.instances)]

    def step(self, kind, k, clock=None):
        """Run one build or verify and judge it; timed by `clock` if given,
        the gate's checks outside the timing.  Returns (wall, scaled)
        seconds, or None untimed."""
        paths = self.paths[k]
        if kind == "build":
            argv = ["build", "-i", paths["flats"], "-o", paths["map"]]
        else:
            argv = ["verify", "-i", paths["map"], "-o", paths["report"]]
            argv += ["--level", self.workload.level]
        timing = None
        if clock is None:
            rc, err = call_cli(self.cli, argv)
        else:
            (rc, err), wall, scaled = clock.time(lambda: call_cli(self.cli, argv))
            timing = (wall, scaled)
        if kind == "build":
            self.gate.build(k, rc, err, paths["map"], self.seeds[k])
        else:
            self.gate.verify(k, rc, err, paths["report"])
        return timing

    def one_pass(self):
        for kind, k in self.steps():
            self.step(kind, k)

    def map_bytes(self):
        return sum(os.path.getsize(p["map"]) for p in self.paths if os.path.exists(p["map"]))


def set_up(workload, seed, work):
    """Import veneroni afresh and generate the workload's flats."""
    run = Run(fresh_import(), workload, seed, work)
    run.generate()
    return run


def timed_run(workload, seed, seconds, work):
    """End-to-end metrics; tracing stays off.

    Set-up runs SETUP_REPS times.  Then passes over the workload's steps
    repeat while the next pass, predicted from the last one, ends within
    `seconds` of the start of the run; at least one pass runs.  Every step
    is timed by a HostClock.  setup_s is the median scaled set-up; pass_s
    sums, over the steps of a pass, each step's median scaled seconds.
    """
    start = time.perf_counter()
    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPS):
        run, wall, scaled = clock.time(lambda: set_up(workload, seed, work))
        setups.append((wall, scaled))
    samples = {step: [] for step in run.steps()}  # (kind, k) -> [(wall, scaled)]
    passes = []
    while True:
        t0 = time.perf_counter()
        for kind, k in samples:
            samples[(kind, k)].append(run.step(kind, k, clock))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() + passes[-1] > start + seconds:
            break

    def med(values, i):
        return statistics.median(v[i] for v in values)

    def phase(kind, i):
        return sum(med(v, i) for (knd, _), v in samples.items() if knd == kind)

    metrics = {
        "setup_s": med(setups, 1),
        "pass_s": sum(med(v, 1) for v in samples.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probes = clock.probes
    notes = [
        f"{len(setups)} set-ups, {len(passes)} passes of {len(samples)} steps",
        f"wall seconds: setup {med(setups, 0):.6g}, pass {sum(med(v, 0) for v in samples.values()):.6g}"
        f" (build {phase('build', 0):.6g}, verify {phase('verify', 0):.6g})",
        f"scaled seconds: build_s {phase('build', 1):.6g}, verify_s {phase('verify', 1):.6g}"
        " (pass_s is their sum)",
        f"host_probe_s: median {statistics.median(probes):.5f}"
        f" (min {min(probes):.5f}, max {max(probes):.5f}) over {len(probes)} probes;"
        f" reference {PROBE_REF_S}",
    ]
    return run, metrics, END_TO_END_UNITS, notes


def traced_run(workload, seed, work, spans_path):
    """Per-layer metrics from one traced pass, after a warm-up pass and an
    untraced pass; the overhead is traced minus untraced seconds."""
    run = set_up(workload, seed, work)
    run.one_pass()
    t0 = time.perf_counter()
    run.generate()
    run.one_pass()
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    with tracer:
        t0 = time.perf_counter()
        run.generate()
        run.one_pass()
        traced = time.perf_counter() - t0
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"trace wrappers left installed: {leftover}")
    metrics = tracer.metrics()
    metrics["cli.map_bytes"] = run.map_bytes()
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    units = {name: per_layer_unit(name) for name in metrics}
    write_spans(tracer, spans_path)
    notes = [f"spans: {len(tracer.span_name)} written to {spans_path}"]
    return run, metrics, units, notes


def per_layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.map_bytes":
        return "bytes"
    return "count"


def write_spans(tracer, path):
    rows = tracer.span_records()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"columns": ["name", "start", "end", "parent"], "spans": [\n')
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")


def check_previous(workload_name, env):
    """Flag a comparison with the previous run of this workload on another
    interpreter or scalar backend; then record this run's environment."""
    path = os.path.join(WORK_DIR, f"env-{workload_name}.json")
    previous = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env, fh)
    if previous is None:
        return []
    return [
        f"WARNING: {key} differs from the previous run ({previous.get(key)} -> {env[key]});"
        " numbers are not comparable across it"
        for key in ("python", "backend")
        if previous.get(key) != env[key]
    ]


# ---- entry point -----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "veneroni", "__init__.py")):
        print(f"error: no veneroni package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    label = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            spans_path = os.path.join(WORK_DIR, f"spans-{label}.json")
            run, metrics, units, notes = traced_run(workload, args.seed, work, spans_path)
        else:
            run, metrics, units, notes = timed_run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate = run.gate
    env = environment()
    print(f"workload {label}: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for line in check_previous(args.workload, env) + notes + gate.failures:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.6g}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
