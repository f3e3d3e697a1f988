"""Tests of the benchmark itself: tracer hygiene, count stability, the gate.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

sys.path.insert(0, bench.SRC)

SMALL = bench.Workload(n=3, field="qq", instances=1, level="full")


@pytest.fixture
def small_run(tmp_path):
    return bench.Run(bench.fresh_import(), SMALL, 5, str(tmp_path))


def _namespace_snapshot():
    from veneroni.mpoly import Poly

    snap = {("Poly", a): v for a, v in vars(Poly).items()}
    for mod in tracing._veneroni_modules():
        snap.update({(mod.__name__, a): v for a, v in vars(mod).items()})
    return snap


def _traced_counts(run):
    tracer = tracing.Tracer()
    with tracer:
        run.generate()
        run.one_pass()
    metrics = tracer.metrics()
    return {k: v for k, v in metrics.items() if k.endswith((".calls", ".cells", ".out_terms"))}


def test_trace_wrappers_are_removed_after_the_traced_run(small_run):
    before = _namespace_snapshot()
    tracer = tracing.Tracer()
    with tracer:
        inside = tracing.installed_wrappers()
        small_run.generate()
        small_run.one_pass()
    assert "veneroni.checks.verify_composition" in inside
    assert "mpoly.Poly.__mul__" in inside
    # names imported with `from .projgeo import ...` are patched where looked up
    assert "veneroni.checks.transversal_through" in inside
    assert "veneroni.cli.random_general_flats" in inside
    assert tracing.installed_wrappers() == []
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["checks.composition"] == 1
    assert small_run.gate.failed == 0


def test_counts_repeat_exactly_across_traced_runs(small_run):
    first = _traced_counts(small_run)
    second = _traced_counts(small_run)
    assert first == second
    assert first["mpoly.mul.calls"] > 0 and first["mpoly.mul.out_terms"] > 0
    assert first["exactla.rref.cells"] > 0
    assert first["exactla.det_poly_matrix.bareiss.calls"] > 0
    assert small_run.gate.failed == 0 and small_run.gate.attempted == 4


def test_mutated_b_entry_is_a_failed_operation(small_run):
    small_run.generate()
    small_run.one_pass()
    assert small_run.gate.failed == 0
    paths = small_run.paths[0]
    with open(paths["map"], encoding="utf-8") as fh:
        d = json.load(fh)
    d["b"][0][1] = str(Fraction(d["b"][0][1]) + 1)
    mutated = json.dumps(d, indent=2) + "\n"
    with open(paths["map"], "w", encoding="utf-8") as fh:
        fh.write(mutated)
    assert "b-matrix" in bench.map_oracle(mutated.encode(), 5)

    argv = ["verify", "-i", paths["map"], "-o", paths["report"], "--level", "full"]
    rc, err = bench.call_cli(small_run.cli, argv)
    small_run.gate.verify(0, rc, err, paths["report"])
    assert small_run.gate.failed == 1
    assert rc == 1
    with open(paths["report"], encoding="utf-8") as fh:
        status = {c["name"]: c["status"] for c in json.load(fh)["checks"]}
    assert status["b-matrix"] == "fail" and status["composition"] == "fail"


def test_changed_report_bytes_fail_the_determinism_gate(small_run):
    small_run.generate()
    small_run.one_pass()
    report = small_run.paths[0]["report"]
    with open(report, "a", encoding="utf-8") as fh:
        fh.write(" ")
    small_run.gate.verify(0, 0, "", report)
    assert small_run.gate.failed == 1
    assert "differ" in small_run.gate.failures[0]


@pytest.mark.xfail(strict=True, reason="generate certifies non-general n=4 qq flats (README)")
def test_known_non_general_n4_instance_verifies(tmp_path):
    # Seed 50: genericity_check passes, but the degree-4 system has
    # dimension 6, so linear-system-dimension fails.  No workload verifies
    # n=4 over qq; this keeps the defect in sight until it is fixed.
    workload = bench.Workload(n=4, field="qq", instances=1, level="fast")
    run = bench.Run(bench.fresh_import(), workload, 50, str(tmp_path))
    run.generate()
    run.one_pass()
    assert run.gate.failures == []


def test_expected_statuses_follow_the_documented_skips():
    assert bench.expected_status("multiplicity", 3, "full") == "skip"
    assert bench.expected_status("multiplicity", 4, "full") == "pass"
    assert bench.expected_status("demos", 4, "fast") == "skip"
    assert bench.expected_status("demos", 4, "full") == "pass"
    assert bench.expected_status("composition", 6, "fast") == "pass"


def test_emitted_metrics_match_benchmark_json(tmp_path):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    spans = tmp_path / "spans.json"
    run, metrics, units, _ = bench.traced_run(SMALL, 5, str(tmp_path), str(spans))
    assert run.gate.failed == 0
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert units == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["trace.overhead_s"] == metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    rows = json.loads(spans.read_text())["spans"]
    assert len(rows) == sum(metrics[f"{name}.calls"] for name in tracing.timed_span_names())
    # rows are in order of entry: an enclosing span starts first and ends last
    for name, start, end, parent in rows:
        assert start <= end
        if parent >= 0:
            assert rows[parent][1] <= start and end <= rows[parent][2]
    assert bench.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    run, metrics, units, notes = bench.timed_run(SMALL, 5, 5, str(tmp_path))
    assert units == bench.END_TO_END_UNITS and list(metrics) == list(units)
    assert all(v > 0 for v in metrics.values())
    # at least one pass: one build and one verify, both passing the gate
    assert run.gate.failed == 0 and run.gate.attempted >= 2
    assert any(line.startswith("host_probe_s") for line in notes)


def test_host_clock_scales_by_the_probes_around_a_step(monkeypatch):
    probes = iter([0.02, 0.02, 0.02, 0.04, 0.04, 0.04])
    monkeypatch.setattr(bench, "host_probe", lambda: next(probes))
    clock = bench.HostClock()
    result, wall, scaled = clock.time(lambda: "done")
    assert result == "done" and clock.probes == [0.02, 0.04]
    # a host on which the probe took 0.03 s on average is 3x the reference's pace
    assert scaled == pytest.approx(wall * bench.PROBE_REF_S / 0.03)
