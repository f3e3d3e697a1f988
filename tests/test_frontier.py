"""tools/frontier.py times a row against the package under test."""

import importlib.util
import json
from pathlib import Path

from veneroni import checks, cli, projgeo, scalar

TOOL = Path(__file__).resolve().parents[1] / "tools" / "frontier.py"


def load_frontier():
    spec = importlib.util.spec_from_file_location("frontier", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_frontier_row_is_the_median_of_its_runs(tmp_path):
    frontier = load_frontier()
    row = frontier.frontier_row(5, "fp", (checks, cli, projgeo, scalar))
    assert (row["n"], row["field"], row["ok"]) == (5, "fp", True)
    built = tmp_path / "map.json"
    argv = ["build", "-n", "5", "--seed", "5", "--field", "fp:2147483647"]
    assert cli.main([*argv, "-o", str(built)]) == 0
    assert row["map_bytes"] == built.stat().st_size
    assert list(row["checks"]) == list(checks.CHECK_ORDER)
    assert row["summary"] == "12 passed, 0 failed, 1 skipped"
    steps = ("build", "verify", "write", "cli_generate", "cli_build", "cli_load", "cli_verify")
    for step in steps:
        for key in (f"{step}_s", f"{step}_cpu_s"):
            low, high = row[f"{key}_range"]
            assert 0 <= low <= row[key] <= high


def test_a_frontier_record_carries_the_host_probe(tmp_path, monkeypatch):
    frontier = load_frontier()
    monkeypatch.setattr(frontier, "SIZES", (3,))
    monkeypatch.setattr(frontier, "FIELDS", {"fp": (1 << 31) - 1})
    monkeypatch.chdir(tmp_path)
    src = Path(checks.__file__).resolve().parents[1]
    assert frontier.main(["--src", str(src), "--label", "probe"]) == 0
    record = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert list(record)[-2:] == ["probe_s", "rows"]
    assert set(record["probe_s"]) == {"before", "after"}
    assert all(s > 0 for s in record["probe_s"].values())
