"""Byte-identity of `build` maps, `verify` reports and other CLI output.

tests/data/golden_sha256.json holds the sha256 of the map that
`build -n N --seed S --field F` writes and of the report that
`verify -i <map> --level L` writes from it.  tests/data/output_sha256.json
holds the exit code and the sha256 of the flats file that `generate` writes
(empty when it fails) and of the stdout of `transversal` and `demo`.
tests/data/flats_scan_sha256.json holds one sha256 over the flats of a scan
of 690 seeds, so a genericity certificate that accepts a different attempt
at any of them shows here.  Any
change to the construction, the checks or the serialisation that alters a
byte fails here; a change that alters them on purpose must say so and
refresh the file.
"""

import hashlib
import json
import pathlib

import pytest

from veneroni import cli
from veneroni.projgeo import random_general_flats

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_sha256.json").read_text())
OUTPUTS = json.loads((DATA / "output_sha256.json").read_text())
SCAN = json.loads((DATA / "flats_scan_sha256.json").read_text())


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "case", GOLDEN, ids=lambda c: f"n{c['n']}-s{c['seed']}-{c['field']}-{c['level']}"
)
def test_build_and_verify_bytes_match_the_recorded_digests(tmp_path, case, capsys):
    map_path, report_path = tmp_path / "map.json", tmp_path / "report.json"
    argv = ["-n", str(case["n"]), "--seed", str(case["seed"]), "--field", case["field"]]
    assert cli.main(["build", *argv, "-o", str(map_path)]) == 0
    assert _sha256(map_path) == case["map_sha256"]
    verify = ["verify", "-i", str(map_path), "--level", case["level"]]
    assert cli.main([*verify, "-o", str(report_path)]) == 0
    capsys.readouterr()
    assert _sha256(report_path) == case["report_sha256"]


@pytest.mark.parametrize("case", OUTPUTS, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_bytes_match_the_recorded_digests(tmp_path, case, capsys):
    argv = case["argv"]
    path = tmp_path / "flats.json"
    if argv[0] == "generate":
        rc = cli.main([*argv, "-o", str(path)])
        data = path.read_bytes() if path.exists() else b""
    else:
        rc = cli.main(argv)
        data = capsys.readouterr().out.encode()
    assert rc == case["rc"]
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


def test_generated_flats_over_the_seed_scan_match_the_recorded_digest():
    digest, retried = hashlib.sha256(), 0
    for case in SCAN["scan"]:
        ctx = cli.parse_field(case["field"])
        for seed in range(case["seeds"]):
            inst = random_general_flats(case["n"], seed, ctx)
            retried += inst.retries > 0
            record = json.dumps(inst.to_dict(SCAN["version"]), sort_keys=True)
            digest.update(record.encode() + b"\n")
    assert (digest.hexdigest(), retried) == (SCAN["sha256"], SCAN["retried"])
