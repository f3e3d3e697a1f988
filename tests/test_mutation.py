"""Mutation sweep: corrupt each field of a map file in turn.

Every corruption must either be refused on load (exit 2) or fail `verify`
by name (exit 1): the failing checks are pinned per field, and no failing
witness may be a crash (an `error` key).  Two kinds of corruption are
applied to each field: a changed coefficient, and a term of the wrong
degree (for the scalar rows b, dual_flats and flats, one coefficient too
many, i.e. a term in a variable the ring does not have).  A field with its
last entry dropped, or with a JSON number where a coefficient string
belongs, must be refused on load.
"""

import json
from fractions import Fraction

import pytest

from veneroni import cli

MAPS = {3: (5, "qq", "full"), 4: (11, "fp:2147483647", "fast")}
FIELDS = ("Q", "components", "g", "b", "inverse_components", "dual_flats", "flats")
POLY_FIELDS = ("Q", "components", "g", "inverse_components")

FORWARD = ["determinantal", "basis-property", "b-matrix", "composition", "round-trip"]
# a stored Q_k other than det(M_k), or a component other than x_i·Q_i,
# fails `basis-property` and `base-locus` before either cites a theorem
Q_FAILS = [
    "determinantal", "basis-property", "b-matrix", "composition", "base-locus",
    "transversal-sample",
]

# (field, kind) -> exit code and the failing checks, in report order; a
# missing entry or a mistyped coefficient is refused on load whatever the
# field
EXPECTED = {
    ("Q", "coefficient"): (1, Q_FAILS),
    ("Q", "degree"): (1, Q_FAILS),
    ("components", "coefficient"): (1, [*FORWARD, "base-locus"]),
    ("components", "degree"): (1, [*FORWARD, "base-locus"]),
    ("g", "coefficient"): (1, ["b-matrix"]),
    ("g", "degree"): (1, ["b-matrix"]),
    ("b", "coefficient"): (1, ["b-matrix", "composition", "dual-dimension"]),
    ("b", "degree"): (2, []),
    ("inverse_components", "coefficient"): (1, ["composition", "round-trip"]),
    ("inverse_components", "degree"): (1, ["composition", "round-trip"]),
    ("dual_flats", "coefficient"): (1, ["dual-dimension"]),
    ("dual_flats", "degree"): (1, ["dual-dimension"]),
    ("flats", "coefficient"): (1, Q_FAILS),
    ("flats", "degree"): (2, []),
}
# at n = 4 a changed Q_1 or flat 1 leaves a stored Q_1 other than det(M_1),
# so `multiplicity` cannot cite its lemma and fails closed
MULTIPLICITY = {("Q", "coefficient"), ("Q", "degree"), ("flats", "coefficient")}


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    out = {}
    for n, (seed, field, _) in MAPS.items():
        path = tmp_path_factory.mktemp("mutation") / f"map{n}.json"
        argv = ["build", "-n", str(n), "--seed", str(seed), "--field", field]
        assert cli.main([*argv, "-o", str(path)]) == 0
        out[n] = json.loads(path.read_text())
    return out


def _bump(text):
    value = Fraction(text) + 1
    return str(value if value else value + 1)


def corrupt(d, field, kind, n):
    """Corrupt `field` of the map dict d in place: entry 1, or the last."""
    if kind == "missing":
        del d[field][-1]
    elif field in POLY_FIELDS:
        poly = d[field][1]
        if kind == "coefficient":
            poly["terms"][0]["c"] = _bump(poly["terms"][0]["c"])
        elif kind == "type":
            poly["terms"][0]["c"] = float(Fraction(poly["terms"][0]["c"]))
        else:  # x_0 ... x_n, degree n+1, lies on every flat
            poly["terms"].append({"c": "1", "e": [1] * (n + 1)})
            poly["degree"] = n + 1
    else:
        row = d["b"][1] if field == "b" else d[field][1]["f2"]
        if kind == "coefficient":
            row[0] = _bump(row[0])
        elif kind == "type":
            row[0] = float(Fraction(row[0]))
        else:
            row.append("1")


@pytest.mark.parametrize("kind", ["coefficient", "degree", "missing", "type"])
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", sorted(MAPS))
def test_corrupted_map_fails_by_name(maps, tmp_path, capsys, n, field, kind):
    d = json.loads(json.dumps(maps[n]))
    corrupt(d, field, kind, n)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc = cli.main(["verify", "-i", str(bad), "--level", MAPS[n][2], "--json"])
    out = capsys.readouterr().out
    code, failing = EXPECTED.get((field, kind), (2, []))
    if n == 4 and (field, kind) in MULTIPLICITY:
        failing = [*failing, "multiplicity"]
    assert rc == code
    if code == 2:
        assert out == ""
        return
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == failing
    assert not [c["name"] for c in failed if "error" in c["witness"]]
