"""Mutation sweep: corrupt each field of a map file in turn.

Every corruption must either be refused on load (exit 2) or fail `verify`
by name (exit 1): the failing checks are pinned per field, and no failing
witness may be a crash (an `error` key).  Two kinds of corruption are
applied to each field: a changed coefficient, and a term of the wrong
degree (for the scalar rows b and flats, one coefficient too
many, i.e. a term in a variable the ring does not have).  A field with its
last entry dropped, or with a JSON number where a coefficient string
belongs, must be refused on load.

Older map files also stored the rows of b as the forms `g` and the dual
flats `dual_flats`.  The loader reads neither, so the same corruptions of
those keys must leave the report bytes as they are.
"""

import json
from fractions import Fraction

import pytest

from veneroni import checks, cli
from veneroni.mpoly import Poly
from veneroni.projgeo import random_general_flats
from veneroni.scalar import FieldCtx

from oracles import roundtrip_sample, with_poly_dicts

MAPS = {3: (5, "qq", "full"), 4: (11, "fp:2147483647", "fast")}
FIELDS = ("Q", "components", "b", "inverse_components", "flats")
POLY_FIELDS = ("Q", "components", "inverse_components")
LEGACY = ("g", "dual_flats")
KINDS = ("coefficient", "degree", "missing", "type")

FORWARD = ["determinantal", "basis-property", "b-matrix", "composition", "round-trip"]
# a stored Q_k other than det(M_k), or a component other than x_i·Q_i,
# fails `basis-property` and `base-locus` before either cites a theorem;
# `round-trip` cites `composition`, so it fails wherever that does
Q_FAILS = [
    "determinantal", "basis-property", "b-matrix", "composition", "round-trip",
    "base-locus", "transversal-sample",
]

# (field, kind) -> exit code and the failing checks, in report order; a
# missing entry or a mistyped coefficient is refused on load whatever the
# field
EXPECTED = {
    ("Q", "coefficient"): (1, Q_FAILS),
    ("Q", "degree"): (1, Q_FAILS),
    ("components", "coefficient"): (1, [*FORWARD, "base-locus"]),
    ("components", "degree"): (1, [*FORWARD, "base-locus"]),
    # the changed b[1][0] keeps row 1 canonical, and `dual-dimension` reads
    # only the system through b's rows, which keeps dimension n+1
    ("b", "coefficient"): (1, ["b-matrix", "composition", "round-trip"]),
    ("b", "degree"): (2, []),
    ("inverse_components", "coefficient"): (1, ["composition", "round-trip"]),
    ("inverse_components", "degree"): (1, ["composition", "round-trip"]),
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


@pytest.fixture(scope="module")
def legacy(maps, tmp_path_factory):
    """Each map as an older file stores it, with g and dual_flats, and the
    report bytes of the map without them."""
    out = {}
    for n, d in maps.items():
        tmp = tmp_path_factory.mktemp("legacy")
        _, _, inv = cli.map_from_dict(d)
        old = {
            **d,
            "g": [Poly.from_linear(row) for row in inv.b],
            "dual_flats": [{"j": i, "f2": row} for i, row in enumerate(d["b"])],
        }
        cli.dump_json(old, str(tmp / "old.json"))
        plain = tmp / "plain.json"
        plain.write_text(json.dumps(d))
        report = tmp / "report.json"
        argv = ["verify", "-i", str(plain), "--level", MAPS[n][2], "-o", str(report)]
        assert cli.main(argv) == 0
        out[n] = (json.loads((tmp / "old.json").read_text()), report.read_bytes())
    return out


def _bump(text):
    value = Fraction(text) + 1
    return str(value if value else value + 1)


def corrupt(d, field, kind, n):
    """Corrupt `field` of the map dict d in place: entry 1, or the last."""
    if kind == "missing":
        del d[field][-1]
    elif field in (*POLY_FIELDS, "g"):
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


@pytest.mark.parametrize("kind", KINDS)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", LEGACY)
@pytest.mark.parametrize("n", sorted(MAPS))
def test_corrupted_legacy_key_is_ignored(legacy, tmp_path, n, field, kind):
    # g and dual_flats were copies of b's rows; no check reads them now,
    # so even a malformed copy is neither refused nor failed
    old, expected = legacy[n]
    d = json.loads(json.dumps(old))
    corrupt(d, field, kind, n)
    assert d[field] != old[field]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    report = tmp_path / "report.json"
    argv = ["verify", "-i", str(bad), "--level", MAPS[n][2], "-o", str(report)]
    assert cli.main(argv) == 0
    assert report.read_bytes() == expected


@pytest.mark.parametrize(
    "field", [FieldCtx.rationals(), FieldCtx.prime(2147483647)], ids=["qq", "fp"]
)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_passing_round_trip_row_returns_every_sampled_point(n, field):
    # `round-trip` cites w(v(p)) = p from the composition proof; the oracle
    # maps sampled `ProjPoint`s there and back.  On a valid map the oracle
    # passes, and on every corruption the loader accepts (non-homogeneous
    # components among them, and an inverse with no nonzero component) a
    # passing row implies a passing oracle
    inst = random_general_flats(n, 5, field)
    d = with_poly_dicts(cli.map_to_dict(inst, *checks.build_all(inst)))
    _, vmap, inv = cli.map_from_dict(d)
    assert roundtrip_sample(vmap, inv).status == "pass"
    zero = {"degree": -1, "terms": []}
    variants = [d, {**d, "inverse_components": [zero] * (n + 1)}]
    for name in FIELDS:
        for kind in ("coefficient", "degree"):
            bad = json.loads(json.dumps(d))
            corrupt(bad, name, kind, n)
            variants.append(bad)
    rows = []
    for variant in variants:
        try:
            inst, vmap, inv = cli.map_from_dict(variant)
        except ValueError:
            continue  # refused on load: no report runs
        report = checks.run_suite(inst, vmap, inv, level="fast")
        row = next(c for c in report.checks if c.name == "round-trip")
        rows.append(row.status)
        if row.status == "pass":
            assert roundtrip_sample(vmap, inv).status == "pass"
    # b and flats of a wrong degree are refused; every corruption fails
    assert rows == ["pass"] + ["fail"] * 9
