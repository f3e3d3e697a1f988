import contextlib
import importlib.metadata
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import veneroni
from veneroni import checks, cli, projgeo
from veneroni.checks import CHECK_ORDER
from veneroni.mpoly import Poly
from veneroni.projgeo import FlatsInstance
from veneroni.scalar import Fp, Rational

from oracles import with_poly_dicts

M61 = 2305843009213693951


@pytest.fixture(scope="module")
def map3(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "map3.json"
    assert cli.main(["build", "-n", "3", "--seed", "5", "-o", str(path)]) == 0
    return path


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---- the artifact writer --------------------------------------------------


# quotes, backslashes, control characters and non-ASCII text, astral too
SPECIAL = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001f600')
TEXT = st.text(SPECIAL | st.characters(), max_size=6)
INTS = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)


def reference_text(obj):
    return json.dumps(obj) + "\n"


def written_texts(obj, path):
    cli.dump_json(obj, path)
    with open(path, encoding="utf-8") as fh:
        in_file = fh.read()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.dump_json(obj, None)
    return in_file, out.getvalue()


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "out.json"


@pytest.mark.parametrize(
    "obj", [Fraction(1, 2), [1, {"c": Fraction(1, 3)}], {"s": {1, 2}}, {(1, 2): 0}]
)
def test_dump_json_refuses_what_json_dump_refuses(json_path, obj):
    with pytest.raises(TypeError) as expected:
        reference_text(obj)
    with pytest.raises(TypeError) as got:
        cli.dump_json(obj, json_path)
    assert str(got.value) == str(expected.value)


@st.composite
def polys(draw):
    # 0-7 variables; rationals with signs and denominators, or residues of
    # a small or a large prime; the zero polynomial and constants included
    nvars = draw(st.integers(0, 7))
    p = draw(st.sampled_from([None, 7, M61]))
    if p is None:
        nums = st.integers(-(10**12), 10**12).filter(bool)
        coeffs = st.builds(Rational, nums, st.integers(1, 10**9))
    else:
        coeffs = st.integers(1, p - 1).map(lambda r: Fp(r, p))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps | st.just((0,) * nvars), coeffs, max_size=6))
    return Poly(nvars, terms)


def poly_trees(depth):
    """A Poly leaf, or dicts and lists nesting Poly leaves (and some other
    JSON values) up to `depth` deep."""
    if depth == 0:
        return polys()
    kids = poly_trees(depth - 1) | INTS | TEXT
    return (
        polys()
        | st.lists(kids, max_size=3)
        | st.lists(polys(), min_size=1, max_size=3).map(tuple)
        | st.dictionaries(TEXT, kids, max_size=3)
    )


@settings(max_examples=200, deadline=None)
@given(tree=poly_trees(3))
@example(tree=Poly(3))
@example(tree=Poly(1, {(0,): Rational(-7, 3)}))
@example(tree={
    "Q": [Poly(2, {(2, 0): Rational(1, 2), (0, 1): Rational(-3)}), Poly(2)],
    "g": {"p": Poly(1, {(1,): Fp(5, 7)})},
    "n": 2,
})
def test_dump_json_writes_each_poly_as_its_reference_dict(json_path, tree):
    assert written_texts(tree, json_path) == (reference_text(with_poly_dicts(tree)),) * 2


@pytest.mark.parametrize("field", ["qq", f"fp:{M61}"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_built_map_is_the_reference_dump_of_its_tree(tmp_path, n, field):
    path = tmp_path / "map.json"
    assert cli.main(["build", "-n", str(n), "--seed", "5", "--field", field, "-o", str(path)]) == 0
    inst = projgeo.random_general_flats(n, 5, cli.parse_field(field))
    tree = with_poly_dicts(cli.map_to_dict(inst, *checks.build_all(inst)))
    assert path.read_bytes() == reference_text(tree).encode("ascii")


def test_a_map_of_fractional_flats_is_the_reference_dump_of_its_tree(tmp_path):
    coeffs = [
        ("0", "1/2", "-3", "2/3"),
        ("5/7", "0", "1", "-1/4"),
        ("2", "-3/5", "0", "1"),
        ("1/3", "4", "-2", "0"),
    ]
    flats = [{"j": j, "f2": list(a)} for j, a in enumerate(coeffs)]
    d = {"n": 3, "seed": 0, "field": {"kind": "qq"}, "flats": flats}
    source, path = tmp_path / "flats.json", tmp_path / "map.json"
    source.write_text(json.dumps(d))
    assert cli.main(["build", "-i", str(source), "-o", str(path)]) == 0
    inst = FlatsInstance.from_dict(d)
    tree = with_poly_dicts(cli.map_to_dict(inst, *checks.build_all(inst)))
    assert any("/" in t["c"] for q in tree["Q"] for t in q["terms"])
    assert path.read_bytes() == reference_text(tree).encode("ascii")


TRANSVERSAL_QUERIES = [
    ["--point", "1,2,3,4,5", "--omit", "3", "4"],
    ["--point", "1,-578/297,1,28/33,31/33", "--omit", "0", "1"],
    ["--point", "1,2,3,4,5"],
]


def test_every_artifact_is_one_line_the_json_dumps_of_its_tree(tmp_path, capsys):
    flats, built, report = (tmp_path / name for name in ("flats.json", "map.json", "r.json"))
    assert run(capsys, ["generate", "-n", "4", "--seed", "1", "-o", str(flats)])[0] == 0
    assert run(capsys, ["build", "-i", str(flats), "-o", str(built)])[0] == 0
    assert run(capsys, ["verify", "-i", str(built), "--level", "fast", "-o", str(report)])[0] == 0
    texts = [path.read_text(encoding="ascii") for path in (flats, built, report)]
    texts.append(run(capsys, ["verify", "-i", str(built), "--level", "fast", "--json"])[1])
    for query in TRANSVERSAL_QUERIES:
        texts.append(run(capsys, ["transversal", "-i", str(built), *query, "--json"])[1])
    kinds = {json.loads(text)["kind"] for text in texts[4:]}
    assert kinds == {"unique", "family", "none"}
    for text in texts:
        assert text.count("\n") == 1
        assert text == reference_text(json.loads(text))


@pytest.mark.parametrize("kind", ["flats", "map"])
def test_an_indented_file_verifies_to_the_report_of_its_one_line_twin(tmp_path, kind):
    # artifacts were once written as `json.dump(tree, fh, indent=2)`
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    command = "generate" if kind == "flats" else "build"
    assert cli.main([command, "-n", "3", "--seed", "5", "-o", str(compact)]) == 0
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump(json.loads(compact.read_text()), fh, indent=2)
        fh.write("\n")
    assert len(indented.read_text().splitlines()) > 1
    reports = []
    for path in (compact, indented):
        out = tmp_path / f"{path.stem}-report.json"
        assert cli.main(["verify", "-i", str(path), "-o", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# ---- generate -------------------------------------------------------------


def test_generate_stdout_shape(capsys):
    rc, out, err = run(capsys, ["generate", "-n", "2", "--seed", "1"])
    assert rc == 0
    d = json.loads(out)
    assert d["n"] == 2 and d["seed"] == 1
    assert d["field"] == {"kind": "qq"}
    assert len(d["flats"]) == 3
    assert err.startswith("retries:")


def test_generate_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["generate", "-n", "3", "--seed", "9", "-o", str(a)]) == 0
    assert cli.main(["generate", "-n", "3", "--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_range_enforced(capsys):
    rc, _, err = run(capsys, ["generate", "-n", "8"])
    assert rc == 2
    assert "must be in 2..7" in err
    assert run(capsys, ["generate", "-n", "1"])[0] == 2


def test_n7_generates_builds_and_verifies_fast(tmp_path, capsys):
    # the top of the generate range: every check passes but the demos,
    # which level fast skips
    flats, built, report = (tmp_path / name for name in ("flats.json", "map.json", "r.json"))
    field = ["--field", "fp:2147483647"]
    assert run(capsys, ["generate", "-n", "7", "--seed", "5", *field, "-o", str(flats)])[0] == 0
    assert run(capsys, ["build", "-i", str(flats), "-o", str(built)])[0] == 0
    assert run(capsys, ["verify", "-i", str(built), "--level", "fast", "-o", str(report)])[0] == 0
    statuses = {c["name"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    assert statuses == {name: "skip" if name == "demos" else "pass" for name in CHECK_ORDER}


def test_generate_fp_field(capsys):
    rc, out, _ = run(capsys, ["generate", "-n", "2", "--seed", "1", "--field", f"fp:{M61}"])
    assert rc == 0
    assert json.loads(out)["field"] == {"kind": "fp", "p": M61}


@pytest.mark.parametrize(
    "command",
    [["generate"], ["build"], ["verify"], ["transversal", "--point", "1,2,3,4,5"], ["demo"]],
    ids=lambda command: command[0],
)
def test_a_failed_instance_search_ends_every_command_alike(capsys, command):
    # no draw of n = 4 flats with coefficients ±1 at seed 0 is general
    rc, out, err = run(capsys, [*command, "-n", "4", "--bound", "1"])
    assert (rc, out) == (1, "")
    assert err == "error: no generic instance after 32 attempts (n=4, seed=0)\n"


def test_generate_bad_field(capsys):
    rc, _, err = run(capsys, ["generate", "-n", "2", "--field", "gf:9"])
    assert rc == 2
    assert "unknown field" in err


# ---- build ----------------------------------------------------------------


def test_build_map_file_contents(map3):
    d = json.loads(map3.read_text())
    assert list(d) == [
        "n", "seed", "field", "bound", "version", "retries", "flats",
        "Q", "components", "b", "inverse_components",
    ]
    assert len(d["b"]) == 4 and d["b"][0][0] == "0"


def test_build_deterministic(tmp_path, map3):
    again = tmp_path / "again.json"
    assert cli.main(["build", "-n", "3", "--seed", "5", "-o", str(again)]) == 0
    assert again.read_bytes() == map3.read_bytes()


def test_build_from_flats_file(tmp_path, capsys):
    flats = tmp_path / "flats.json"
    assert cli.main(["generate", "-n", "2", "--seed", "4", "-o", str(flats)]) == 0
    rc, out, _ = run(capsys, ["build", "-i", str(flats)])
    assert rc == 0
    assert "inverse_components" in json.loads(out)


# ---- verify ---------------------------------------------------------------


def test_verify_green_lines(capsys):
    rc, out, _ = run(capsys, ["verify", "-n", "2", "--seed", "1"])
    assert rc == 0
    lines = out.strip().splitlines()
    names = [ln.split(":")[0] for ln in lines[:-1]]
    assert names == list(CHECK_ORDER)
    assert lines[-1] == "10 passed, 0 failed, 3 skipped"
    assert "transversal-sample: skip (three general points" in out


def test_verify_json_report(capsys, map3):
    rc, out, _ = run(capsys, ["verify", "-i", str(map3), "--json"])
    assert rc == 0
    report = json.loads(out)
    assert report["summary"].startswith("12 passed")
    assert [c["name"] for c in report["checks"]] == list(CHECK_ORDER)
    assert all(c["ms"] is None for c in report["checks"])


def test_an_abbreviated_seed_reseeds_the_verify_of_a_map_file(tmp_path, capsys):
    # argparse reads --se 7 and --see=7 as --seed 7; with no seed the map
    # file's own seed 1 draws the n=4 demo's point
    path = tmp_path / "map4.json"
    assert cli.main(["build", "-n", "4", "--seed", "1", "-o", str(path)]) == 0
    outs = []
    for flags in (["--seed", "7"], ["--se", "7"], ["--see=7"], []):
        rc, out, _ = run(capsys, ["verify", "-i", str(path), "--json", *flags])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2] != outs[3]


def test_verify_report_file_byte_identical(tmp_path, map3):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["verify", "-i", str(map3), "-o", str(r1)]) == 0
    assert cli.main(["verify", "-i", str(map3), "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_timings_break_byte_identity_only_when_asked(tmp_path, map3):
    r = tmp_path / "r.json"
    assert cli.main(["verify", "-i", str(map3), "-o", str(r), "--timings"]) == 0
    report = json.loads(r.read_text())
    assert all(c["ms"] is not None for c in report["checks"])


def test_verify_timings_print_each_checks_ms_in_text_mode(capsys, map3):
    rc, plain, _ = run(capsys, ["verify", "-i", str(map3)])
    assert rc == 0
    rc, timed, _ = run(capsys, ["verify", "-i", str(map3), "--timings"])
    assert rc == 0
    plain_lines, timed_lines = plain.splitlines(), timed.splitlines()
    assert len(timed_lines) == len(plain_lines) == len(CHECK_ORDER) + 1
    # the summary line carries no time, and without the flag no line does
    assert timed_lines[-1] == plain_lines[-1]
    assert " ms]" not in plain
    for old, new in zip(plain_lines[:-1], timed_lines[:-1]):
        head, ms = re.fullmatch(r"(.*) \[(\d+\.\d{3}) ms\]", new).groups()
        assert head == old
        assert float(ms) >= 0


def test_verify_mutated_b_matrix(tmp_path, map3, capsys):
    d = json.loads(map3.read_text())
    d["b"][0][1] = "7/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc, out, _ = run(capsys, ["verify", "-i", str(bad)])
    assert rc == 1
    assert "b-matrix: fail" in out
    assert "composition: fail" in out


def test_verify_mutated_component(tmp_path, map3, capsys):
    d = json.loads(map3.read_text())
    # overwrite one monomial coefficient of one forward component
    d["components"][0]["terms"][0]["c"] = "17"
    bad = tmp_path / "badc.json"
    bad.write_text(json.dumps(d))
    rc, out, _ = run(capsys, ["verify", "-i", str(bad)])
    assert rc == 1
    assert "determinantal: fail" in out


@pytest.mark.parametrize(
    "n, seed, field, level", [(3, 5, "qq", "full"), (4, 11, "fp:2147483647", "fast")]
)
def test_a_map_carrying_g_and_dual_flats_verifies_as_without_them(
    tmp_path, n, seed, field, level
):
    # maps once stored the rows of b twice more, as the forms g and the
    # dual flats; the loader reads neither, as it ignores any unknown key
    plain = tmp_path / "plain.json"
    argv = ["build", "-n", str(n), "--seed", str(seed), "--field", field]
    assert cli.main([*argv, "-o", str(plain)]) == 0
    d = json.loads(plain.read_text())
    _, _, inv = cli.map_from_dict(d)
    legacy = {}
    for key, value in d.items():
        legacy[key] = value
        if key == "b":
            legacy["g"] = [Poly.from_linear(row) for row in inv.b]
    legacy["dual_flats"] = [{"j": i, "f2": row} for i, row in enumerate(d["b"])]
    old = tmp_path / "legacy.json"
    cli.dump_json(legacy, str(old))
    reports = []
    for path in (plain, old):
        out = tmp_path / f"{path.stem}-report.json"
        assert cli.main(["verify", "-i", str(path), "--level", level, "-o", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_rejects_a_duplicated_term(map3, tmp_path, capsys):
    # a map file never holds an exponent twice; a copy of a Q term would add
    # up on load (here to 2c) instead of failing by name
    d = json.loads(map3.read_text())
    terms = d["Q"][0]["terms"]
    terms.append(dict(terms[0]))
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(d))
    rc, out, err = run(capsys, ["verify", "-i", str(bad)])
    assert rc == 2 and out == ""
    assert f"exponent {terms[0]['e']} appears in two terms" in err


def test_verify_corrupt_json(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text('{"n": 3, oops')
    rc, _, err = run(capsys, ["verify", "-i", str(bad)])
    assert rc == 2
    assert "invalid JSON at line 1 column" in err


MALFORMED = {
    "f2-number": lambda d: {**d, "flats": [{**d["flats"][0], "f2": 5}, *d["flats"][1:]]},
    "n-string": lambda d: {**d, "n": "3"},
    "field-string": lambda d: {**d, "field": "qq"},
    "top-level-list": lambda d: [d],
    "bound-string": lambda d: {**d, "bound": "x"},
    "seed-string": lambda d: {**d, "seed": "abc"},
    "seed-bool": lambda d: {**d, "seed": True},
    "retries-float": lambda d: {**d, "retries": 1.5},
    "j-bool": lambda d: {
        **d, "flats": [d["flats"][0], {**d["flats"][1], "j": True}, *d["flats"][2:]]
    },
}
# provenance the report would copy, and a flat index, are refused by name
# (true == 1, so an index of true would pass as flat 1); every other value
# of the wrong type is named as a malformed input file
PROVENANCE_ERRORS = {
    "bound-string": "bound must be an integer, got 'x'",
    "seed-string": "seed must be an integer, got 'abc'",
    "seed-bool": "seed must be an integer, got True",
    "retries-float": "retries must be an integer, got 1.5",
    "j-bool": "flat index j must be an integer, got True",
}


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_flats_file_is_refused(tmp_path, capsys, command, kind):
    # a value of the wrong JSON type is bad input (exit 2), not a crash
    good = tmp_path / "flats.json"
    assert cli.main(["generate", "-n", "3", "--seed", "5", "-o", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[kind](json.loads(good.read_text()))))
    rc, out, err = run(capsys, [command, "-i", str(bad)])
    assert rc == 2 and out == ""
    assert f"error: {PROVENANCE_ERRORS.get(kind, f'malformed input file {bad}:')}" in err


@pytest.mark.parametrize("j", [True, 1.0])
def test_a_map_whose_flat_index_is_no_json_integer_is_refused(map3, tmp_path, capsys, j):
    # the map's flats load as a flats file's do: an index equal to 1 that
    # is no integer must not verify as flat 1
    d = json.loads(map3.read_text())
    d["flats"][1]["j"] = j
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps(d))
    rc, out, err = run(capsys, ["verify", "-i", str(bad)])
    assert rc == 2 and out == ""
    assert f"error: flat index j must be an integer, got {j!r}" in err


@pytest.mark.parametrize("n, degree", [(3, "2"), (3, 2.0), (2, True)])
def test_a_degree_that_is_no_json_integer_is_refused(tmp_path, capsys, n, degree):
    # "2" was refused as though the terms' degree 2 differed from it, and
    # true passed as the degree 1 of Q_0 at n = 2
    path = tmp_path / "map.json"
    assert cli.main(["build", "-n", str(n), "--seed", "5", "-o", str(path)]) == 0
    d = json.loads(path.read_text())
    d["Q"][0]["degree"] = degree
    path.write_text(json.dumps(d))
    rc, out, err = run(capsys, ["verify", "-i", str(path)])
    assert rc == 2 and out == ""
    assert f"error: degree {degree!r} is not an integer" in err


def test_flats_file_below_p2_is_refused(tmp_path, capsys):
    # codimension-2 flats of P^1 are empty: the constructions need n >= 2
    path = tmp_path / "flats1.json"
    flats = [{"j": 0, "f2": ["0", "1"]}, {"j": 1, "f2": ["2", "0"]}]
    path.write_text(json.dumps({"n": 1, "seed": 0, "field": {"kind": "qq"}, "flats": flats}))
    rc, out, err = run(capsys, ["build", "-i", str(path)])
    assert rc == 2 and out == ""
    assert "need n >= 2" in err


@pytest.mark.parametrize("n", [3, 4, 5])
def test_only_the_zero_count_tests_a_meeting(tmp_path, capsys, monkeypatch, n):
    # the cone hyperplanes prove that a computed transversal meets its
    # flats, so generate tests no meeting, and neither do the n = 3 family
    # lines or the anchor lines of the n = 4 demo; verify reads where each
    # of its pair lines (n >= 4, one per pair of flats) meets the n+1
    # flats, for the count of the zeros of each Q_k on it, and nothing else
    def forbidden(*args):
        raise AssertionError("meeting_param called")

    lines, meeting = [], checks.meeting_param

    def counted(line, flat):
        lines.append(line)
        return meeting(line, flat)

    for module in (projgeo, cli):
        monkeypatch.setattr(module, "meeting_param", forbidden)
    monkeypatch.setattr(checks, "meeting_param", counted)
    flats = tmp_path / "flats.json"
    assert run(capsys, ["generate", "-n", str(n), "--seed", "3", "-o", str(flats)])[0] == 0
    assert lines == []
    rc, out, _ = run(capsys, ["verify", "-i", str(flats), "--level", "full"])
    assert rc == 0, out
    pair_lines = 0 if n == 3 else (n + 1) * n // 2
    assert len(lines) == (n + 1) * pair_lines and len(set(lines)) == pair_lines


def test_non_general_n3_flats_fail_verify_by_name(tmp_path, capsys):
    # canonical flats whose meeting form is zero: every check that reads
    # the n = 3 family fails with its degree, and none crashes
    coeffs = [(0, 2, 2, 1), (1, 0, -2, -1), (-2, -1, 0, 2), (-1, 2, 2, 0)]
    flats = [{"j": j, "f2": [str(c) for c in a]} for j, a in enumerate(coeffs)]
    path = tmp_path / "flats3.json"
    path.write_text(json.dumps({"n": 3, "seed": 0, "field": {"kind": "qq"}, "flats": flats}))
    rc, out, _ = run(capsys, ["verify", "-i", str(path), "--level", "full", "--json"])
    assert rc == 1
    failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"] if c["status"] == "fail"}
    assert not [name for name, witness in failed.items() if "error" in witness]
    for name in ("base-locus", "transversal-sample", "demos"):
        assert failed[name] == {"reason": "meeting form degree -1"}


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, ["verify", "-i", "/nonexistent/x.json"])
    assert rc == 2
    assert "error:" in err


def test_verify_fast_level(capsys):
    rc, out, _ = run(capsys, ["verify", "-n", "3", "--seed", "5", "--level", "fast"])
    assert rc == 0
    assert "demos: skip (level fast" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "-n", "3", "-i", "flats.json"],
        ["transversal", "-n", "3", "--point", "1,1,1,1", "-o", "t.json"],
    ],
    ids=" ".join,
)
def test_a_command_takes_no_file_it_would_not_read(tmp_path, capsys, monkeypatch, argv):
    # generate reads no file, and transversal writes none
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


FIXED_BY_INPUT = [["-n", "5"], ["--field", "fp:2147483647"], ["--bound", "1"], ["--seed", "99"]]


@pytest.mark.parametrize(
    "command, flags",
    [
        (command, flags)
        for command in ("build", "verify", "transversal")
        for flags in FIXED_BY_INPUT
        if not (command == "verify" and flags[0] == "--seed")
    ]
    + [("build", [flag for flags in FIXED_BY_INPUT for flag in flags])],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_an_input_file_refuses_the_flags_it_would_override(capsys, map3, command, flags):
    # the file fixes n, the field, the bound and the seed of the instance;
    # verify --seed reseeds only the report's samples
    point = ["--point", "1,1,1,1"] if command == "transversal" else []
    rc, out, err = run(capsys, [command, "-i", str(map3), *flags, *point])
    assert (rc, out) == (2, "")
    named = ", ".join(flags[::2])
    assert err == f"error: -i FILE fixes the instance; {named} would be ignored\n"


def test_verify_force_symbolic_is_gone(capsys):
    # composition is proved at every n, so there is nothing left to force
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "-n", "2", "--force-symbolic"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force-symbolic" in capsys.readouterr().err


def test_verify_fp_field(capsys):
    rc, out, _ = run(
        capsys, ["verify", "-n", "3", "--seed", "2", "--field", f"fp:{M61}"]
    )
    assert rc == 0
    assert "composition: pass" in out


def test_verify_has_no_sample_count(capsys, map3):
    # round-trip is cited from the composition proof, so there is no
    # sample count to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "-i", str(map3), "-k", "20"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -k 20" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_verify_refuses_a_sample_count_below_one(capsys, map3, k):
    # a round-trip of no samples tests nothing; with no sample count left
    # at all, verify refuses it before any check runs
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "-i", str(map3), "-k", k])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: -k {k}" in err


def test_verify_needs_input_or_n(capsys):
    rc, _, err = run(capsys, ["verify"])
    assert rc == 2
    assert "need -i FILE or -n N" in err


# ---- transversal ----------------------------------------------------------


def unit_point(map3):
    d = json.loads(map3.read_text())
    return ",".join("1" for _ in range(d["n"] + 1))


def test_transversal_none(map3, capsys):
    rc, out, _ = run(capsys, ["transversal", "-i", str(map3), "--point", "1,1,1,1"])
    assert rc == 0
    assert out.strip() == "no transversal"


def test_transversal_unique(map3, capsys):
    rc, out, _ = run(
        capsys,
        ["transversal", "-i", str(map3), "--point", "1,1,1,1", "--omit", "0", "1"],
    )
    assert rc == 0
    assert out.startswith("unique transversal")
    assert "meets flat 2 at parameter" in out
    assert "meets flat 3 at parameter" in out


def test_transversal_unique_json(map3, capsys):
    rc, out, _ = run(
        capsys,
        [
            "transversal", "-i", str(map3),
            "--point", "1,1,1,1", "--omit", "0", "1", "--json",
        ],
    )
    assert rc == 0
    d = json.loads(out)
    assert d["kind"] == "unique"
    assert d["queried"] == [2, 3]
    assert len(d["line"]) == 2
    assert all(m["param"] is not None for m in d["meetings"])


def test_transversal_prints_contained_for_a_flat_holding_the_line(capsys):
    # at this seed flat 3 holds the line through its point (0:1:0:0:-2)
    argv = ["transversal", "-n", "4", "--seed", "293", "--point", "0,1,0,0,-2"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "  meets flat 3 at parameter contained\n" in out
    rc, out, _ = run(capsys, [*argv, "--json"])
    assert rc == 0
    assert json.loads(out)["meetings"][3] == {"j": 3, "param": "contained"}


def test_transversal_family(map3, capsys):
    rc, out, _ = run(
        capsys,
        ["transversal", "-i", str(map3), "--point", "1,1,1,1", "--omit", "0", "1", "2"],
    )
    assert rc == 0
    # the q-locus of lines through p meeting one line of P^3 is a plane
    assert out.startswith("family of transversals, dimension 2")


def test_transversal_bad_point(map3, capsys):
    rc, _, err = run(
        capsys, ["transversal", "-i", str(map3), "--point", "1,x,1,1"]
    )
    assert rc == 2 and "bad point" in err
    rc, _, err = run(capsys, ["transversal", "-i", str(map3), "--point", "1,1"])
    assert rc == 2 and "must have 4 coordinates" in err
    rc, _, err = run(
        capsys, ["transversal", "-i", str(map3), "--point", "1,1,1,1", "--omit", "9"]
    )
    assert rc == 2 and "--omit indices" in err


# ---- demo and bench -------------------------------------------------------


def test_demo_n3(capsys):
    rc, out, _ = run(capsys, ["demo", "-n", "3", "--seed", "5"])
    assert rc == 0
    assert "2 transversals to the four lines" in out
    assert "meeting form" in out


@pytest.mark.parametrize(
    "form, reason",
    [(Poly.zero(2), "meeting form degree -1"),
     (Poly.var(0, 2, 1) ** 2, "meeting form has a double root")],
    ids=["zero", "square"],
)
def test_demo_n3_prints_why_the_meeting_form_fails(capsys, monkeypatch, form, reason):
    # a meeting form that counts no two distinct lines fails the demo by
    # its reason, with no crash
    family = checks._n3_family
    monkeypatch.setattr(checks, "_n3_family", lambda flats, ctx: (form, *family(flats, ctx)[1:]))
    rc, out, _ = run(capsys, ["demo", "-n", "3", "--seed", "5"])
    assert rc == 1
    assert out.endswith(f"  FAILED: {reason}\n")


def test_demo_n3_fp_split(capsys):
    rc, out, _ = run(capsys, ["demo", "-n", "3", "--seed", "2", "--field", f"fp:{M61}"])
    assert rc == 0
    assert out.count("explicit line through") == 2


def test_demo_n4(capsys):
    rc, out, _ = run(capsys, ["demo", "-n", "4", "--seed", "3"])
    assert rc == 0
    assert "residual plane point" in out
    assert "no line through q meets all five flats" in out


@pytest.mark.parametrize("n", ["0", "5"])
def test_demo_rejects_other_n(capsys, n):
    rc, _, err = run(capsys, ["demo", "-n", n])
    assert rc == 2
    assert "n=3 and n=4 only" in err


# ---- entry point ----------------------------------------------------------


def test_subcommands_are_the_five_paths(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{generate,build,verify,transversal,demo}" in capsys.readouterr().out
    # determinant timings live in perfbench/, not in the program
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def _parsed(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program, or
    (None, the parsed namespace, stderr) of one that does not."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return None, vars(args), capsys.readouterr().err


COMMAND_ARGVS = [
    [command, *tail]
    for command, _, _ in cli.commands()
    for tail in (["-h"], ["-n"], ["--frobnicate"], ["--level", "slow"], ["-n", "3"])
] + [["transversal", "-n", "3"], ["--version"], ["-h"], [], ["bench"], ["-n", "3", "verify"]]


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
def test_the_named_command_parses_as_the_whole_parser(capsys, argv):
    # `main` builds only the subparser argv[0] names: help, usage and
    # errors, and the parsed arguments, are those of the whole parser
    whole = _parsed(capsys, cli.build_parser().parse_args, argv)
    named = argv[0] if argv and argv[0] in {c for c, _, _ in cli.commands()} else None
    assert _parsed(capsys, cli.build_parser(named).parse_args, argv) == whole
    if whole[0] is not None:
        assert _parsed(capsys, cli.main, argv) == whole


def test_the_whole_parser_names_the_command_argument(capsys):
    # only the one-command parser lists the commands as its metavar: on the
    # whole parser a metavar would rename `command` in these errors
    assert _parsed(capsys, cli.main, [])[2].endswith(
        "error: the following arguments are required: command\n"
    )
    err = _parsed(capsys, cli.main, ["bench"])[2]
    assert "error: argument command: invalid choice: 'bench'" in err


def test_main_runs_the_handler_the_module_holds_now(capsys, monkeypatch):
    # the benchmark's tracer wraps `cmd_build` and `cmd_verify` on the
    # module after import; a handler table built at import would miss it
    monkeypatch.setattr(cli, "cmd_demo", lambda args: 7)
    assert cli.main(["demo", "-n", "3"]) == 7
    assert _parsed(capsys, cli.build_parser().parse_args, ["demo"])[1]["func"] is cli.cmd_demo


def test_build_refuses_a_determinant_above_the_cap(capsys, tmp_path):
    # n = 9 needs 9x9 minors of B, one above exactla.MAX_DET_SIZE
    n1 = 10
    flats = [
        {"j": j, "f2": ["0" if i == j else "1" for i in range(n1)]} for j in range(n1)
    ]
    path = tmp_path / "flats9.json"
    path.write_text(json.dumps({"n": 9, "seed": 0, "field": {"kind": "qq"}, "flats": flats}))
    rc, out, err = run(capsys, ["build", "-i", str(path)])
    assert rc == 2 and out == ""
    assert "matrix size 9 exceeds determinant cap 8" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_console_script_installed():
    # import the copy of veneroni under test, whatever the working directory
    src = str(pathlib.Path(veneroni.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "veneroni.cli", "generate", "-n", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["n"] == 2
    # The generated script is not checked here, since installing is what
    # makes it; the declaration it is made from is checked instead.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "veneroni" in scripts
    ep = importlib.metadata.EntryPoint(
        name="veneroni", value=scripts["veneroni"], group="console_scripts"
    )
    assert ep.load() is cli.main
    # what the script that installers generate from ep runs
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    script = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert script.returncode == 0
    assert script.stdout.strip() == veneroni.__version__


@pytest.mark.skipif(
    shutil.which("veneroni") is None,
    reason="no veneroni script on PATH (the package is not installed)",
)
def test_console_script_on_path():
    # PYTHONPATH is dropped so that the script imports the package it was
    # installed with; a stale install then fails on the version.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = subprocess.run(
        ["veneroni", "--version"], capture_output=True, text=True, env=env
    )
    assert script.returncode == 0
    assert script.stdout.strip() == veneroni.__version__


def test_verify_component_off_the_system_fails_basis(tmp_path, map3, capsys):
    # x_0^3 is no term of x_2·Q_2; it vanishes on flat 0 but not on the others
    d = json.loads(map3.read_text())
    d["components"][2]["terms"].append({"c": "1", "e": [3, 0, 0, 0]})
    bad = tmp_path / "off.json"
    bad.write_text(json.dumps(d))
    rc, out, _ = run(capsys, ["verify", "-i", str(bad), "--level", "fast"])
    assert rc == 1
    assert "linear-system-dimension: pass" in out
    assert "basis-property: fail" in out
    # the same process then verifies the untouched map on its own merits
    rc, out, _ = run(capsys, ["verify", "-i", str(map3), "--level", "fast"])
    assert rc == 0
    assert "basis-property: pass" in out
