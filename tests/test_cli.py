import importlib.metadata
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import veneroni
from veneroni import checks, cli, projgeo
from veneroni.checks import CHECK_ORDER

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
    rc, _, err = run(capsys, ["generate", "-n", "7"])
    assert rc == 2
    assert "must be in 2..6" in err
    assert run(capsys, ["generate", "-n", "1"])[0] == 2


def test_generate_fp_field(capsys):
    rc, out, _ = run(capsys, ["generate", "-n", "2", "--seed", "1", "--field", f"fp:{M61}"])
    assert rc == 0
    assert json.loads(out)["field"] == {"kind": "fp", "p": M61}


def test_generate_bad_field(capsys):
    rc, _, err = run(capsys, ["generate", "-n", "2", "--field", "gf:9"])
    assert rc == 2
    assert "unknown field" in err


# ---- build ----------------------------------------------------------------


def test_build_map_file_contents(map3):
    d = json.loads(map3.read_text())
    for key in ("Q", "components", "b", "g", "inverse_components", "dual_flats"):
        assert key in d
    assert len(d["b"]) == 4 and d["b"][0][0] == "0"
    assert [f["j"] for f in d["dual_flats"]] == [0, 1, 2, 3]


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


def test_verify_dual_flat_off_the_b_matrix(tmp_path, map3, capsys):
    # neither row 1 of b nor canonical; the dual system's dimension alone
    # would not notice, since it is n+1 for general flats
    d = json.loads(map3.read_text())
    d["dual_flats"][1]["f2"] = ["5", "3", "1", "-2"]
    bad = tmp_path / "badd.json"
    bad.write_text(json.dumps(d))
    rc, out, _ = run(capsys, ["verify", "-i", str(bad), "--json"])
    assert rc == 1
    res = {c["name"]: c for c in json.loads(out)["checks"]}
    assert res["dual-dimension"]["status"] == "fail"
    assert res["dual-dimension"]["witness"] == {
        "j": 1,
        "reason": "dual flat differs from row i of b",
    }


def test_verify_rejects_a_duplicated_term(map3, tmp_path, capsys):
    # to_dict never writes an exponent twice; a copy of a Q term would add
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
}
# provenance the report would copy is refused by name; every other value of
# the wrong type is named as a malformed input file
PROVENANCE_ERRORS = {
    "bound-string": "bound must be an integer, got 'x'",
    "seed-string": "seed must be an integer, got 'abc'",
    "seed-bool": "seed must be an integer, got True",
    "retries-float": "retries must be an integer, got 1.5",
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
    # of its ten pair lines (n >= 4) meets the n+1 flats, for the count of
    # the zeros of each Q_k on it, and nothing else
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
    pair_lines = 0 if n == 3 else 10
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


@pytest.mark.parametrize("k", ["0", "-3"])
def test_verify_refuses_a_sample_count_below_one(capsys, map3, k):
    # a round-trip of no samples tests nothing, so it may not report a pass
    rc, out, err = run(capsys, ["verify", "-i", str(map3), "-k", k])
    assert rc == 2 and out == ""
    assert f"-k/--samples must be >= 1, got {k}" in err
    _, vmap, inv = cli.map_from_dict(json.loads(map3.read_text()))
    with pytest.raises(ValueError, match=f"at least 1 sample, got {k}"):
        checks.verify_roundtrip_sample(vmap, inv, k=int(k))
    assert checks.verify_roundtrip_sample(vmap, inv, k=1).witness["samples"] == 1


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
