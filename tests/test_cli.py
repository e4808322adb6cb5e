"""End-to-end tests for the command-line frontend.

Every command is driven through ``main(argv)`` in-process so stdout/stderr and
the exit code can be captured exactly; one test additionally runs the
``groupoid-homology`` entry point declared in ``pyproject.toml`` in a
subprocess and checks that it prints byte-identical output, and another runs
``python -m groupoid_homology``.  Expected homology values in frozen outputs
are standard closed forms (cyclic-group homology, gcd formulas for the
two-parameter shift family) that the unit-test suites verify against
independent oracles; here they pin the exact rendered text.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import groupoid_homology
from groupoid_homology.abelian import FinAbGroup
from groupoid_homology.chains import FreeChainComplex, homology_groups
from groupoid_homology.cli import build_parser, main
from groupoid_homology.groupoids import (
    FiniteGroupoid,
    action,
    disjoint_union,
    moore_complex,
    one_object_cyclic,
    pair,
    units,
)


def run_cli(argv):
    """Run ``main(argv)`` in-process; return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:  # argparse usage errors / --help
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def gen_file(tmp_path, preset, name):
    """Write a preset groupoid file via the ``gen`` subcommand."""
    path = str(tmp_path / name)
    code, _, err = run_cli(["gen", preset, "-o", path])
    assert code == 0, err
    return path


# -- gen -----------------------------------------------------------------------


def test_gen_stdout_is_loadable_groupoid_json():
    code, out, err = run_cli(["gen", "cyclic:3"])
    assert code == 0
    assert err == ""
    g = FiniteGroupoid.from_json(json.loads(out))
    assert g.to_json() == one_object_cyclic(3).to_json()


def test_gen_writes_file_and_reports(tmp_path):
    path = str(tmp_path / "u2.json")
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(["gen", "units:2", "-o", path, "--json", report_path])
    assert code == 0
    assert out == f"wrote groupoid 'units:2': 2 arrows, 2 units -> {path}\n"
    assert FiniteGroupoid.load(path).to_json() == units(2).to_json()
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report == {
        "preset": "units:2",
        "arrows": 2,
        "units": 2,
        "path": path,
        "ok": True,
    }


def test_gen_json_report_without_out(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(["gen", "pair:2", "--json", report_path])
    assert code == 0
    assert json.loads(out) == pair(2).to_json()
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["path"] is None
    assert report["arrows"] == 4


def test_gen_action_preset():
    code, out, _ = run_cli(["gen", "action:4:1,0"])
    assert code == 0
    assert FiniteGroupoid.from_json(json.loads(out)).to_json() == action(4, [1, 0]).to_json()


def test_gen_union_preset(tmp_path):
    f1 = gen_file(tmp_path, "cyclic:2", "c2.json")
    f2 = gen_file(tmp_path, "cyclic:3", "c3.json")
    code, out, _ = run_cli(["gen", f"union:{f1},{f2}"])
    assert code == 0
    expected = disjoint_union(one_object_cyclic(2), one_object_cyclic(3))
    assert FiniteGroupoid.from_json(json.loads(out)).to_json() == expected.to_json()


@pytest.mark.parametrize(
    "preset, message",
    [
        (
            "nope:3",
            "error: cannot parse preset 'nope:3': "
            "expected units:k, cyclic:m, pair:k, action:m:perm, or union:f1,f2",
        ),
        (
            "cyclic:x",
            "error: cannot parse preset 'cyclic:x': "
            "invalid literal for int() with base 10: 'x'",
        ),
        (
            "cyclic:0",
            "error: cannot parse preset 'cyclic:0': cyclic order must be >= 1",
        ),
        (
            "action:3:1,0",
            "error: cannot parse preset 'action:3:1,0': "
            "permutation order does not divide m",
        ),
        (
            "union:only_one",
            "error: cannot parse preset 'union:only_one': union needs two files",
        ),
    ],
)
def test_gen_bad_presets(preset, message):
    code, out, err = run_cli(["gen", preset])
    assert code == 1
    assert out == ""
    assert err == message + "\n"


def test_gen_union_missing_file():
    code, _, err = run_cli(["gen", "union:/nowhere/a.json,/nowhere/b.json"])
    assert code == 1
    assert err == "error: input file not found: /nowhere/a.json\n"


# -- homology -------------------------------------------------------------------


def test_homology_cyclic4_integral(tmp_path):
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    code, out, err = run_cli(["homology", "-i", path])
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        f"homology of {path} with coefficients Z, degrees 0..3",
        "  H_0 = Z",
        "  H_1 = Z/4",
        "  H_2 = 0",
        "  H_3 = Z/4",
    ]


def test_homology_json_report_matches_text(tmp_path):
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(["homology", "-i", path, "--json", report_path])
    assert code == 0
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["input"] == path
    assert report["max_degree"] == 4
    assert report["dims"] == [1, 4, 16, 64, 256]
    assert report["coefficients"] == {"rank": 1, "torsion": []}
    assert [entry["degree"] for entry in report["homology"]] == [0, 1, 2, 3]
    assert [entry["group"] for entry in report["homology"]] == [
        {"rank": 1, "torsion": []},
        {"rank": 0, "torsion": [4]},
        {"rank": 0, "torsion": []},
        {"rank": 0, "torsion": [4]},
    ]
    # the rendered text lines and the structured report must agree
    for entry, line in zip(report["homology"], out.splitlines()[1:]):
        assert line == f"  H_{entry['degree']} = {entry['rendered']}"


def test_homology_mod2_route(tmp_path):
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    code, out, _ = run_cli(["homology", "-i", path, "--coeff", "z/2"])
    assert code == 0
    assert out.splitlines() == [
        f"homology of {path} with coefficients Z/2, degrees 0..3",
        "  H_0 = Z/2",
        "  H_1 = Z/2",
        "  H_2 = Z/2",
        "  H_3 = Z/2",
    ]


def test_homology_mixed_coefficients(tmp_path):
    path = gen_file(tmp_path, "cyclic:2", "c2.json")
    code, out, _ = run_cli(["homology", "-i", path, "-N", "3", "--coeff", "z+z/4"])
    assert code == 0
    assert out.splitlines() == [
        f"homology of {path} with coefficients Z ⊕ Z/4, degrees 0..2",
        "  H_0 = Z ⊕ Z/4",
        "  H_1 = Z/2 ⊕ Z/2",
        "  H_2 = Z/2",
    ]


def test_homology_coeff_z_caret_one_is_integral(tmp_path):
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    base = run_cli(["homology", "-i", path, "--coeff", "z"])
    # Z/0 parses to Z as well, so both aliases must print what plain `z` prints
    for spec in ("z^1", "z/0"):
        assert run_cli(["homology", "-i", path, "--coeff", spec]) == base


def test_homology_coeff_z_mod_one_is_trivial(tmp_path):
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    code, out, _ = run_cli(["homology", "-i", path, "-N", "3", "--coeff", "z/1"])
    assert code == 0
    assert out.splitlines()[1:] == ["  H_0 = 0", "  H_1 = 0", "  H_2 = 0"]


def test_homology_primary_rendering(tmp_path):
    path = gen_file(tmp_path, "cyclic:12", "c12.json")
    code, out, _ = run_cli(["homology", "-i", path, "-N", "2", "--primary"])
    assert code == 0
    assert out.splitlines()[1:] == ["  H_0 = Z", "  H_1 = Z/4 ⊕ Z/3"]
    # without the flag the invariant factor is kept whole
    _, plain, _ = run_cli(["homology", "-i", path, "-N", "2"])
    assert plain.splitlines()[1:] == ["  H_0 = Z", "  H_1 = Z/12"]


def test_homology_dump_complex(tmp_path):
    path = gen_file(tmp_path, "cyclic:3", "c3.json")
    dump_path = str(tmp_path / "complex.json")
    code, _, _ = run_cli(
        ["homology", "-i", path, "-N", "2", "--dump-complex", dump_path]
    )
    assert code == 0
    with open(dump_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["dims"] == [1, 3, 9]
    assert "modulus" not in payload
    # boundaries are flat row-major integer lists
    assert len(payload["boundaries"]) == 3
    assert all(isinstance(x, int) for row in payload["boundaries"] for x in row)
    loaded = FreeChainComplex.from_json(payload)
    reference = moore_complex(one_object_cyclic(3), 2)
    assert loaded.dims == reference.dims
    assert loaded.boundaries == reference.boundaries
    assert homology_groups(loaded, 0, 1)[1] == FinAbGroup.cyclic(3)


def test_dump_complex_bytes_are_pinned(tmp_path):
    # the dense-storage version of the package wrote exactly these bytes
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    dump_path = tmp_path / "complex.json"
    code, _, _ = run_cli(["homology", "-i", path, "-N", "3", "--dump-complex", str(dump_path)])
    assert code == 0
    raw = dump_path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == (
        "e5dc59a957e0fd4ab9decc90f302788297976a3d2a6f41d37a266f45704e1630"
    )
    # and a round trip through from_json writes them again
    loaded = FreeChainComplex.from_json(json.loads(raw))
    again = json.dumps(loaded.to_json(), indent=2, sort_keys=True) + "\n"
    assert again.encode("utf-8") == raw


def test_dump_complex_of_one_unit_orbits_builds_one_moore_complex(tmp_path, monkeypatch):
    # when every orbit is one unit the isotropy route would sweep the very
    # complex that was dumped, so the iso types are read off it; a multi-unit
    # orbit still takes its isotropy group
    from groupoid_homology import cli as cli_module, uct as uct_module

    c3, c2 = gen_file(tmp_path, "cyclic:3", "c3.json"), gen_file(tmp_path, "cyclic:2", "c2.json")
    cases = [(gen_file(tmp_path, "cyclic:4", "c4.json"), 1),
             (gen_file(tmp_path, f"union:{c3},{c2}", "u.json"), 1),
             (gen_file(tmp_path, "pair:3", "p3.json"), 2)]
    plain = {path: run_cli(["homology", "-i", path, "-N", "3", "--coeff", "z+z/4"]) for path, _ in cases}
    built = []
    real = cli_module.moore_complex

    def counting(g, *args, **kwargs):
        built.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(cli_module, "moore_complex", counting)
    monkeypatch.setattr(uct_module, "moore_complex", counting)
    for path, calls in cases:
        built.clear()
        dump = str(tmp_path / "complex.json")
        argv = ["homology", "-i", path, "-N", "3", "--coeff", "z+z/4", "--dump-complex", dump]
        assert run_cli(argv) == plain[path]
        assert len(built) == calls, path


def test_dump_complex_over_the_budget_is_refused_before_the_build(tmp_path):
    # the dump writes every boundary dense: cyclic:99 -N 3 is under the nerve
    # budget but its dump would hold 9510870897 entries
    path = gen_file(tmp_path, "cyclic:99", "c99.json")
    dump, report = tmp_path / "complex.json", tmp_path / "report.json"
    argv = ["homology", "-i", path, "-N", "3", "--dump-complex", str(dump), "--json", str(report)]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 0.6
    assert (code, out) == (1, "")
    assert err == "error: --dump-complex would write 9510870897 boundary entries, over the budget of 1000000\n"
    assert not dump.exists()
    assert json.loads(report.read_text(encoding="utf-8"))["ok"] is False
    small = gen_file(tmp_path, "cyclic:4", "c4.json")
    assert run_cli(["homology", "-i", small, "-N", "3", "--dump-complex", str(dump)])[0] == 0
    assert json.loads(dump.read_text(encoding="utf-8"))["dims"] == [1, 4, 16, 64]


def test_only_primary_rendering_factors_integers(tmp_path, monkeypatch):
    # invariant factors come from gcds and lcms; only --primary needs primes
    from groupoid_homology import abelian

    real = abelian._factorize
    path, cover = gen_file(tmp_path, "cyclic:12", "c12.json"), torsion_cover_file(tmp_path)
    runs = [["homology", "-i", path, "-N", "3", "--coeff", "z+z/4+z/6"],
            ["uct", "-i", path, "-N", "3", "--coeff", "z^2+z/8"],
            ["mv", "-i", cover, "-N", "3", "--u1", "0,1", "--u2", "1,2"]]
    plain = [run_cli(argv) for argv in runs]
    assert all(code == 0 for code, _, _ in plain)

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(abelian, "_factorize", refuse)
    assert [run_cli(argv) for argv in runs] == plain
    factored = []
    monkeypatch.setattr(abelian, "_factorize", lambda n: factored.append(n) or real(n))
    code, out, _ = run_cli(runs[0] + ["--primary"])
    assert code == 0 and "Z/4 ⊕ Z/3" in out and 12 in factored


def test_homology_with_a_40_digit_prime_modulus_is_fast(tmp_path):
    # trial division would never finish on this modulus
    p = 10**39 + 3
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    start = time.perf_counter()
    code, out, _ = run_cli(["homology", "-i", path, "-N", "3", "--coeff", f"z/{p}"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[1:] == [f"  H_0 = Z/{p}", "  H_1 = 0", "  H_2 = 0"]


def test_homology_union_input(tmp_path):
    f1 = gen_file(tmp_path, "cyclic:2", "c2.json")
    f2 = gen_file(tmp_path, "units:2", "u2.json")
    path = str(tmp_path / "mix.json")
    code, _, _ = run_cli(["gen", f"union:{f1},{f2}", "-o", path])
    assert code == 0
    code, out, _ = run_cli(["homology", "-i", path, "-N", "2"])
    assert code == 0
    assert out.splitlines()[1:] == ["  H_0 = Z^3", "  H_1 = Z/2"]


# -- shared flag handling ---------------------------------------------------------


def test_budget_flag_exceeded(tmp_path):
    path = gen_file(tmp_path, "pair:3", "p3.json")
    report_path = str(tmp_path / "report.json")
    code, out, err = run_cli(
        ["homology", "-i", path, "--budget", "20", "--json", report_path]
    )
    assert code == 1
    assert out == ""
    assert err == "error: nerve budget exceeded at degree 2\n"
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report == {"error": "nerve budget exceeded at degree 2", "ok": False}


@pytest.mark.parametrize("command", ["homology", "uct"])
def test_budget_counts_the_full_nerve_not_the_isotropy_nerve(tmp_path, command):
    # pair:10 is one orbit with trivial isotropy, a nerve of one tuple per
    # degree, but its own nerve has 1111110 basis elements in degrees 0..5:
    # -N 5 is over the default budget and refused; -N 4 reports the full dims
    path = gen_file(tmp_path, "pair:10", "p10.json")
    report_path = str(tmp_path / "report.json")
    code, out, err = run_cli([command, "-i", path, "-N", "5", "--json", report_path])
    assert (code, out, err) == (1, "", "error: nerve budget exceeded at degree 5\n")
    with open(report_path, encoding="utf-8") as fh:
        assert json.load(fh) == {"error": "nerve budget exceeded at degree 5", "ok": False}
    code, _, err = run_cli([command, "-i", path, "-N", "4", "--json", report_path])
    assert (code, err) == (0, "")
    if command == "homology":
        with open(report_path, encoding="utf-8") as fh:
            assert json.load(fh)["dims"] == [10, 100, 1000, 10000, 100000]


def test_budget_refuses_huge_max_degree(tmp_path):
    # the default budget is reached at degree 7 (8**7 > 10**6); a far larger
    # -N must give the same refusal, not count every level it names first
    path = gen_file(tmp_path, "cyclic:8", "c8.json")
    code, out, err = run_cli(["homology", "-i", path, "-N", "200000"])
    assert code == 1
    assert out == ""
    assert err == "error: nerve budget exceeded at degree 7\n"


def test_budget_env_var(tmp_path, monkeypatch):
    path = gen_file(tmp_path, "pair:3", "p3.json")
    monkeypatch.setenv("GH_BUDGET", "20")
    code, _, err = run_cli(["homology", "-i", path])
    assert code == 1
    assert err == "error: nerve budget exceeded at degree 2\n"
    # an explicit --budget flag overrides the environment
    code, _, _ = run_cli(["homology", "-i", path, "--budget", "1000000"])
    assert code == 0


def test_budget_env_var_invalid(tmp_path, monkeypatch):
    path = gen_file(tmp_path, "units:1", "u1.json")
    monkeypatch.setenv("GH_BUDGET", "abc")
    code, _, err = run_cli(["homology", "-i", path])
    assert code == 1
    assert err == "error: GH_BUDGET must be an integer, got 'abc'\n"


def test_budget_env_var_empty_is_ignored(tmp_path, monkeypatch):
    path = gen_file(tmp_path, "units:1", "u1.json")
    monkeypatch.setenv("GH_BUDGET", "")
    code, _, _ = run_cli(["homology", "-i", path])
    assert code == 0


def test_budget_must_be_positive(tmp_path):
    path = gen_file(tmp_path, "units:1", "u1.json")
    code, _, err = run_cli(["homology", "-i", path, "--budget", "0"])
    assert code == 1
    assert err == "error: budget must be at least 1, got 0\n"


def test_max_degree_must_be_positive(tmp_path):
    path = gen_file(tmp_path, "units:1", "u1.json")
    code, _, err = run_cli(["homology", "-i", path, "-N", "0"])
    assert code == 1
    assert err == "error: max degree must be at least 1, got 0\n"


def test_missing_input_file():
    code, _, err = run_cli(["homology", "-i", "/nowhere/missing.json"])
    assert code == 1
    assert err == "error: input file not found: /nowhere/missing.json\n"


@pytest.mark.parametrize("case", ["json", "dump-complex", "gen-out", "input-directory"])
def test_os_error_on_a_path_is_an_error_line(tmp_path, case):
    # an unwritable output or an unreadable input gives one `error:` line and
    # exit 1, never a traceback; the JSON error report still goes to a
    # writable --json
    path = gen_file(tmp_path, "cyclic:3", "c3.json")
    missing = str(tmp_path / "no-such-dir" / "x.json")
    report_path = str(tmp_path / "report.json")
    not_found = os.strerror(errno.ENOENT)
    argv, message = {
        "json": (["homology", "-i", path, "-N", "2", "--json", missing],
                 f"cannot write {missing}: {not_found}"),
        "dump-complex": (["homology", "-i", path, "-N", "2", "--dump-complex", missing,
                          "--json", report_path], f"cannot write {missing}: {not_found}"),
        "gen-out": (["gen", "cyclic:3", "-o", missing, "--json", report_path],
                    f"cannot write {missing}: {not_found}"),
        "input-directory": (["homology", "-i", str(tmp_path), "--json", report_path],
                            f"cannot read {tmp_path}: {os.strerror(errno.EISDIR)}"),
    }[case]
    code, out, err = run_cli(argv)
    assert (code, err) == (1, f"error: {message}\n")
    if case == "json":  # the table is printed before the report is written
        assert out.splitlines() == [f"homology of {path} with coefficients Z, degrees 0..1",
                                    "  H_0 = Z", "  H_1 = Z/3"]
    else:
        assert out == ""
        with open(report_path, encoding="utf-8") as fh:
            assert json.load(fh) == {"error": message, "ok": False}


def test_invalid_input_json(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("this is not json{")
    code, _, err = run_cli(["homology", "-i", path])
    assert code == 1
    assert err.startswith(f"error: input file {path} is not valid JSON:")


def _cyclic2_with(**fields):
    data = one_object_cyclic(2).to_json()
    data.update(fields)
    return data


@pytest.mark.parametrize(
    "payload, key",
    [
        ([1, 2], "JSON object"),
        ({"arrows": 1}, "'units'"),
        (_cyclic2_with(inverse=1), "'inverse'"),
        (_cyclic2_with(source=[0.7, 0]), "'source'"),
        (_cyclic2_with(arrows=True), "'arrows'"),
        (_cyclic2_with(units=[0, 0]), "unit 0 listed twice"),
        (b"\xff{}", "bad.json is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
    ids=["not-object", "missing-key", "not-a-list", "float-entry", "bool-arrows", "duplicate-unit",
         "not-utf8"],
)
def test_malformed_groupoid_file_is_an_error(tmp_path, payload, key):
    path = str(tmp_path / "bad.json")
    with open(path, "wb") as fh:
        fh.write(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    report_path = str(tmp_path / "report.json")
    code, out, err = run_cli(["homology", "-i", path, "-N", "2", "--json", report_path])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report == {"error": err[len("error: "):].rstrip("\n"), "ok": False}


@pytest.mark.parametrize(
    "coeff, message",
    [
        ("z/x", "error: cannot parse coefficient term 'z/x': bad modulus"),
        ("z^x", "error: cannot parse coefficient term 'z^x': bad rank"),
        ("z^-1", "error: cannot parse coefficient term 'z^-1': negative rank"),
        ("z/-2", "error: cannot parse coefficient term 'z/-2': negative modulus"),
        ("q", "error: cannot parse coefficient term 'q': expected z, z^r, or z/d"),
    ],
)
def test_coefficient_parse_errors(tmp_path, coeff, message):
    path = gen_file(tmp_path, "units:1", "u1.json")
    code, _, err = run_cli(["homology", "-i", path, "--coeff", coeff])
    assert code == 1
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["homology"],  # missing -i
        ["sft"],  # missing --full-shift/--family
        ["sft", "--full-shift", "2", "--family", "2", "3"],  # mutually exclusive
        ["classify", "--family", "2", "7"],  # missing --bound
    ],
)
def test_usage_errors_exit_2(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert "usage:" in err


# each subcommand takes only the shared flags it reads
@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "-i", "g.json", "--seed", "1"],
        ["uct", "-i", "g.json", "--seed", "1"],
        ["sft", "--full-shift", "3", "--seed", "1"],
        ["sft", "--full-shift", "3", "--budget", "10"],
        ["classify", "--family", "2", "7", "--bound", "9", "--seed", "1"],
        ["classify", "--family", "2", "7", "--bound", "9", "--budget", "10"],
        ["classify", "--family", "2", "7", "--bound", "9", "-N", "2"],
        ["classify", "--family", "2", "7", "--bound", "9", "--primary"],
    ],
)
def test_unread_flags_are_usage_errors(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "groupoid-homology" in out


def test_cached_parser_matches_fresh_parsers(tmp_path):
    # main reuses one parser per process: error calls, then calls to other
    # subcommands (one relying on its own --coeff default), must print and
    # exit exactly as they do on a freshly built parser
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    calls = [
        ["sft", "--full-shift", "2", "--family", "2", "3"],
        ["homology", "-i", path, "--coeff", "z/x"],
        ["homology", "-i", path, "-N", "3", "--coeff", "z/4", "--primary"],
        ["uct", "-i", path, "-N", "3"],
        ["sft", "--full-shift", "3", "-N", "1"],
    ]
    assert build_parser() is build_parser()
    reused = [run_cli(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 1, 0, 0, 0]
    assert "with Z/2, degrees 0..2" in reused[3][1]


# -- uct -------------------------------------------------------------------------


def test_uct_cyclic6_mod4(tmp_path):
    path = gen_file(tmp_path, "cyclic:6", "c6.json")
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        ["uct", "-i", path, "-N", "3", "--coeff", "z/4", "--json", report_path]
    )
    assert code == 0
    assert out.splitlines() == [
        f"universal-coefficient check of {path} with Z/4, degrees 0..2",
        "  degree 0: tensor Z/4 + tor 0 = Z/4; direct Z/4; match=true",
        "  degree 1: tensor Z/2 + tor 0 = Z/2; direct Z/2; match=true",
        "  degree 2: tensor 0 + tor Z/2 = Z/2; direct Z/2; match=true",
        "all degrees match: true",
    ]
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert len(report["degrees"]) == 3
    assert all(entry["match"] is True for entry in report["degrees"])


def test_uct_default_coefficients(tmp_path):
    path = gen_file(tmp_path, "units:1", "u1.json")
    code, out, _ = run_cli(["uct", "-i", path])
    assert code == 0
    assert out.splitlines()[0] == (
        f"universal-coefficient check of {path} with Z/2, degrees 0..3"
    )
    assert out.splitlines()[-1] == "all degrees match: true"


# -- mv --------------------------------------------------------------------------


def test_mv_units_cover(tmp_path):
    path = gen_file(tmp_path, "units:3", "u3.json")
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        [
            "mv",
            "-i",
            path,
            "-N",
            "2",
            "--u1",
            "0,1",
            "--u2",
            "1,2",
            "--json",
            report_path,
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        f"mayer-vietoris of {path} with |U1|=2, |U2|=2, |U12|=1, degrees 0..1"
    )
    assert "  node H_0(G|U12) = Z" in lines
    assert "  node H_0(G|U1) ⊕ H_0(G|U2) = Z^4" in lines
    assert "  node H_0(G) = Z^3" in lines
    assert "  node 0 = 0" in lines
    # every interior node must report exactness
    exact_lines = [line for line in lines if "exactness here:" in line]
    assert exact_lines, "expected exactness verdict lines"
    assert all(line.endswith("exactness here: exact") for line in exact_lines)
    assert "NOT EXACT" not in out
    assert lines[-1] == "all nodes exact: true"
    assert any(line.startswith("connecting checks: ") for line in lines)
    assert "FAILED" not in out

    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["u1"] == [0, 1]
    assert report["u2"] == [1, 2]
    assert report["u12"] == [1]
    assert len(report["exactness"]) == len(exact_lines)
    for verdict in report["exactness"]:
        assert verdict["exact"] is True
        assert verdict["defect"] == {"rank": 0, "torsion": []}
    assert report["nodes"][-1]["label"] == "0"
    assert report["nodes"][-1]["map_matrix"] == []
    assert report["connecting_failures"] == []


def torsion_cover_file(tmp_path):
    """cyclic:2 ⊔ units:1 ⊔ cyclic:3, whose H_1 is Z/6."""
    f1 = gen_file(tmp_path, "cyclic:2", "c2.json")
    f2 = gen_file(tmp_path, "units:1", "u1.json")
    f3 = gen_file(tmp_path, "cyclic:3", "c3.json")
    left = str(tmp_path / "left.json")
    run_cli(["gen", f"union:{f1},{f2}", "-o", left])
    path = str(tmp_path / "g.json")
    run_cli(["gen", f"union:{left},{f3}", "-o", path])
    return path


def test_mv_torsion_cover(tmp_path):
    path = torsion_cover_file(tmp_path)
    code, out, _ = run_cli(
        ["mv", "-i", path, "-N", "3", "--u1", "0,1", "--u2", "1,2"]
    )
    assert code == 0
    assert "  node H_1(G) = Z/6" in out.splitlines()
    assert out.splitlines()[-1] == "all nodes exact: true"


def test_mv_primary_rendering(tmp_path):
    path = torsion_cover_file(tmp_path)
    argv = ["mv", "-i", path, "-N", "3", "--u1", "0,1", "--u2", "1,2"]
    code, out, _ = run_cli(argv + ["--primary"])
    assert code == 0
    assert "  node H_1(G) = Z/2 ⊕ Z/3" in out.splitlines()
    # only the rendering changes
    _, plain, _ = run_cli(argv)
    assert out.replace("Z/2 ⊕ Z/3", "Z/6") == plain


def test_mv_reuses_the_canonical_connecting_maps(tmp_path, monkeypatch):
    # the long exact sequence's canonical zig-zags are the ones checked: each
    # total cycle gets one canonical and one randomized lift, not two canonical
    from groupoid_homology.mv import MvChainSes

    lifts = []
    real = MvChainSes.connecting

    def counting(self, n, cycle, rng=None):
        lifts.append(rng is None)
        return real(self, n, cycle, rng=rng)

    monkeypatch.setattr(MvChainSes, "connecting", counting)
    path = torsion_cover_file(tmp_path)
    code, out, _ = run_cli(["mv", "-i", path, "-N", "3", "--u1", "0,1", "--u2", "1,2"])
    assert code == 0
    checks = int(out.splitlines()[-2].split()[2])
    assert out.splitlines()[-2] == f"connecting checks: {checks} cycles verified"
    assert checks > 0 and lifts.count(True) == lifts.count(False) == checks


def test_mv_seed_does_not_change_output(tmp_path):
    path = gen_file(tmp_path, "units:3", "u3.json")
    argv = ["mv", "-i", path, "-N", "2", "--u1", "0,1", "--u2", "1,2"]
    first = run_cli(argv + ["--seed", "1"])
    second = run_cli(argv + ["--seed", "2"])
    assert first == second
    assert first[0] == 0


def test_mv_unit_index_errors(tmp_path):
    path = gen_file(tmp_path, "units:3", "u3.json")
    code, _, err = run_cli(["mv", "-i", path, "--u1", "5", "--u2", "0,1,2"])
    assert code == 1
    assert err == "error: --u1: unit index 5 out of range (groupoid has 3 units)\n"
    code, _, err = run_cli(["mv", "-i", path, "--u1", "x", "--u2", "0,1,2"])
    assert code == 1
    assert err == "error: --u1: cannot parse unit index 'x'\n"
    # a repeated index is refused, as a unit listed twice in a groupoid file is
    code, _, err = run_cli(["mv", "-i", path, "--u1", "0,0", "--u2", "1,2"])
    assert code == 1
    assert err == "error: --u1: unit index 0 listed twice\n"
    code, _, err = run_cli(["mv", "-i", path, "--u1", "0", "--u2", "1,2,1"])
    assert code == 1
    assert err == "error: --u2: unit index 1 listed twice\n"


def test_mv_cover_error(tmp_path):
    path = gen_file(tmp_path, "units:3", "u3.json")
    code, _, err = run_cli(["mv", "-i", path, "--u1", "0", "--u2", "1"])
    assert code == 1
    assert err == "error: cover fails: units [2] lie in neither U1 nor U2\n"


# -- sft -------------------------------------------------------------------------


def test_sft_full_shift_two_letters():
    code, out, err = run_cli(["sft", "--full-shift", "2", "-N", "2"])
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "full shift on 2 letters, degrees 0..2",
        "  H_0 = 0",
        "  H_1 = 0",
        "  H_2 = 0",
        "transition-matrix cross-check: ok",
        "verified: true",
    ]


def test_sft_full_shift_five_letters(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        ["sft", "--full-shift", "5", "-N", "2", "--json", report_path]
    )
    assert code == 0
    assert out.splitlines()[1] == "  H_0 = Z/4"
    assert out.splitlines()[2] == "  H_1 = 0"
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["full_shift"] == 5
    assert report["cross_check"] is True
    assert report["homology"][0] == {"rank": 0, "torsion": [4]}
    assert report["matrix_route"][0] == {"rank": 0, "torsion": [4]}


def test_sft_family_single_modulus():
    code, out, _ = run_cli(["sft", "--family", "4", "6", "-N", "1", "--q", "6"])
    assert code == 0
    assert out.splitlines() == [
        "family F(4, 6) integral homology, degrees 0..1",
        "  H_0 = Z ⊕ Z/15",
        "  H_1 = 0",
        "with coefficients Z/6:",
        "  H_0 = Z/6 ⊕ Z/3",
        "  H_1 = Z/3",
        "  H_k = 0 for k >= 2",
        "universal-coefficient cross-check: ok",
        "verified: true",
    ]


def test_sft_family_table(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        ["sft", "--family", "2", "3", "-N", "1", "--qmax", "4", "--json", report_path]
    )
    assert code == 0
    assert out.splitlines() == [
        "family F(2, 3) integral homology, degrees 0..1",
        "  H_0 = Z ⊕ Z/2",
        "  H_1 = 0",
        "finite-coefficient table, q = 1..4:",
        "  q=1: H_0 = 0; H_1 = 0",
        "  q=2: H_0 = Z/2 ⊕ Z/2; H_1 = Z/2",
        "  q=3: H_0 = Z/3; H_1 = 0",
        "  q=4: H_0 = Z/4 ⊕ Z/2; H_1 = Z/2",
        "universal-coefficient cross-check: ok",
        "verified: true",
    ]
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["family"] == [2, 3]
    assert report["cross_check"] is True
    assert [row["q"] for row in report["table"]] == [1, 2, 3, 4]
    assert report["table"][3]["h0"] == {"rank": 0, "torsion": [2, 4]}


def test_sft_family_primary_rendering():
    code, out, _ = run_cli(["sft", "--family", "4", "6", "-N", "1", "--primary"])
    assert code == 0
    assert out.splitlines()[1] == "  H_0 = Z ⊕ Z/3 ⊕ Z/5"


def test_sft_integral_only_report(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, _, _ = run_cli(
        ["sft", "--family", "3", "5", "-N", "2", "--json", report_path]
    )
    assert code == 0
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["integral"][0] == {"rank": 1, "torsion": [2, 4]}
    assert report["integral"][1] == {"rank": 0, "torsion": []}
    assert "table" not in report


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["sft", "--full-shift", "1"],
            "error: full shift needs at least 2 letters, got 1",
        ),
        (
            ["sft", "--family", "1", "4"],
            "error: family parameters must be at least 2, got (1, 4)",
        ),
        (
            ["sft", "--family", "2", "3", "--q", "0"],
            "error: coefficient modulus must be at least 1, got 0",
        ),
        (
            ["sft", "--family", "3", "4", "--qmax", "0"],
            "error: table bound qmax must be at least 1, got 0",
        ),
        (
            ["sft", "--family", "3", "4", "--qmax", "-2"],
            "error: table bound qmax must be at least 1, got -2",
        ),
    ],
)
def test_sft_errors(argv, message):
    code, _, err = run_cli(argv)
    assert code == 1
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sft", "--family", "3", "4", "--q", "3", "--qmax", "5"], "--q and --qmax cannot both be given"),
        (["sft", "--full-shift", "2", "--q", "3"], "--q and --qmax apply to --family only"),
        (["sft", "--full-shift", "2", "--qmax", "3"], "--q and --qmax apply to --family only"),
    ],
    ids=["q-with-qmax", "full-shift-with-q", "full-shift-with-qmax"],
)
def test_sft_refuses_an_option_it_would_ignore(tmp_path, argv, message):
    # each of these used to print a result, exit 0 and drop one option unread
    report_path = str(tmp_path / "report.json")
    code, out, err = run_cli([*argv, "--json", report_path])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    with open(report_path, encoding="utf-8") as fh:
        assert json.load(fh) == {"error": message, "ok": False}


# -- classify --------------------------------------------------------------------


def test_classify_ambiguous_pair(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        ["classify", "--family", "2", "7", "--bound", "9", "--json", report_path]
    )
    assert code == 0
    assert out.splitlines() == [
        "classification probe for family F(2, 7) with search bound 9",
        "probe moduli: [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 125, 343]",
        "candidates: {2, 7}, {3, 4}",
        "soundness (true pair among candidates): true",
    ]
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["sound"] is True
    assert report["candidates"] == [[2, 7], [3, 4]]


def test_classify_flags_indistinguishable_families(tmp_path):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        [
            "classify",
            "--family",
            "2",
            "7",
            "--bound",
            "9",
            "--qmax",
            "30",
            "--json",
            report_path,
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == (
        "full-table comparison up to q=30: {2, 7}=identical, {3, 4}=identical"
    )
    assert lines[-1] == (
        "flagged for manual review (indistinguishable families): {3, 4}"
    )
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["flagged"] == [[3, 4]]
    assert report["table_identical"] == [
        {"pair": [2, 7], "identical": True},
        {"pair": [3, 4], "identical": True},
    ]


def test_classify_unique_family():
    code, out, _ = run_cli(
        ["classify", "--family", "2", "2", "--bound", "3", "--qmax", "5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "probe moduli: [2]"
    assert lines[2] == "candidates: {2, 2}"
    assert lines[3] == "soundness (true pair among candidates): true"
    assert lines[4] == "full-table comparison up to q=5: {2, 2}=identical"
    assert not any("flagged" in line for line in lines)


def test_classify_vacuous_bound():
    code, out, _ = run_cli(["classify", "--family", "2", "2", "--bound", "2"])
    assert code == 0
    assert out.splitlines()[1] == "probe moduli: []"
    assert out.splitlines()[2] == "candidates: {2, 2}"


def test_classify_bound_error():
    code, _, err = run_cli(["classify", "--family", "2", "7", "--bound", "1"])
    assert code == 1
    assert err == "error: search bound must be at least 2, got 1\n"


@pytest.mark.parametrize("qmax", [0, -2])
def test_classify_refuses_an_empty_table(tmp_path, qmax):
    # with no table rows every candidate would compare as identical
    report_path = str(tmp_path / "report.json")
    code, out, err = run_cli(
        ["classify", "--family", "3", "4", "--bound", "8", "--qmax", str(qmax), "--json", report_path]
    )
    assert code == 1
    assert out == ""
    assert err == f"error: table bound qmax must be at least 1, got {qmax}\n"
    with open(report_path, encoding="utf-8") as fh:
        assert json.load(fh) == {"error": err[len("error: "):].rstrip("\n"), "ok": False}


# -- determinism and the declared entry point, run in a subprocess -----------------

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def child_env():
    """Environment in which a child interpreter imports the package under test."""
    src = os.path.dirname(os.path.dirname(groupoid_homology.__file__))
    return dict(os.environ, PYTHONPATH=src)


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["homology", "-i", "{g}", "-N", "3"],
        ["homology", "-i", "{g}", "-N", "3", "--coeff", "z/6"],
        ["uct", "-i", "{g}", "-N", "3", "--coeff", "z/4"],
        ["mv", "-i", "{u}", "-N", "2", "--u1", "0,1", "--u2", "1,2"],
        ["sft", "--family", "3", "4", "-N", "1", "--qmax", "6"],
        ["classify", "--family", "3", "4", "--bound", "7", "--qmax", "10"],
    ],
)
def test_byte_identical_across_runs(tmp_path, argv_tail):
    paths = {
        "{g}": gen_file(tmp_path, "cyclic:6", "c6.json"),
        "{u}": gen_file(tmp_path, "units:3", "u3.json"),
    }
    argv = [paths.get(a, a) for a in argv_tail]
    json_a = str(tmp_path / "a.json")
    json_b = str(tmp_path / "b.json")
    first = run_cli(argv + ["--json", json_a])
    second = run_cli(argv + ["--json", json_b])
    assert first == second
    assert first[0] == 0
    with open(json_a, "rb") as fh:
        bytes_a = fh.read()
    with open(json_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b


def test_console_script_matches_in_process(tmp_path):
    # call the declared entry point the way pip's generated console script does
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["groupoid-homology"]
    module, attr = target.split(":")
    path = gen_file(tmp_path, "cyclic:4", "c4.json")
    argv = ["homology", "-i", path, "-N", "3"]
    code, out, err = run_cli(argv)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            *argv,
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert proc.stderr == err == ""


def test_module_reexports_console_entry():
    # the runpy path used by `python -m` style invocation must agree too
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "groupoid_homology",
            "sft",
            "--full-shift",
            "3",
            "-N",
            "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "  H_0 = Z/2"
