"""End-to-end command line tests, driven through subprocess, and in-process
runs of `rauzy.cli.main` where a test compares its output with the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rauzy.adic import SubstitutionSet, parse_sequence_spec
from rauzy.cli import MAX_CONTINUITY_ROWS, MAX_DEPTH, _check_flags, build_parser, main
from rauzy.core import ResourceError, load_substitution_file
from rauzy.fractal import invariant_checks


def run_cli(*argv, env_extra=None, timeout=300, stdin_text=None):
    env = os.environ.copy()
    env.pop("RAUZY_POINT_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rauzy", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        input=stdin_text,
    )


# ---------------------------------------------------------------------------
# start-up


def test_picture_commands_load_no_scipy(tribo_path, tmp_path):
    # only the commands that build k-d trees may pay for importing scipy;
    # `check` pairs the set equation's clouds by index and builds none
    csv = str(tmp_path / "cloud.csv")
    code = (
        "import sys\n"
        "import rauzy.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded(), loaded()\n"
        "for argv in (\n"
        f"    ['info', '--subs', {tribo_path!r}],\n"
        f"    ['fractal', '--subs', {tribo_path!r}, '--points', '500', '--out', {csv!r},\n"
        "     '--format', 'both', '--width', '64', '--height', '64'],\n"
        f"    ['render', '--in', {csv!r}, '--out', {csv!r} + '.ppm', '--width', '64', '--height', '64'],\n"
        f"    ['check', '--subs', {tribo_path!r}],\n"
        "):\n"
        "    assert rauzy.cli.main(argv) == 0\n"
        "    assert not loaded(), (argv[0], loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# info


def test_info_shared_pisot(tribo_path):
    proc = run_cli("info", "--subs", tribo_path)
    assert proc.returncode == 0
    out = proc.stdout
    assert "alphabet: abc" in out
    assert "same-matrix: yes" in out
    assert "matrix: [[1, 1, 1], [1, 0, 0], [0, 1, 0]]" in out
    assert "det: 1" in out
    assert "irreducible: yes" in out
    assert "primitive: yes (exponent 3)" in out
    assert "beta: 1.839286755214161" in out
    assert "pisot: yes" in out
    assert "unimodular: yes" in out
    lam = re.search(r"lambda: ([0-9.]+)", out)
    assert lam and abs(float(lam.group(1)) - 0.7373527057603281) < 1e-12


def test_info_different_matrices(sturmian_path):
    proc = run_cli("info", "--subs", sturmian_path)
    assert proc.returncode == 0
    assert "same-matrix: no" in proc.stdout
    assert "matrix zero:" in proc.stdout
    assert "matrix one:" in proc.stdout


def test_info_non_pisot(quartic_path):
    proc = run_cli("info", "--subs", quartic_path)
    assert proc.returncode == 0
    out = proc.stdout
    assert "pisot: no" in out
    assert "lambda: n/a" in out
    assert "det: -1" in out
    assert "unimodular: yes" in out


def test_info_five_bonacci_is_irreducible(tmp_path):
    # degree 5 is beyond the factor search, but a unimodular Pisot
    # characteristic polynomial is irreducible at any degree
    subs = tmp_path / "penta.subs"
    subs.write_text("alphabet: abcde\n\n[sub one]\na -> ab\nb -> ac\nc -> ad\nd -> ae\ne -> a\n")
    proc = run_cli("info", "--subs", str(subs))
    assert proc.returncode == 0
    out = proc.stdout
    assert "irreducible: yes" in out
    assert "unchecked" not in out
    assert "pisot: yes" in out
    assert "unimodular: yes" in out


def test_info_plastic_set(tmp_path):
    # x^3 - x - 1, the plastic number: unimodular Pisot
    subs = tmp_path / "plastic.subs"
    subs.write_text("alphabet: abc\n\n[sub one]\na -> b\nb -> c\nc -> ab\n\n[sub two]\na -> b\nb -> c\nc -> ba\n")
    proc = run_cli("info", "--subs", str(subs))
    assert proc.returncode == 0
    assert "irreducible: yes" in proc.stdout
    assert "pisot: yes" in proc.stdout


def test_zero_eigenvalue_is_indeterminate(tmp_path):
    # roots 2 and 0: info reports the undecided verdict, fractal refuses
    subs = tmp_path / "zero.subs"
    subs.write_text("alphabet: ab\n\n[sub one]\na -> ab\nb -> ab\n")
    proc = run_cli("info", "--subs", str(subs))
    assert proc.returncode == 0
    assert "pisot: indeterminate (an eigenvalue modulus is numerically zero)" in proc.stdout
    proc = run_cli("fractal", "--subs", str(subs), "--points", "100")
    assert proc.returncode == 3
    assert "error:" in proc.stderr


# ---------------------------------------------------------------------------
# domain refusals and malformed input


@pytest.mark.parametrize("cmd", ["info", "fractal"])
def test_non_utf8_file_is_parse_error(tmp_path, cmd):
    subs = tmp_path / "binary.subs"
    subs.write_bytes(b"\xff\xfe")
    proc = run_cli(cmd, "--subs", str(subs))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_fractal_refuses_non_pisot(quartic_path):
    proc = run_cli("fractal", "--subs", quartic_path, "--points", "500")
    assert proc.returncode == 3
    assert "error:" in proc.stderr


def test_fractal_refuses_unshared_matrices(sturmian_path):
    proc = run_cli("fractal", "--subs", sturmian_path, "--seq", "(12)", "--points", "500")
    assert proc.returncode == 3


def test_missing_file_is_parse_error(tmp_path):
    proc = run_cli("info", "--subs", str(tmp_path / "nope.subs"))
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_malformed_sequence_spec(tribo_path):
    proc = run_cli("fractal", "--subs", tribo_path, "--seq", "19", "--points", "100")
    assert proc.returncode == 2


def test_seed_requires_random(tribo_path):
    proc = run_cli("fractal", "--subs", tribo_path, "--seq", "(1)", "--seed", "7", "--points", "100")
    assert proc.returncode == 2
    assert "--seed only applies" in proc.stderr


def test_seed_expands_random(tribo_path):
    proc = run_cli("fractal", "--subs", tribo_path, "--seq", "random", "--seed", "9", "--points", "200")
    assert proc.returncode == 0
    assert "sequence: random:9" in proc.stdout


def test_bad_geometry_and_counts(tribo_path, tmp_path):
    out = str(tmp_path / "x.ppm")
    proc = run_cli(
        "fractal", "--subs", tribo_path, "--points", "100",
        "--out", out, "--format", "ppm", "--width", "8",
    )
    assert proc.returncode == 2
    proc = run_cli(
        "fractal", "--subs", tribo_path, "--points", "100",
        "--out", out, "--format", "ppm", "--margin", "0.7",
    )
    assert proc.returncode == 2
    assert run_cli("fractal", "--subs", tribo_path, "--points", "0").returncode == 2
    assert run_cli("gifs", "--subs", tribo_path, "--depth", "0").returncode == 2


def test_bad_geometry_refused_before_compute(tribo_path, tmp_path):
    proc = run_cli(
        "fractal", "--subs", tribo_path, "--points", "200000",
        "--width", "8", "--out", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 2
    assert "width and height" in proc.stderr
    assert "sequence:" not in proc.stdout
    assert not (tmp_path / "x.csv").exists()


def test_negative_chain_refused(tribo_path):
    proc = run_cli("fractal", "--subs", tribo_path, "--points", "100", "--chain", "-1")
    assert proc.returncode == 2
    assert "--chain" in proc.stderr
    assert "sequence:" not in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["balance", "--len", "0"],
        ["balance", "--len", "50", "--k-max", "80"],
        ["balance", "--len", "50", "--k-max", "0"],
        ["balance", "--len", "50", "--factor-len", "40"],
        ["balance", "--len", "50", "--factor-len", "-1"],
        ["cover", "--step", "0"],
        ["cover", "--step", "nan"],
        ["cover", "--radius", "-1"],
        ["cover", "--eps", "0"],
        ["cover", "--eps", "-1"],
        ["cover", "--eps", "nan"],
        ["cover", "--eps", "inf"],
        ["cover", "--points", "0"],
        ["continuity", "--base", "(1)", "--variant", "(2)", "--stride", "0"],
        ["continuity", "--base", "(1)", "--variant", "(2)", "--points", "0"],
        ["continuity", "--base", "(1)", "--variant", "(2)", "--n-min", "-1"],
        ["continuity", "--base", "(1)", "--variant", "(2)", "--n-min", "5", "--n-max", "2"],
        ["fractal", "--budget", "5"],
        ["compare", "--tol", "nan"],
        ["compare", "--tol", "-1"],
        ["compare", "--tol", "inf"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_flags_refused_before_output(tribo_path, argv):
    proc = run_cli(argv[0], "--subs", tribo_path, *argv[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# resource budgets


@pytest.mark.parametrize(
    "argv",
    [
        ["fractal", "--points", "100", "--format", "ppm"],
        ["gifs", "--depth", "4", "--format", "ppm"],
    ],
    ids=lambda argv: argv[0],
)
def test_image_over_pixel_cap_refused_before_compute(tribo_path, tmp_path, argv):
    # one row over 4096x4096: small enough to allocate were the cap missing
    out = tmp_path / "x.ppm"
    proc = run_cli(*argv, "--subs", tribo_path, "--out", str(out), "--width", "4096", "--height", "4097")
    assert proc.returncode == 4
    assert "exceeds the cap of 16777216 pixels" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_render_over_pixel_cap_refused_before_reading(tmp_path):
    # the input does not exist: reading it first would be exit 2
    missing, out = tmp_path / "missing.csv", tmp_path / "x.ppm"
    proc = run_cli("render", "--in", str(missing), "--out", str(out), "--width", "4097", "--height", "4096")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert not out.exists()


def test_image_at_pixel_cap_is_rendered(tribo_path, tmp_path):
    out = tmp_path / "x.ppm"
    proc = run_cli(
        "fractal", "--subs", tribo_path, "--points", "100", "--format", "ppm",
        "--out", str(out), "--width", "16", "--height", str(4096 * 256),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size == len(b"P6\n16 1048576\n255\n") + 3 * 4096 * 4096


@pytest.mark.parametrize(
    "argv",
    [["--radius", "1e300", "--step", "1e-300"], ["--radius", "1e308", "--step", "1"]],
    ids=lambda argv: " ".join(argv),
)
def test_cover_grid_over_cap_refused(tribo_path, argv):
    # the grid's size overflows an integer: the cap is tested in float
    proc = run_cli("cover", "--subs", tribo_path, "--points", "2000", *argv)
    assert proc.returncode == 4
    assert "coverage grid too fine" in proc.stderr
    assert proc.stdout == ""


def test_cover_grid_refused_before_the_cloud(tribo_path, monkeypatch, capsys):
    # the grid's size needs only the flags and d: no cloud is projected
    from rauzy import cli

    def project_prefixes(*args, **kwargs):
        raise AssertionError("cloud built before the grid cap")

    monkeypatch.setattr(cli, "project_prefixes", project_prefixes)
    argv = ["cover", "--subs", tribo_path, "--points", "2000000", "--radius", "1e308", "--step", "1"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "coverage grid too fine" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gifs", "--depth", "1000000000", "--budget", "100"], "exceeds the cap of 1000"),
        (["compare", "--depth", "1000000000", "--budget", "100"], "exceeds the cap of 1000"),
        (["continuity", "--base", "(1)", "--variant", "(2)", "--n-max", "1000000000"], "exceed the cap of 1000"),
    ],
    ids=["gifs", "compare", "continuity"],
)
def test_work_caps_refused_before_compute(tribo_path, argv, message):
    # linear in the flag's value, so run only if the refusal came first
    proc = run_cli(argv[0], "--subs", tribo_path, *argv[1:], timeout=60)
    assert proc.returncode == 4
    assert message in proc.stderr
    assert proc.stdout == ""


def test_work_caps_admit_their_bound():
    parser = build_parser()
    continuity = ["continuity", "--subs", "x", "--base", "(1)", "--variant", "(2)", "--n-min", "0"]
    for argv in (
        ["gifs", "--subs", "x", "--depth", str(MAX_DEPTH)],
        [*continuity, "--n-max", str(MAX_CONTINUITY_ROWS - 1)],
        [*continuity, "--n-max", str(5 * MAX_CONTINUITY_ROWS - 1), "--stride", "5"],
    ):
        _check_flags(parser.parse_args(argv))
    for argv in (
        ["compare", "--subs", "x", "--depth", str(MAX_DEPTH + 1)],
        [*continuity, "--n-max", str(MAX_CONTINUITY_ROWS)],
    ):
        with pytest.raises(ResourceError):
            _check_flags(parser.parse_args(argv))


def test_budget_flag(tribo_path):
    proc = run_cli("fractal", "--subs", tribo_path, "--points", "2000", "--budget", "1999")
    assert proc.returncode == 4
    assert "exceeds budget" in proc.stderr


def test_budget_env(tribo_path):
    proc = run_cli(
        "fractal", "--subs", tribo_path, "--points", "2000",
        env_extra={"RAUZY_POINT_BUDGET": "1000"},
    )
    assert proc.returncode == 4
    # a malformed or too-small budget is malformed input, as `--budget 50` is
    for command, size in (("fractal", "--points"), ("gifs", "--depth")):
        for value in ("many", "50"):
            proc = run_cli(
                command, "--subs", tribo_path, size, "5", env_extra={"RAUZY_POINT_BUDGET": value}
            )
            assert proc.returncode == 2, (command, value)
            assert proc.stdout == ""
            assert "RAUZY_POINT_BUDGET" in proc.stderr


def test_stalling_sequence_exhausts(sturmian_path):
    # the constant first substitution never grows the limit word
    proc = run_cli("balance", "--subs", sturmian_path, "--seq", "(1)", "--len", "1000")
    assert proc.returncode == 4
    assert "stall" in proc.stderr


# ---------------------------------------------------------------------------
# artifact round trips


def test_fractal_csv_ppm_and_render_round_trip(tribo_path, tmp_path):
    out_csv = str(tmp_path / "cloud.csv")
    geometry = ["--width", "200", "--height", "160", "--margin", "0.05"]
    proc = run_cli(
        "fractal", "--subs", tribo_path, "--points", "3000",
        "--out", out_csv, "--format", "both", *geometry,
    )
    assert proc.returncode == 0
    out_ppm = str(tmp_path / "cloud.ppm")
    assert os.path.exists(out_csv) and os.path.exists(out_ppm)
    with open(out_ppm, "rb") as f:
        data = f.read()
    assert data.startswith(b"P6\n200 160\n255\n")
    assert len(data) == len(b"P6\n200 160\n255\n") + 3 * 200 * 160

    redrawn = str(tmp_path / "again.ppm")
    proc = run_cli("render", "--in", out_csv, "--out", redrawn, *geometry)
    assert proc.returncode == 0
    with open(redrawn, "rb") as f:
        assert f.read() == data


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_render_reads_a_pipe(tribo_path, tmp_path):
    csv = str(tmp_path / "cloud.csv")
    assert run_cli("fractal", "--subs", tribo_path, "--points", "3000", "--out", csv).returncode == 0
    from_file = str(tmp_path / "file.ppm")
    assert run_cli("render", "--in", csv, "--out", from_file).returncode == 0
    with open(csv, encoding="ascii") as f:
        text = f.read()
    # a CRLF copy is refused by the numpy parser and read line by line from
    # the same piped bytes
    for piped in (text, text.replace("\n", "\r\n")):
        from_pipe = str(tmp_path / "pipe.ppm")
        proc = run_cli("render", "--in", "/dev/stdin", "--out", from_pipe, stdin_text=piped)
        assert proc.returncode == 0, proc.stderr
        with open(from_pipe, "rb") as a, open(from_file, "rb") as b:
            assert a.read() == b.read()


def test_render_refuses_non_finite_csv(tmp_path):
    csv = tmp_path / "nan.csv"
    csv.write_text("letter,x1,x2\n1,0.5,0.25\n2,nan,0.5\n3,0.0,inf\n", encoding="ascii")
    out = tmp_path / "nan.ppm"
    proc = run_cli("render", "--in", str(csv), "--out", str(out))
    assert proc.returncode == 2
    assert "line 3: non-finite coordinate" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


def test_render_refuses_unreadable_input(tmp_path):
    missing = run_cli("render", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "a.ppm"))
    assert missing.returncode == 2
    assert "cannot read" in missing.stderr
    csv = tmp_path / "latin.csv"
    csv.write_bytes(b"letter,x1,x2\n1,0.5,0.25\n2,0.5,\xb10.5\n")
    proc = run_cli("render", "--in", str(csv), "--out", str(tmp_path / "b.ppm"))
    assert proc.returncode == 2
    assert "line 3: malformed row" in proc.stderr


def test_fractal_deterministic_bytes(tribo_path, tmp_path):
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    for path in (first, second):
        proc = run_cli(
            "fractal", "--subs", tribo_path, "--seq", "random:4",
            "--points", "2000", "--out", path, "--format", "csv",
        )
        assert proc.returncode == 0
    assert Path(first).read_bytes() == Path(second).read_bytes()


def test_gifs_reports_bounds(tribo_path):
    proc = run_cli("gifs", "--subs", tribo_path, "--seq", "(2)", "--depth", "8")
    assert proc.returncode == 0
    assert "error-bound:" in proc.stdout
    assert "within-bound: yes" in proc.stdout


# ---------------------------------------------------------------------------
# verification commands


def test_check_passes_and_line_format(tribo_path):
    proc = run_cli("check", "--subs", tribo_path)
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.startswith("check ")]
    assert len(lines) == 7
    pattern = re.compile(r"^check [a-z-]+: (PASS|FAIL) measured=\S+ threshold=\S+$")
    assert all(pattern.match(l) for l in lines)
    assert all(": PASS " in l for l in lines)
    assert "checks: all passed" in proc.stdout


@pytest.mark.parametrize(
    "fault,name",
    [("ratio", "contraction"), ("translation", "set-equation")],
)
def test_check_catches_injected_faults(tribo_path, fault, name):
    proc = run_cli("check", "--subs", tribo_path, "--inject-fault", fault)
    assert proc.returncode == 1
    assert f"check {name}: FAIL" in proc.stdout


@pytest.mark.parametrize(
    "subs,spec,fault",
    [
        ("tribo", "(1)", None),
        ("tribo", "(1)", "translation"),
        ("plastic", "random:2", None),
        ("tetra", "(1)", None),
        ("fib", "(1)", None),
        ("penta", "(1)", None),
    ],
)
def test_check_prints_the_library_records(data_dir, capsys, subs, spec, fault):
    path = str(data_dir / f"{subs}.subs")
    sset = SubstitutionSet(load_substitution_file(path))
    checks = invariant_checks(parse_sequence_spec(spec, len(sset)), sset, fault=fault)
    argv = ["check", "--subs", path, "--seq", spec]
    code = main(argv + ["--inject-fault", fault] if fault else argv)
    failed = sum(not c.ok for c in checks)
    lines = [
        f"check {c.name}: {'PASS' if c.ok else 'FAIL'} measured={c.measured} threshold={c.threshold}"
        for c in checks
    ]
    lines.append(f"checks: {f'{failed} FAILED' if failed else 'all passed'}")
    assert code == (1 if failed else 0)
    assert failed == (fault is not None)
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "subs,spec",
    [("quartic", "(1)"), ("doubling", "(1)"), ("sturmian", "(1)"), ("tribo", "12")],
    ids=["not-pisot", "det-0", "unequal-matrices", "finite-sequence"],
)
def test_check_refuses_before_any_line(data_dir, capsys, subs, spec):
    assert main(["check", "--subs", str(data_dir / f"{subs}.subs"), "--seq", spec]) == 3
    assert capsys.readouterr().out == ""


def test_compare_tolerance_gate(tribo_path):
    args = [
        "compare", "--subs", tribo_path, "--seq", "(1)",
        "--points", "5000", "--depth", "7",
    ]
    passing = run_cli(*args, "--tol", "1.0")
    assert passing.returncode == 0
    assert "PASS" in passing.stdout
    failing = run_cli(*args, "--tol", "1e-12")
    assert failing.returncode == 1
    assert "FAIL" in failing.stdout


def test_cover_origin(tribo_path):
    proc = run_cli(
        "cover", "--subs", tribo_path, "--points", "2000",
        "--radius", "0", "--step", "0.5",
    )
    assert proc.returncode == 0
    assert "coverage: 1.0000 (1/1" in proc.stdout


def test_cover_five_bonacci_runs_with_warnings_as_errors(tmp_path):
    # a unimodular Pisot matrix of degree 5: its characteristic polynomial
    # is irreducible, so the lattice rank needs no warning
    subs = tmp_path / "penta.subs"
    subs.write_text("alphabet: abcde\n\n[sub one]\na -> ab\nb -> ac\nc -> ad\nd -> ae\ne -> a\n")
    env = os.environ.copy()
    env.pop("RAUZY_POINT_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rauzy", "cover", "--subs", str(subs),
         "--points", "2000", "--radius", "0.5", "--step", "0.25"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "coverage: 1.0000 (625/625" in proc.stdout


def test_balance_and_gaps(tribo_path):
    proc = run_cli(
        "balance", "--subs", tribo_path, "--len", "2000",
        "--k-max", "3", "--factor-len", "2",
    )
    assert proc.returncode == 0
    assert "max-c-over-windows:" in proc.stdout
    assert "factor-gaps len=2:" in proc.stdout


def test_continuity_smoke(tribo_path):
    proc = run_cli(
        "continuity", "--subs", tribo_path, "--base", "(1)", "--variant", "(2)",
        "--n-min", "2", "--n-max", "6", "--stride", "2", "--points", "8000",
    )
    assert proc.returncode == 0
    assert proc.stdout.count("agree ") == 3
    assert "lambda:" in proc.stdout


def test_continuity_accepts_n_min_zero(tribo_path):
    # cut 0 measures the variant's fractal against the base's
    proc = run_cli(
        "continuity", "--subs", tribo_path, "--base", "(1)", "--variant", "(2)",
        "--n-min", "0", "--n-max", "1", "--points", "2000",
    )
    assert proc.returncode == 0
    assert "agree   0: hausdorff" in proc.stdout
