"""End-to-end command line tests, driven through subprocess, and in-process
runs of `rauzy.cli.main` where a test compares its output with the library."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rauzy.adic import SubstitutionSet, parse_sequence_spec
from rauzy.cli import MAX_CONTINUITY_ROWS, MAX_DEPTH, _check_flags, build_parser, main
from rauzy.core import ParseError, ResourceError, load_substitution_file
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
    # `check` pairs the set equation's clouds by index and builds none, and
    # `gifs` thins by grid cell
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
        f"    ['gifs', '--subs', {tribo_path!r}, '--budget', '200', '--depth', '12'],\n"
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


def test_info_when_beta_makes_the_polish_shift_singular(tmp_path, capsys):
    # M = [[1, 4], [2, 0]], beta = (1 + sqrt 33) / 2: Newton's beta is exact
    # to the last bit, so M - beta I is singular in floating point
    subs = tmp_path / "bab.subs"
    subs.write_text("alphabet: ab\n\n[sub one]\na -> bab\nb -> aaaa\n")
    assert main(["info", "--subs", str(subs)]) == 0
    out = capsys.readouterr().out
    assert "char-poly: x^2 - x - 8" in out
    assert re.search(r"^beta: 3\.37228132326901\d*$", out, re.M)
    assert "pisot: no" in out


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
        # balance builds no cloud and check's are fixed: neither takes --budget
        ["check", "--budget", "100"],
        ["balance", "--budget", "100"],
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


@pytest.mark.parametrize(
    "argv",
    [
        # image flags are checked also when no image is written
        ["fractal", "--points", "300", "--height", "-800"],
        ["gifs", "--depth", "3", "--margin", "0.5"],
        # an output path that names a directory, or a file in a missing one
        ["fractal", "--points", "300", "--out", "."],
        ["gifs", "--depth", "3", "--out", "no-such-dir/gifs.csv", "--format", "both"],
        ["fractal", "--points", "300", "--out", ""],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_image_flags_and_output_paths_refused_before_output(tribo_path, capsys, argv):
    assert main([argv[0], "--subs", tribo_path, *argv[1:]]) == 2
    assert capsys.readouterr().out == ""


def test_unwritable_output_is_a_resource_error(tribo_path, tmp_path, capsys, monkeypatch):
    # a write that fails after the checks (a full disk, a permission) is
    # exit 4 with no traceback
    from rauzy import cli

    def write_points_csv(approx, path):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "write_points_csv", write_points_csv)
    argv = ["fractal", "--subs", tribo_path, "--points", "300", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 4
    assert "cannot write" in capsys.readouterr().err


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


def test_factor_len_cap_refused_before_the_input_is_read(tmp_path, capsys):
    # a missing file would be exit 2, so exit 4 means the cap came first
    missing = str(tmp_path / "missing.subs")
    argv = ["balance", "--subs", missing, "--len", "200000", "--factor-len", "50000"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "over the cap of 134217728" in err


def test_work_caps_admit_their_bound():
    parser = build_parser()
    continuity = ["continuity", "--subs", "x", "--base", "(1)", "--variant", "(2)", "--n-min", "0"]
    balance = ["balance", "--subs", "x", "--factor-len", "8192"]
    for argv in (
        ["gifs", "--subs", "x", "--depth", str(MAX_DEPTH)],
        [*continuity, "--n-max", str(MAX_CONTINUITY_ROWS - 1)],
        [*continuity, "--n-max", str(5 * MAX_CONTINUITY_ROWS - 1), "--stride", "5"],
        [*balance, "--len", "49150"],
    ):
        _check_flags(parser.parse_args(argv))
    for argv in (
        ["compare", "--subs", "x", "--depth", str(MAX_DEPTH + 1)],
        [*continuity, "--n-max", str(MAX_CONTINUITY_ROWS)],
        [*balance, "--len", "49152"],
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


def test_budget_env_refused_before_input(quartic_path):
    # the shiftup file is not Pisot, which is exit 3 once a cloud is built;
    # the malformed budget is refused first, with the flags
    proc = run_cli("fractal", "--subs", quartic_path, env_extra={"RAUZY_POINT_BUDGET": "many"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "RAUZY_POINT_BUDGET" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["fractal"],
        ["gifs"],
        ["compare"],
        ["continuity", "--base", "(1)", "--variant", "(2)"],
        ["cover"],
        ["check"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_env_checked_with_the_flags(argv, monkeypatch):
    parser = build_parser()
    monkeypatch.setenv("RAUZY_POINT_BUDGET", "many")
    with pytest.raises(ParseError, match="RAUZY_POINT_BUDGET"):
        _check_flags(parser.parse_args([argv[0], "--subs", "unread.subs", *argv[1:]]))
    with_flag = [argv[0], "--subs", "unread.subs", *argv[1:], "--budget", "100"]
    if argv[0] in ("continuity", "check"):
        # no --budget: the variable is the one way to set their cap
        with pytest.raises(SystemExit, match="2"):
            parser.parse_args(with_flag)
    else:
        # --budget replaces the variable, which is then never read
        _check_flags(parser.parse_args(with_flag))


def test_budget_env_not_read_without_a_cloud(monkeypatch):
    parser = build_parser()
    monkeypatch.setenv("RAUZY_POINT_BUDGET", "many")
    for argv in (["info", "--subs", "x"], ["balance", "--subs", "x"], ["render", "--in", "x", "--out", "y"]):
        _check_flags(parser.parse_args(argv))


def test_info_refuses_an_oversized_splitting_table(tmp_path):
    # 62 letters and one 2000-letter image: 63 * 2001 * 62 table entries,
    # over the 2^22 cap, refused before the table is built
    symbols = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rules = [f"0 -> {'1' * 1999}0"] + [f"{c} -> {symbols[(i + 2) % 62]}" for i, c in enumerate(symbols[1:])]
    path = tmp_path / "wide.subs"
    path.write_text(f"alphabet: {symbols}\n\n[sub wide]\n" + "\n".join(rules) + "\n")
    proc = run_cli("info", "--subs", str(path))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "image-splitting table" in proc.stderr


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


def test_balance_builds_one_stepped_line(tribo_path, monkeypatch, capsys):
    from rauzy import adic

    lengths = []
    inner = adic.stepped_line

    def spy(word, d):
        lengths.append(len(word))
        return inner(word, d)

    monkeypatch.setattr(adic, "stepped_line", spy)
    assert main(["balance", "--subs", tribo_path, "--len", "3000", "--k-max", "7"]) == 0
    assert lengths == [3000]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:8]] == [f"k={k}" for k in range(1, 8)]


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


# ---------------------------------------------------------------------------
# the exit-code contract on generated argv, in process


def _run_main(argv, capsys):
    """main's exit code, an argparse refusal's SystemExit code included, and
    what the run printed on stdout."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().out


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cmd=st.sampled_from(["gifs", "compare"]),
    subs=st.sampled_from(["fib", "tribo", "plastic", "tetra", "penta"]),
    seq=st.sampled_from(["(1)", "(2)", "12(21)", "random:3", "random:17"]),
    budget=st.integers(100, 400),
    depth=st.integers(1, 14),
    points=st.integers(1, 400),
)
def test_generated_thinned_runs_keep_the_exit_contract(data_dir, capsys, monkeypatch, cmd, subs, seq, budget, depth, points):
    # budgets of 100-400 points thin every level past the first few, at
    # k = 1 to 4
    monkeypatch.delenv("RAUZY_POINT_BUDGET", raising=False)
    argv = [cmd, "--subs", str(data_dir / f"{subs}.subs"), "--seq", seq, "--budget", str(budget), "--depth", str(depth)]
    if cmd == "compare":
        argv += ["--points", str(points)]
    code, out = _run_main(argv, capsys)
    # a refusal prints nothing on stdout: a sequence spec naming a
    # substitution the set lacks is exit 2, a subtile the projection leaves
    # empty exit 3
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert "error-bound" in out
    else:
        assert out == ""


# small sizes for every command; the generated flag value comes last and
# overrides the one given here
_SMALL_ARGV = {
    "info": [],
    "fractal": ["--points", "300"],
    "gifs": ["--depth", "4", "--budget", "200"],
    "compare": ["--points", "300", "--depth", "4", "--budget", "300"],
    "continuity": ["--base", "(1)", "--variant", "(2)", "--n-max", "2", "--points", "300"],
    "balance": ["--len", "200", "--k-max", "3"],
    "cover": ["--points", "300", "--radius", "0.2", "--step", "0.1"],
    "check": [],
    "render": ["--out", "never-written.ppm"],
}
_BAD_INTS = ["", "x", "1.5", "1e3", "0x10", "nan"]
_BAD_FLOATS = ["", "x", "nan", "inf", "-inf", "1e999"]
_BAD_SEQS = ["((", "", "random:", "random:x", "1(", "(9)", "()"]
# values each flag refuses: its type's malformed text, then out-of-range values
_BAD_VALUES = {
    "--subs": ["", "no-such-file.subs", "."],
    "--in": ["", "no-such-file.csv", "."],
    "--seq": _BAD_SEQS,
    "--base": _BAD_SEQS,
    "--variant": _BAD_SEQS,
    "--seed": _BAD_INTS,
    "--chain": _BAD_INTS + ["-1"],
    "--budget": _BAD_INTS + ["-1", "0", "99"],
    "--points": _BAD_INTS + ["-3", "0"],
    "--depth": _BAD_INTS + ["-3", "0", "1001"],
    "--len": _BAD_INTS + ["-3", "0"],
    "--k-max": _BAD_INTS + ["0", "201"],
    "--factor-len": _BAD_INTS + ["-1", "101"],
    "--n-min": _BAD_INTS + ["-1", "3"],
    "--n-max": _BAD_INTS + ["-1"],
    "--stride": _BAD_INTS + ["-1", "0"],
    "--width": _BAD_INTS + ["-800", "15"],
    "--height": _BAD_INTS + ["-800", "15"],
    "--margin": _BAD_FLOATS + ["-0.1", "0.5"],
    "--step": _BAD_FLOATS + ["-1", "0"],
    "--radius": _BAD_FLOATS + ["-1"],
    "--eps": _BAD_FLOATS + ["-1", "0"],
    "--tol": _BAD_FLOATS + ["-1"],
    "--format": ["", "gif"],
    "--out": ["", ".", "no-such-dir/out.csv"],
    "--inject-fault": ["", "bogus"],
}


def _flags(cmd):
    """The long options of a command, from its parser."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "cmd"]
    return sorted(o for a in sub.choices[cmd]._actions for o in a.option_strings if o.startswith("--") and o != "--help")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_flag_values_exit_2_with_nothing_on_stdout(data_dir, capsys, monkeypatch, data):
    monkeypatch.delenv("RAUZY_POINT_BUDGET", raising=False)
    cmd = data.draw(st.sampled_from(sorted(_SMALL_ARGV)))
    flag = data.draw(st.sampled_from(_flags(cmd)))
    value = data.draw(st.sampled_from(_BAD_VALUES[flag]))
    head = [cmd, "--in", "no-such-file.csv"] if cmd == "render" else [cmd, "--subs", str(data_dir / "tribo.subs")]
    code, out = _run_main(head + _SMALL_ARGV[cmd] + [f"{flag}={value}"], capsys)
    assert code in (2, 4)
    if code == 2:
        assert out == ""


# ---------------------------------------------------------------------------
# the exit-code contract on generated substitution files


def _subs_file(symbols: str, blocks: list[list[str]]) -> str:
    """A substitution file over symbols: block k maps symbols[i] to blocks[k][i]."""
    text = f"alphabet: {symbols}\n"
    for k, images in enumerate(blocks):
        text += f"\n[sub s{k}]\n" + "".join(f"{c} -> {w}\n" for c, w in zip(symbols, images))
    return text


def _cyclic(symbols: str, *shifts: int) -> str:
    """One block per shift, each mapping symbols[i] to symbols[i + shift]:
    a permutation matrix, never primitive."""
    n = len(symbols)
    return _subs_file(symbols, [[symbols[(i + s) % n] for i in range(n)] for s in shifts])


_DEFAULT_SYMBOLS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _wide(n: int, shifts=(1, 2)) -> str:
    """n symbols past ASCII; the default two blocks have different
    matrices, so `info` prints them without the spectral work."""
    return _cyclic("".join(chr(0x100 + i) for i in range(n)), *shifts)


@st.composite
def _small_subs_files(draw) -> str:
    d = draw(st.integers(2, 8))
    symbols = _DEFAULT_SYMBOLS[:d]
    image = st.text(alphabet=symbols, min_size=1, max_size=4)
    count = draw(st.integers(1, 3))
    return _subs_file(symbols, [[draw(image) for _ in symbols] for _ in range(count)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_small_subs_files())
@example(text=_cyclic(_DEFAULT_SYMBOLS, 1))
@example(text=_cyclic(_DEFAULT_SYMBOLS, 5, 5))
@example(text=_wide(255))
@example(text=_wide(256))
@example(text=_wide(300))
@example(text=_wide(100, shifts=(1,)))
@example(text=_wide(255, shifts=(1,)))
def test_info_on_generated_files_keeps_the_exit_contract(tmp_path, capsys, text):
    # random non-erasing images at d = 2..8, the cyclic 62-letter files
    # whose primitivity test ran to the Wielandt bound in exact integers,
    # alphabets at and past the 255 letters a byte holds, and same-matrix
    # files over the 64-letter spectral cap, refused before any output
    path = tmp_path / "generated.subs"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out = _run_main(["info", "--subs", str(path)], capsys)
    assert time.perf_counter() - start < 10.0
    assert code in (0, 1, 2, 3, 4)
    if code == 2:
        assert out == ""
    size = len(text.splitlines()[0]) - len("alphabet: ")
    if size == 62:
        assert code == 0 and "primitive: no" in out
    if 64 < size <= 255 and text.count("[sub ") == 1:
        assert code == 4 and out == ""
    elif size >= 255:
        assert code == (0 if size == 255 else 2)


def test_balance_on_a_wide_cyclic_file_stalls_without_the_wielandt_loop(tmp_path, capsys):
    # a 255-letter permutation never grows: the tower stalls (exit 4), and
    # the primitivity look-ahead stops at its 64-level horizon
    path = tmp_path / "wide.subs"
    path.write_text(_wide(255, shifts=(1,)), encoding="utf-8")
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="primitive"):
        code, out = _run_main(["balance", "--subs", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
