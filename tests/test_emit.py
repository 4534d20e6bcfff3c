"""Serialization and rendering tests: CSV round trips and PPM rasters."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rauzy import emit
from rauzy.core import DomainError, ParseError
from rauzy.emit import (
    default_colors,
    read_points_csv,
    render_ppm,
    write_points_csv,
)
from rauzy.fractal import RauzyApprox, hausdorff, project_prefixes
from rauzy.adic import DirectiveSequence

CONST_1 = DirectiveSequence.periodic((), (0,))

# -0.0, the smallest subnormal, a mid-range subnormal, the smallest normal,
# huge and tiny magnitudes, integers stored as floats, and 0.1
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, -1e300,
    1.7976931348623157e308, 3.0, -7.0, 1e16, 0.1,
]


def reference_csv(approx):
    """The points CSV format, one float at a time."""
    k = approx.d - 1
    lines = ["letter," + ",".join(f"x{i + 1}" for i in range(k))]
    for letter in sorted(approx.points):
        for row in approx.points[letter]:
            lines.append(str(letter) + "," + ",".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_read(path):
    """The line-by-line reader the format is defined by: (letter, coords)
    pairs in file order, or the ParseError message."""
    with open(path, "r", encoding="ascii", errors="replace") as f:
        header = f.readline().strip()
        cols = header.split(",")
        if len(cols) < 2 or cols[0] != "letter" or cols[1] != "x1":
            return f"{path}: not a points CSV (header {header!r})"
        k = len(cols) - 1
        rows = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != k + 1:
                return f"{path} line {lineno}: expected {k + 1} fields"
            try:
                letter = int(fields[0])
                coords = [float(v) for v in fields[1:]]
            except ValueError:
                return f"{path} line {lineno}: malformed row"
            if not 1 <= letter <= k + 1:
                return f"{path} line {lineno}: letter {letter} outside 1..{k + 1}"
            if not all(math.isfinite(v) for v in coords):
                return f"{path} line {lineno}: non-finite coordinate"
            rows.append((letter, coords))
    return rows if rows else f"{path}: no points"


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _edge_cloud(d, rng):
    """Letter 1 holds every edge value, letter 2 is empty, the rest random."""
    k = d - 1
    edge = np.column_stack([np.roll(EDGE_VALUES, j) for j in range(k)])
    points = {1: edge, 2: np.zeros((0, k))}
    for i in range(3, d + 1):
        points[i] = rng.normal(size=(40, k)) * 10.0 ** rng.integers(-12, 12, size=(40, k))
    return RauzyApprox(points=points, d=d)


def test_csv_float_text_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    approx = RauzyApprox(
        points={1: np.array([[0.1], [1.0]]), 2: rng.normal(size=(50, 1))}, d=2
    )
    path = tmp_path / "floats.csv"
    write_points_csv(approx, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[1:3] == ["1,0.10000000000000001", "1,1"]
    back = read_points_csv(str(path))
    assert np.array_equal(back.points[2], approx.points[2])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_csv_bytes_match_per_float_reference(d, tmp_path, monkeypatch):
    approx = _edge_cloud(d, np.random.default_rng(d))
    path = str(tmp_path / "edge.csv")
    write_points_csv(approx, path)
    with open(path, "rb") as f:
        assert f.read() == reference_csv(approx)
    # chunk boundaries inside a letter's rows give the same bytes
    monkeypatch.setattr(emit, "_CHUNK_ROWS", 5)
    chunked = str(tmp_path / "chunked.csv")
    write_points_csv(approx, chunked)
    with open(chunked, "rb") as f:
        assert f.read() == reference_csv(approx)
    back = read_points_csv(path)
    assert back.d == d
    for i in range(1, d + 1):
        assert back.points[i].shape == (len(approx.points[i]), d - 1)
        assert np.array_equal(_bits(back.points[i]), _bits(approx.points[i]))


def _assert_csv_matches_reference(values, tmp_path, name="values.csv"):
    """Write the floats as a one-coordinate cloud and as the rows of a
    two-coordinate cloud, and compare both files with the per-float reference."""
    x = np.asarray(values, dtype=float)
    clouds = [RauzyApprox(points={1: x.reshape(-1, 1), 2: np.zeros((0, 1))}, d=2)]
    if len(x) >= 2:
        pairs = np.column_stack([x, np.roll(x, 1)])
        clouds.append(RauzyApprox(points={1: pairs[::2], 2: pairs[1::2], 3: pairs[:0]}, d=3))
    for approx in clouds:
        path = str(tmp_path / name)
        write_points_csv(approx, path)
        with open(path, "rb") as f:
            assert f.read() == reference_csv(approx)


_FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(
        st.one_of(_FLOAT_BITS, st.floats(allow_nan=False, allow_infinity=False)).filter(math.isfinite),
        min_size=1,
        max_size=40,
    )
)
def test_csv_float_text_matches_format_on_any_bit_pattern(values, tmp_path):
    _assert_csv_matches_reference(values, tmp_path)


def _ulps(x, n=1):
    """x and its n nearest neighbours on each side, both signs."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out + [-v for v in out]


def _exact_ties():
    # m/4 with m odd lies in [1e15, 2.25e15) and ends in .25 or .75, so its
    # 17th significant digit is followed by exactly 5: a half-way case
    m = np.random.default_rng(5).integers(4 * 10**15, 9 * 10**15, size=200) | 1
    return list(m / 4) + [(4 * 10**15 + 1) / 4, (9 * 10**15 - 1) / 4]


FORMAT_BOUNDARIES = {
    "powers_of_ten": [v for e in range(-6, 19) for v in _ulps(10.0**e, 2)],
    "fixed_range_ends": _ulps(1e-4, 3) + _ulps(1e16, 3) + _ulps(1e17, 3),
    "zeros_subnormals_max": [
        0.0, -0.0, 5e-324, -5e-324, 2.5e-320, -1.5e-310,
        2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
    ],
    "exact_ties": _exact_ties(),
    # values whose 17-digit significand is at or next to a carry into 10**17
    "carry_to_1e17": [
        v
        for k in range(0, 22)
        for top in (10**17 - 1, 10**17 - 0.5, 10**17, 10**17 + 1)
        for v in _ulps(top / 10.0**k, 1)
    ],
}


@pytest.mark.parametrize("name", sorted(FORMAT_BOUNDARIES))
def test_csv_float_text_at_format_boundaries(name, tmp_path):
    _assert_csv_matches_reference(FORMAT_BOUNDARIES[name], tmp_path)


def test_csv_cloud_values_take_the_vector_path(tribo_set, tmp_path, monkeypatch):
    approx = project_prefixes(CONST_1, tribo_set, 20_000)
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    # the writer looks format up in its module first, before the builtins
    monkeypatch.setattr(emit, "format", counting_format, raising=False)
    path = str(tmp_path / "cloud.csv")
    write_points_csv(approx, path)
    with open(path, "rb") as f:
        assert f.read() == reference_csv(approx)
    values = sum(pts.size for pts in approx.points.values())
    assert values == 40_000
    assert len(calls) <= 0.01 * values


@pytest.mark.parametrize("candidate", ["long double", "double"])
def test_csv_cloud_values_take_the_numpy_reader(candidate, tribo_set, tmp_path, monkeypatch):
    approx = project_prefixes(CONST_1, tribo_set, 20_000)
    path = str(tmp_path / "cloud.csv")
    write_points_csv(approx, path)
    if candidate == "double":
        # as where long double is no wider than double: candidates can be an
        # ulp or two off, and the retry and float() still read every value
        tables = emit._tables()
        narrow = tables._replace(pow10_long=tables.pow10_long.astype(np.float64))
        monkeypatch.setattr(emit, "_tables", lambda: narrow)
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    # the reader looks float up in its module first, before the builtins
    monkeypatch.setattr(emit, "float", counting_float, raising=False)
    back = read_points_csv(path)
    for i in (1, 2, 3):
        assert np.array_equal(_bits(back.points[i]), _bits(approx.points[i]))
    values = sum(pts.size for pts in approx.points.values())
    assert values == 40_000
    assert len(calls) <= 0.01 * values


def _bulk_only(monkeypatch):
    def line_reader(*args):
        raise AssertionError("the file fell back to the line-by-line reader")

    monkeypatch.setattr(emit, "_parse_rows", line_reader)


def test_csv_written_files_take_the_bulk_reader(tribo_set, tmp_path, monkeypatch):
    approx = project_prefixes(CONST_1, tribo_set, 2000)
    path = str(tmp_path / "cloud.csv")
    write_points_csv(approx, path)
    _bulk_only(monkeypatch)
    back = read_points_csv(path)
    for i in (1, 2, 3):
        assert np.array_equal(back.points[i], approx.points[i])


def test_default_colors():
    pal = default_colors(3)
    assert pal == [(230, 57, 70), (69, 123, 157), (42, 157, 143)]
    wide = default_colors(6)
    assert len(wide) == 6
    assert len(set(wide)) == 6
    assert all(0 <= c <= 255 for rgb in wide for c in rgb)
    assert wide[:3] == pal


def test_csv_round_trip_bit_exact(tribo_set, tmp_path):
    approx = project_prefixes(CONST_1, tribo_set, 3000)
    path = str(tmp_path / "cloud.csv")
    write_points_csv(approx, path)
    back = read_points_csv(path)
    assert back.d == approx.d
    for i in (1, 2, 3):
        assert np.array_equal(back.points[i], approx.points[i])
    assert hausdorff(back.union(), approx.union()).distance == 0.0


def test_csv_round_trip_preserves_empty_subtiles(tmp_path):
    approx = RauzyApprox(
        points={1: np.array([[0.5, -1.5]]), 2: np.zeros((0, 2)), 3: np.zeros((0, 2))},
        d=3,
    )
    path = str(tmp_path / "one.csv")
    write_points_csv(approx, path)
    back = read_points_csv(path)
    assert len(back.points[1]) == 1
    assert len(back.points[2]) == 0
    assert len(back.points[3]) == 0


def test_csv_write_deterministic(tribo_set, tmp_path):
    approx = project_prefixes(CONST_1, tribo_set, 500)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_points_csv(approx, p1)
    write_points_csv(approx, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="ascii")
    return str(p)


def test_csv_read_rejects_bad_header(tmp_path):
    path = _write(tmp_path, "bad.csv", "foo,bar\n1,0.0\n")
    with pytest.raises(ParseError, match="not a points CSV"):
        read_points_csv(path)


def test_csv_read_reports_line_numbers(tmp_path):
    short = _write(tmp_path, "short.csv", "letter,x1,x2\n1,0.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_points_csv(short)
    garbled = _write(tmp_path, "garbled.csv", "letter,x1,x2\n1,0.0,0.0\n2,zero,0.0\n")
    with pytest.raises(ParseError, match="line 3: malformed"):
        read_points_csv(garbled)
    rogue = _write(tmp_path, "rogue.csv", "letter,x1,x2\n9,0.0,0.0\n")
    with pytest.raises(ParseError, match="letter 9 outside 1..3"):
        read_points_csv(rogue)
    blank = _write(tmp_path, "blank.csv", "letter,x1,x2\n1,0.0,0.0\n\n2,zero,0.0\n")
    with pytest.raises(ParseError, match="line 4: malformed"):
        read_points_csv(blank)
    comment = _write(tmp_path, "comment.csv", "letter,x1,x2\n1,0.0,0.0\n# note\n")
    with pytest.raises(ParseError, match="line 3: expected 3 fields"):
        read_points_csv(comment)
    float_letter = _write(tmp_path, "float_letter.csv", "letter,x1,x2\n1,0.0,0.0\n1.0,0.0,0.0\n")
    with pytest.raises(ParseError, match="line 3: malformed"):
        read_points_csv(float_letter)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "-Infinity"])
def test_csv_read_rejects_non_finite(bad, tmp_path):
    path = _write(tmp_path, "nonfinite.csv", f"letter,x1,x2\n1,0.0,0.0\n\n2,0.5,{bad}\n")
    with pytest.raises(ParseError, match="line 4: non-finite coordinate"):
        read_points_csv(path)


# Fuzzed bodies for a header of k = 2 or k = 11 coordinates: either clean
# rows only (a letter and k numbers each), or a mix of clean rows, blank
# lines and rough rows of k to k + 2 fields, each field a token at times
# wrapped in whitespace, control characters or other stray bytes.  The
# numbers cover the forms the numpy parser reads itself ([-]digits[.digits],
# from 1 to 27 bytes), the texts the writer prints for any bit pattern, and
# texts that only float() accepts; the rough tokens add texts nothing does.
# The header ends with the body's newline, and the body may end with one.
_JUNK = st.sampled_from([""] * 8 + [" ", "\t", "\r", "\x0b", "\x1c", "\x1f", "\x00", "\xe9", "_", "#"])
_ODD_NUMBERS = [
    "0.5", ".5", "5.", "-.5", "-0", "-0.0", "0.50", "00.5", "+2", "1_0", "1e0", "-2.5e-3", "1_5.0",
    "0." + "1" * 22, "-0." + "1" * 21, "0." + "1" * 23, "-" + "9" * 23, "9" * 25,
]
_BAD_TOKENS = [
    "", "-", ".", "-.", "--1", "1.2.3", "1-2", "0x1", "nan", "-inf", "1e400", "1.0", "-1", "0", "1.", "0:",
]
_DIGITS = st.tuples(
    st.sampled_from(["", "-"]),
    st.one_of(st.text("0123456789", min_size=1, max_size=25), st.text("0123456789", min_size=18, max_size=25)),
    st.integers(-1, 25),
).map(lambda t: t[0] + (t[1] if t[2] < 0 else t[1][: t[2]] + "." + t[1][t[2] :]))
_NUMBER = st.one_of(
    _DIGITS, _FLOAT_BITS.filter(math.isfinite).map("{:.17g}".format), st.sampled_from(_ODD_NUMBERS)
)


def _fuzz_case(k):
    letter = st.one_of(st.integers(1, k + 1).map(str), st.sampled_from(["01", "+2"]))
    clean = st.tuples(letter, st.lists(_NUMBER, min_size=k, max_size=k)).map(lambda t: ",".join([t[0], *t[1]]))
    token = st.one_of(letter, _NUMBER, st.sampled_from(_BAD_TOKENS + [str(k + 2)]))
    rough = st.lists(st.tuples(_JUNK, token, _JUNK).map("".join), min_size=k, max_size=k + 2).map(",".join)
    rows = st.one_of(st.lists(clean, min_size=1, max_size=6), st.lists(st.one_of(clean, rough, _JUNK), max_size=6))
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    return st.tuples(st.just(k), newline, rows, st.booleans()).map(
        lambda t: (t[0], t[1], t[1].join(t[2]) + t[1] * t[3])
    )


def _assert_reads_as_reference(path, k):
    """read_points_csv gives the reference's points bit for bit, or raises
    the reference's ParseError text."""
    expected = reference_read(path)
    try:
        got = read_points_csv(path)
    except ParseError as e:
        assert str(e) == expected
        return
    assert not isinstance(expected, str), f"accepted a file the reference rejects: {expected}"
    assert got.d == k + 1
    for i in range(1, k + 2):
        want = np.array([c for letter, c in expected if letter == i], dtype=float).reshape(-1, k)
        assert np.array_equal(_bits(got.points[i]), _bits(want))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from([2, 11]).flatmap(_fuzz_case))
def test_csv_reader_agrees_with_line_reference(case, tmp_path):
    k, newline, body = case
    path = str(tmp_path / "fuzz.csv")
    with open(path, "w", encoding="latin-1", newline="") as f:
        f.write("letter," + ",".join(f"x{i + 1}" for i in range(k)) + newline + body)
    _assert_reads_as_reference(path, k)


# fields the numpy parser must not misread: several dots, no digit, more
# bytes than its window (the last 24 of these 25 read as 0.1), digits whose
# integer wraps around in 64 bits (to 12345), and two-byte letters whose
# second byte is not a digit
@pytest.mark.parametrize(
    "letter, field",
    [("2", v) for v in ["1.2.3", "1..2", "0.5.", ".1.2", ".", "-", "-.", "", "1000000.10000000000000001",
                        "-9000000.10000000000000001", "18446744073709563961", "-36893488147419115577",
                        "1e5", "+1.5", "1_0.5"]]
    + [(v, "0.5") for v in ["1.", "1-", "0:", "1)", "1(", "+3", "02", "3_"]],
)
def test_csv_reader_odd_fields(letter, field, tmp_path):
    path = _write(tmp_path, "odd.csv", f"letter,x1,x2\n1,0.5,0.25\n{letter},{field},-0.75\n")
    _assert_reads_as_reference(path, 2)


def test_certificate_is_exact_integer_arithmetic():
    # 0.5 prints as the digits 5 * 10**16 with k = 17; read with 18 fraction
    # digits those digits are 0.05, not 0.5
    assert not emit._certified(np.array([0.5]), np.array([5 * 10**16]), np.array([18]))[0]
    # 1.5 prints as 15 * 10**15 with k = 16; (15 + 2**49) * 10**15 wraps
    # around to the same integer in 64 bits
    assert not emit._certified(np.array([1.5]), np.array([15 + 2**49]), np.array([1]))[0]
    assert emit._certified(np.array([1.5]), np.array([15]), np.array([1]))[0]


def _rows(letters, rng):
    """One CSV row of two random coordinates per letter."""
    return "".join(
        f"{a}," + ",".join(format(v, ".17g") for v in rng.normal(size=2) * 10.0 ** rng.integers(-6, 6, size=2)) + "\n"
        for a in letters
    )


# Blocks of 64 bytes hold one or two rows each, so every file below spans
# many blocks, each written into its slice of the preallocated rows.
def test_csv_reader_blocks_unsorted_letters(tmp_path, monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK_BYTES", 64)
    rng = np.random.default_rng(5)
    path = _write(tmp_path, "unsorted.csv", "letter,x1,x2\n" + _rows([3, 1, 2, 1, 3, 3, 2] * 7, rng))
    _bulk_only(monkeypatch)
    _assert_reads_as_reference(path, 2)


def test_csv_reader_blocks_last_row_without_newline(tmp_path, monkeypatch):
    monkeypatch.setattr(emit, "_BLOCK_BYTES", 64)
    rng = np.random.default_rng(6)
    path = _write(tmp_path, "open.csv", "letter,x1,x2\n" + _rows([2, 1, 3] * 15, rng).rstrip("\n"))
    _bulk_only(monkeypatch)
    _assert_reads_as_reference(path, 2)
    assert read_points_csv(path).total() == 45


@pytest.mark.parametrize("bad", ["2,zero,0.5\n", "\n", "7,0.5,0.5\n", "1,0.5\n"])
def test_csv_reader_blocks_refused_partway(bad, tmp_path, monkeypatch):
    # the numpy parser takes the first blocks and refuses a late one; the
    # line-by-line reader then gives the verdict on the whole file (a blank
    # line it skips, and the rest it names by line)
    monkeypatch.setattr(emit, "_BLOCK_BYTES", 64)
    rng = np.random.default_rng(7)
    path = _write(tmp_path, "late.csv", "letter,x1,x2\n" + _rows([1, 2, 3] * 12, rng) + bad + _rows([3, 1], rng))
    parse_block, taken = emit._parse_block, []
    monkeypatch.setattr(emit, "_parse_block", lambda *args: taken.append(parse_block(*args)) or taken[-1])
    _assert_reads_as_reference(path, 2)
    assert taken[-1] is None and sum(b is not None for b in taken) > 10


def test_csv_read_holds_the_rows_once(tribo_set, tmp_path, traced_peak):
    # the file's bytes, the letters and coordinates (8(k + 1) bytes per row)
    # and one block's temporaries; no second copy of the rows
    n, k = 200_000, 2
    path = tmp_path / "cloud.csv"
    write_points_csv(project_prefixes(CONST_1, tribo_set, n), str(path))
    back, peak = traced_peak(lambda: read_points_csv(str(path)))
    assert back.total() == n
    assert peak < path.stat().st_size + 1.5 * 8 * (k + 1) * n


def test_csv_read_rejects_empty(tmp_path):
    path = _write(tmp_path, "empty.csv", "letter,x1,x2\n")
    with pytest.raises(ParseError, match="no points"):
        read_points_csv(path)


# ---------------------------------------------------------------------------
# rasterization


def _decode(data, width, height):
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    assert data[: len(header)] == header
    body = np.frombuffer(data[len(header):], dtype=np.uint8)
    return body.reshape(height, width, 3)


def test_render_header_and_size(tribo_set):
    approx = project_prefixes(CONST_1, tribo_set, 1000)
    data = render_ppm(approx, 120, 90)
    header = b"P6\n120 90\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 3 * 120 * 90


def test_render_single_point_hits_center():
    approx = RauzyApprox(
        points={1: np.array([[0.3, 0.7]]), 2: np.zeros((0, 2)), 3: np.zeros((0, 2))},
        d=3,
    )
    raster = _decode(render_ppm(approx, 64, 64), 64, 64)
    hits = np.argwhere((raster != 255).any(axis=2))
    assert len(hits) == 1
    row, col = hits[0]
    assert abs(col - 32) <= 1 and abs(row - 32) <= 1
    assert tuple(raster[row, col]) == (230, 57, 70)


def test_render_vertical_orientation():
    # the point with the larger second coordinate must land nearer the top
    approx = RauzyApprox(
        points={
            1: np.array([[0.0, 0.0]]),
            2: np.array([[0.0, 1.0]]),
            3: np.zeros((0, 2)),
        },
        d=3,
    )
    raster = _decode(render_ppm(approx, 32, 32, margin=0.1), 32, 32)
    rows_1 = np.argwhere((raster == (230, 57, 70)).all(axis=2))
    rows_2 = np.argwhere((raster == (69, 123, 157)).all(axis=2))
    assert len(rows_1) == 1 and len(rows_2) == 1
    assert rows_2[0][0] < rows_1[0][0]


def test_render_deterministic(tribo_set):
    approx = project_prefixes(CONST_1, tribo_set, 2000)
    assert render_ppm(approx, 100, 80) == render_ppm(approx, 100, 80)


def test_render_validation(tribo_set):
    approx = project_prefixes(CONST_1, tribo_set, 100)
    with pytest.raises(ValueError):
        render_ppm(approx, 0, 32)
    empty = RauzyApprox(
        points={i: np.zeros((0, 2)) for i in (1, 2, 3)}, d=3
    )
    with pytest.raises(DomainError):
        render_ppm(empty, 32, 32)


def test_render_exactly_three_colors(tribo_set):
    approx = project_prefixes(CONST_1, tribo_set, 20_000)
    raster = _decode(render_ppm(approx, 200, 150), 200, 150)
    flat = raster.reshape(-1, 3)
    shades = {tuple(c) for c in np.unique(flat, axis=0)}
    shades.discard((255, 255, 255))
    assert shades == {(230, 57, 70), (69, 123, 157), (42, 157, 143)}


@pytest.mark.parametrize("width, height, k", [(120, 90, 2), (7, 300, 2), (64, 64, 1), (33, 17, 3)])
def test_render_to_path_writes_the_returned_bytes(tmp_path, width, height, k):
    # the file gets the header and then the raster's buffer; the bytes
    # returned without a path, header + raster.tobytes(), are the reference
    rng = np.random.default_rng(width * height + k)
    approx = RauzyApprox(
        points={i: rng.normal(size=(50 * i, k)) for i in range(1, k + 2)}, d=k + 1
    )
    want = render_ppm(approx, width, height, margin=0.1)
    path = tmp_path / "out.ppm"
    path.write_bytes(b"x" * (len(want) + 100))  # an older, longer file is replaced
    assert render_ppm(approx, width, height, margin=0.1, path=str(path)) is None
    assert path.read_bytes() == want
    assert want[: len(f"P6\n{width} {height}\n255\n")] == f"P6\n{width} {height}\n255\n".encode()
