"""Point-cloud serialization and rasterization.

CSV files carry one row per point with the 1-based letter first, floats
formatted with 17 significant digits (format(x, ".17g")) so a round trip is
bit-exact; coordinates must be finite.  Rows are formatted a chunk at a time
in numpy: an error-free product gives each float's 17 digits exactly, and
the few floats it cannot certify are formatted by format() into the same
byte matrix.  Files are parsed by numpy's C reader; a file that reader
refuses is read line by line, which names the first bad line.  Images are
binary PPM (P6), painted letter by letter in ascending order so output bytes
are a pure function of the input cloud.
"""

from __future__ import annotations

import colorsys
import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .core import DomainError, ParseError
from .fractal import RauzyApprox, _split_by_letter

_BASE_COLORS = [(230, 57, 70), (69, 123, 157), (42, 157, 143)]
_GOLDEN_ANGLE = 137.50776405003785
_CHUNK_ROWS = 65_536
# printable ASCII except the space, and the newline
_PLAIN_BYTES = bytes(range(33, 127)) + b"\n"
# largest image the CLI renders: a 4096x4096 raster is 48 MiB
MAX_PIXELS = 4096 * 4096
# bytes of one float's field: format(x, ".17g") is at most 24 long
# ("-2.2250738585072014e-308")
_FIELD = 24
# 10**k for k = 0..22, each exact in binary64
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1
# the 17-digit integers the fixed-notation kernel certifies lie in (_LOW, _HIGH)
_LOW, _HIGH = 10**16, 10**17
# A field is three little-endian 64-bit words.  A certified float starts as
# col 0 '-', cols 1-5 "0.000", col 6 '-', col 7 the leading digit and cols
# 8-23 the other 16 digits.  Below 1 (exponent E < 0) that is the text, less
# col 6.  From 1 up, cols 6..6+E take the byte above them and col 7+E turns
# into the dot, so the sign sits in col 5 and the digits from col 6.
_WORD = np.dtype("<u8")
_HEAD = int.from_bytes(b"-0.000-\0", "little")
_COLS = np.arange(_FIELD)


class _Tables(NamedTuple):
    group_words: np.ndarray
    group_zeros: np.ndarray
    shift_move: np.ndarray
    shift_dot: np.ndarray
    shift_stay: np.ndarray
    keep: np.ndarray


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 24 bytes (bool or uint8) as rows of three words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(_WORD)


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on the first write rather than at
    import, which every command pays:
    - each 4-digit group 0000..9999 as four ASCII bytes in the low half of
      a word, and its trailing zeros;
    - per dot place E + 1 (0: no shift) the masks of the bytes that move,
      the dot itself and the bytes that stay, one row per word;
    - per (E + 4, kept digits - 1, sign) for E = -4..15 the bytes a field
      keeps: below 1 the sign, "0." and -E - 1 zeros, then the digits; from
      1 up the sign, the E + 1 integer digits, and the dot and the fraction
      digits when any fraction digit is left."""
    digit = np.arange(10, dtype=_WORD) + ord("0")
    group_words = (
        digit[:, None, None, None]
        | digit[None, :, None, None] << 8
        | digit[None, None, :, None] << 16
        | digit[None, None, None, :] << 24
    ).ravel()
    group_zeros = sum((np.arange(10_000) % t == 0).astype(np.int64) for t in (10, 100, 1000, 10_000))

    dot_col = np.where(np.arange(17) > 0, 6 + np.arange(17), -1)[:, None]
    shift_move = _words((_COLS < dot_col) * 0xFF).T.copy()
    shift_dot = _words((_COLS == dot_col) * ord(".")).T.copy()
    shift_stay = _words((_COLS > dot_col) * 0xFF).T.copy()

    e = np.arange(-4, 16)[:, None, None, None]
    nd = np.arange(1, 18)[None, :, None, None]
    neg = np.array([False, True])[None, None, :, None]
    c = _COLS
    below = (neg & (c == 0)) | ((c >= 1) & (c < 2 - e)) | ((c >= 7) & (c < 7 + nd))
    frac = np.maximum(nd - e - 1, 0)
    length = e + 1 + (frac > 0) * (frac + 1)
    above = (neg & (c == 5)) | ((c >= 6) & (c < 6 + length))
    keep = _words(np.where(e < 0, below, above).reshape(-1, _FIELD)).T.copy()
    return _Tables(group_words, group_zeros, shift_move, shift_dot, shift_stay, keep)


def default_colors(d: int) -> list[tuple[int, int, int]]:
    """Fixed palette for the first three letters, then golden-angle hues."""
    colors = list(_BASE_COLORS[:d])
    for i in range(len(colors), d):
        hue = (i * _GOLDEN_ANGLE) % 360.0
        r, g, b = colorsys.hsv_to_rgb(hue / 360.0, 0.62, 0.88)
        colors.append((int(round(r * 255)), int(round(g * 255)), int(round(b * 255))))
    return colors


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = hi + lo exactly, each half with at most 26
    significant bits, so a product of two halves is exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _fixed_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed-notation fields of format(v, ".17g") for the floats v in x:
    the field words, the words of the mask of the bytes each field keeps,
    both of shape (3,) + x.shape, and where the field is certified.  See
    write_points_csv for why a certified field is exact."""
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e16)
    a = np.where(fixed, ax, 1.0)
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    # TwoProduct: a * 10**k == p + err exactly
    b = _POW10[k]
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    ok = fixed & (err - np.floor(err) != 0.5) & (digits > _LOW) & (digits < _HIGH)
    # uncertified fields are overwritten by the caller; in-range stand-ins
    # keep the table lookups below in bounds
    digits[~ok] = _LOW + 1
    exp = np.clip(16 - k, -4, 15)

    t = _tables()
    lead, rest = np.divmod(digits, _LOW)
    hi8, lo8 = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(hi8, 10**4)
    g3, g4 = np.divmod(lo8, 10**4)
    tz = t.group_zeros
    zeros = tz[g4] + (g4 == 0) * (tz[g3] + (g3 == 0) * (tz[g2] + (g2 == 0) * tz[g1]))

    words = np.empty((3,) + x.shape, dtype=_WORD)
    words[0] = (lead + 48).astype(_WORD) << 56 | _HEAD
    words[1] = t.group_words[g1] | t.group_words[g2] << 32
    words[2] = t.group_words[g3] | t.group_words[g4] << 32
    moved = np.empty_like(words)
    moved[:2] = words[:2] >> 8 | words[1:] << 56
    moved[2] = words[2] >> 8
    dot = np.maximum(exp + 1, 0)
    key = ((exp + 4) * 17 + 16 - zeros) * 2 + np.signbit(x)
    keep = np.empty_like(words)
    for i in range(3):
        words[i] = moved[i] & t.shift_move[i][dot] | t.shift_dot[i][dot] | words[i] & t.shift_stay[i][dot]
        keep[i] = t.keep[i][key]
    return words, keep, ok


def _format_rows(letter: bytes, chunk: np.ndarray) -> bytes:
    """The CSV rows of one letter's chunk of points: the letter, then each
    coordinate after a comma, then a newline.  Every row is laid out at full
    width, with each float's field from _fixed_fields or, where that is not
    certified, from format(); one boolean mask picks the bytes written."""
    m, k = chunk.shape
    lead = len(letter)
    width = lead + k * (_FIELD + 1) + 1
    text = np.empty((m, width), dtype=np.uint8)
    keep = np.ones((m, width), dtype=bool)
    text[:, :lead] = np.frombuffer(letter, dtype=np.uint8)
    text[:, -1] = ord("\n")
    # splitting each row's contiguous run of slots: views, not copies
    slots = text[:, lead:-1].reshape(m, k, _FIELD + 1)
    slots[:, :, 0] = ord(",")
    fields = slots[:, :, 1:]
    kept = keep[:, lead:-1].reshape(m, k, _FIELD + 1)[:, :, 1:]
    words, keep_words, ok = _fixed_fields(chunk)
    fields.view(_WORD)[...] = np.moveaxis(words, 0, -1)
    kept.view(_WORD)[...] = np.moveaxis(keep_words, 0, -1)
    rows, cols = np.nonzero(~ok)
    if len(rows):
        texts = [format(v, ".17g").encode("ascii") for v in chunk[rows, cols].tolist()]
        padded = b"".join(t.ljust(_FIELD) for t in texts)
        fields[rows, cols] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _FIELD)
        kept[rows, cols] = _COLS < np.array([len(t) for t in texts])[:, None]
    return text[keep].tobytes()


def write_points_csv(approx: RauzyApprox, path: str) -> None:
    """Write one row per point, letters in ascending order, each float as
    format(x, ".17g").  Rows are formatted a chunk of _CHUNK_ROWS at a time.

    In the range 1e-4 <= |x| < 1e16, where "%.17g" is fixed notation, the
    digits are computed in numpy.  With E = floor(log10|x|) and k = 16 - E
    (1..20, so 10**k is an exact double), Dekker's TwoProduct gives
    |x| * 10**k = p + err exactly, with p the rounded product.  When p is
    above 2**53 it is an integer, so D = p + round(err) is the nearest
    integer to |x| * 10**k.  A float is certified when 10**16 < D < 10**17
    and err is not an exact half: then |x| * 10**k lies strictly between
    10**16 and 10**17, so E is the decimal exponent, D is its correctly
    rounded 17-digit significand with no tie to break, and "%.17g" prints
    D's digits with the dot placed by E and trailing zeros dropped.  The
    range test also catches a log10 that is off by one (D near 10**15 or
    10**18) and a carry of D up to 10**17; a non-integer p, below 2**53,
    gives D below 10**16.  Every other float (zeros, |x| < 1e-4 and
    |x| >= 1e16 in scientific notation or beyond the kernel's range,
    subnormals, ties and the uncertified rest) is formatted by format()
    into the same byte matrix."""
    k = approx.d - 1
    header = "letter," + ",".join(f"x{i + 1}" for i in range(k)) + "\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for letter in sorted(approx.points):
            pts = np.asarray(approx.points[letter], dtype=float).reshape(-1, k)
            lead = str(letter).encode("ascii")
            for start in range(0, len(pts), _CHUNK_ROWS):
                f.write(_format_rows(lead, pts[start : start + _CHUNK_ROWS]))


def _only_plain_bytes(path: str) -> bool:
    """True when the file holds nothing but newlines and printable ASCII
    other than the space.  numpy's reader and Python's int() and float()
    agree on such files.  Whitespace and control bytes go to the line-by-line
    reader: numpy strips the separators 0x1c-0x1f around a field, for one,
    and int() and float() refuse them."""
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            if block.translate(None, _PLAIN_BYTES):
                return False
    return True


def _load_rows(f, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse the body in numpy's C reader; None when any row is malformed,
    has a letter outside 1..k+1 or a non-finite coordinate."""
    dtype = [("letter", np.int64), ("x", float, (k,))]
    try:
        with warnings.catch_warnings():
            # warnings (an empty body; numpy 1.x reading an integer via a
            # float) leave the verdict to the line-by-line reader
            warnings.simplefilter("error")
            rows = np.loadtxt(f, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    letters, coords = rows["letter"], rows["x"]
    if not (((letters >= 1) & (letters <= k + 1)).all() and np.isfinite(coords).all()):
        return None
    return letters, coords


def _parse_rows(f, path: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line reader: the definition of a valid body.  Raises ParseError
    naming the first bad line."""
    letters: list[int] = []
    coords: list[list[float]] = []
    for lineno, line in enumerate(f, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != k + 1:
            raise ParseError(f"{path} line {lineno}: expected {k + 1} fields")
        try:
            letter = int(fields[0])
            row = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError(f"{path} line {lineno}: malformed row") from None
        if not 1 <= letter <= k + 1:
            raise ParseError(f"{path} line {lineno}: letter {letter} outside 1..{k + 1}")
        if not all(math.isfinite(v) for v in row):
            raise ParseError(f"{path} line {lineno}: non-finite coordinate")
        letters.append(letter)
        coords.append(row)
    return np.asarray(letters, dtype=np.int64), np.asarray(coords, dtype=float).reshape(-1, k)


def read_points_csv(path: str) -> RauzyApprox:
    """Read a points CSV back, bit-exact.  The line-by-line reader defines
    which files are valid; numpy's C reader takes the files it reads the same
    way, and anything it refuses is re-read line by line for the verdict."""
    # a non-ASCII byte decodes to U+FFFD, which fails the header or row checks
    with open(path, "r", encoding="ascii", errors="replace") as f:
        header = f.readline().strip()
        cols = header.split(",")
        if len(cols) < 2 or cols[0] != "letter" or cols[1] != "x1":
            raise ParseError(f"{path}: not a points CSV (header {header!r})")
        k = len(cols) - 1
        parsed = _load_rows(f, k) if _only_plain_bytes(path) else None
        if parsed is None:
            f.seek(0)
            f.readline()
            parsed = _parse_rows(f, path, k)
    letters, coords = parsed
    if not len(letters):
        raise ParseError(f"{path}: no points")
    d = k + 1
    points = _split_by_letter(coords, letters, d)
    return RauzyApprox(points=points, d=d, source="file", meta={"path": path})


def render_ppm(
    approx: RauzyApprox,
    width: int,
    height: int,
    colors: list[tuple[int, int, int]] | None = None,
    margin: float = 0.05,
    background: tuple[int, int, int] = (255, 255, 255),
    path: str | None = None,
) -> bytes | None:
    """Rasterize the cloud to a binary PPM.

    The point bounding box is fitted to the image with a fractional margin
    per axis (each axis scaled independently); a degenerate axis collapses to
    the image center.  Only the first two stable coordinates are drawn; a
    one-dimensional cloud sits on the horizontal midline.  Letters paint in
    ascending order, so later letters win overlapping pixels.

    Returns the PPM bytes, or with `path` writes them to that file and
    returns None.  The file gets the header and then the raster's own
    buffer, so no copy of the image is made beside the raster.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")
    union = approx.union()
    if len(union) == 0:
        raise DomainError("nothing to render: empty approximation")
    if union.shape[1] == 1:
        union = np.column_stack([union[:, 0], np.zeros(len(union))])
    xy = union[:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, span * margin, 1.0)
    lo = lo - pad
    span = span + 2 * pad
    raster = np.empty((height, width, 3), dtype=np.uint8)
    raster[:, :] = np.asarray(background, dtype=np.uint8)
    palette = colors if colors is not None else default_colors(approx.d)
    if len(palette) < approx.d:
        raise ValueError(f"need {approx.d} colors, got {len(palette)}")
    for letter in sorted(approx.points):
        pts = approx.points[letter]
        if not len(pts):
            continue
        if pts.shape[1] == 1:
            pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
        cols = np.clip(((pts[:, 0] - lo[0]) / span[0] * width).astype(int), 0, width - 1)
        rows = np.clip(((pts[:, 1] - lo[1]) / span[1] * height).astype(int), 0, height - 1)
        raster[height - 1 - rows, cols] = palette[letter - 1]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    if path is None:
        return header + raster.tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(raster.data)
    return None
