"""Point-cloud serialization and rasterization.

CSV files carry one row per point with the 1-based letter first, floats
formatted with 17 significant digits (format(x, ".17g")) so a round trip is
bit-exact; coordinates must be finite.  Rows are formatted a chunk at a time
in numpy: an error-free product gives each float's 17 digits exactly, and
the few floats it cannot certify are formatted by format() into the same
byte matrix.  Files are read once and parsed a block of rows at a time in
numpy; each parsed float is certified by the writer's own digits, and the
few it cannot certify go through float().  The rows are counted first, so
each block is written into its slice of one letters array and one
coordinates array: at its peak the reader holds the file's bytes, those
two arrays (8(k+1) bytes per row) and one block's temporaries.  A file
that parser refuses is read line by line, which defines a valid file and
names the first bad line.
Images are binary PPM (P6), painted letter by letter in ascending order so
output bytes are a pure function of the input cloud.
"""

from __future__ import annotations

import colorsys
import functools
import io
import math
from typing import NamedTuple

import numpy as np

from .core import DomainError, ParseError
from .fractal import RauzyApprox, _split_by_letter

_BASE_COLORS = [(230, 57, 70), (69, 123, 157), (42, 157, 143)]
_GOLDEN_ANGLE = 137.50776405003785
_CHUNK_ROWS = 65_536
# bytes of body the reader parses at a time, up to the next newline.  A
# block's temporaries are a few hundred bytes per row; for rows of 17-digit
# fields each stays below glibc's 128 KiB mmap threshold, so the heap
# reuses them from block to block.  A fresh `render` of a 1M-row file takes
# about 22k minor faults, against 49k at 128 KiB and 82k at 256 KiB, for
# the same CPU time.
_BLOCK_BYTES = 96 << 10
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
# The reader takes a field from the window of _FIELD bytes that ends at it,
# read as three words.  Byte-wise constants for that window:
_BYTES = 0x0101010101010101
_ZERO, _DOT, _TOP = ord("0") * _BYTES, (ord(".") ^ ord("0")) * _BYTES, 0x80 * _BYTES


class _Tables(NamedTuple):
    group_words: np.ndarray
    group_zeros: np.ndarray
    shift_move: np.ndarray
    shift_dot: np.ndarray
    shift_stay: np.ndarray
    keep: np.ndarray
    window_tail: np.ndarray
    pow10: np.ndarray
    pow10_long: np.ndarray


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 24 bytes (bool or uint8) as rows of three words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(_WORD)


@functools.cache
def _tables() -> _Tables:
    """The kernels' lookup tables, built on the first write or read rather
    than at import, which every command pays:
    - each 4-digit group 0000..9999 as four ASCII bytes in the low half of
      a word, and its trailing zeros;
    - per dot place E + 1 (0: no shift) the masks of the bytes that move,
      the dot itself and the bytes that stay, one row per word;
    - per (E + 4, kept digits - 1, sign) for E = -4..15 the bytes a field
      keeps: below 1 the sign, "0." and -E - 1 zeros, then the digits; from
      1 up the sign, the E + 1 integer digits, and the dot and the fraction
      digits when any fraction digit is left;
    - for the reader, per n = 0..24 the words of the mask of a window's
      last n bytes, and 10**q as int64 (q = 0..18) and as long double
      (q = 0..23, exact where long double has a 64-bit significand)."""
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

    window_tail = _words((_COLS >= _FIELD - np.arange(_FIELD + 1)[:, None]) * 0xFF)
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    pow10_long = np.cumprod(np.concatenate([[1], np.full(23, 10)]).astype(np.longdouble))
    return _Tables(
        group_words, group_zeros, shift_move, shift_dot, shift_stay, keep, window_tail, pow10, pow10_long
    )


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


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit significands of format(v, ".17g") for the floats v in x
    where that is fixed notation: the integers D, the powers k with D the
    correctly rounded |v| * 10**k, and where D is certified.  See
    write_points_csv for why a certified D is exact."""
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
    return digits, k, ok


def _fixed_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed-notation fields of format(v, ".17g") for the floats v in x:
    the field words, the words of the mask of the bytes each field keeps,
    both of shape (3,) + x.shape, and where the field is certified."""
    digits, k, ok = _significands(x)
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


def _certified(y: np.ndarray, digits: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where the nonzero float y is exactly the decimal digits / 10**q (in
    magnitude).  The writer prints y from its 17-digit significand sig, the
    rounded |y| * 10**k; where digits * 10**(k - q) == sig, that text has
    the value of digits / 10**q, and float() of that text is y.  The range
    checks keep the test to exact int64 arithmetic."""
    sig, k, ok = _significands(y)
    shift = k - q
    s = np.clip(shift, 0, 17)
    pow10 = _tables().pow10
    return ok & (shift == s) & (digits < pow10[17 - s]) & (digits * pow10[s] == sig)


def _parse_fields(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The floats of the fields buf[starts:ends] and where each is exact.
    The arrays share one shape, and each end has at least _FIELD bytes of
    buf before it.

    Fields of the form [-]digits[.digits] with at least one digit are read
    here.  The _FIELD bytes that end at a field are taken as three
    little-endian words, cut to the field less its sign and XORed with '0'
    byte-wise, so that digits become their values.  The dot, now '.' ^ '0',
    is located and cleared, and the field is plain when every byte is then
    below 10.  SWAR arithmetic (a word's eight bytes taken as eight packed
    digits) gives each word's value; with the dot read as a 0 digit the
    three words give W = I * 10**(q + 1) + F for the digits I before the dot
    and the q digits F after it, so the significand is D = W - 9 * I * 10**q.
    A plain field has W below 10**18 and at most _FIELD bytes past its sign.

    The candidate D / 10**q is divided in long double and rounded to a
    float.  Zeros are exact, other candidates where _certified; one that is
    not is tried at its two neighbours, since rounding twice (or a long
    double no wider than a float) can leave it an ulp off.  The caller reads
    the fields that are not exact with float()."""
    t = _tables()
    windows = np.ndarray((len(buf) - _FIELD + 1,), dtype=f"V{_FIELD}", buffer=buf, strides=(1,))
    words = windows[ends - _FIELD].view(_WORD).reshape(ends.shape + (3,))
    neg = buf[starts] == ord("-")
    size = ends - starts - neg
    # the word arithmetic runs in place on words (b) and one work array of
    # its shape (w), so a block holds two such arrays rather than a dozen
    b = words
    b ^= _ZERO
    b &= t.window_tail.take(np.minimum(size, _FIELD), axis=0)
    w = b ^ _DOT
    w += 0x7F * _BYTES
    np.invert(w, out=w)
    w &= _TOP
    # w marks the dots: one bit per dot, bit 8 * j + v for byte j of word v;
    # the highest, read off the float's exponent, places a dot at byte 8 * v + j
    marks = w[..., 0] >> 7 | w[..., 1] >> 6 | w[..., 2] >> 5
    has_dot = marks != 0
    bit = (marks.astype(np.float64).view(np.int64) >> 52) - 1023
    q = np.where(has_dot, _FIELD - 1 - 8 * (bit & 7) - (bit >> 3), 0)
    w >>= 7
    w *= ord(".") ^ ord("0")
    b ^= w
    np.add(b, 0x76 * _BYTES, out=w)
    w &= _TOP
    digits_only = (w[..., 0] | w[..., 1] | w[..., 2]) == 0

    # eight digits to their value: each byte pair to two digits in its low
    # byte, then the four pairs at once into the high half
    np.right_shift(b, 8, out=w)
    b *= 10
    b += w
    pairs = 0x000000FF000000FF
    np.right_shift(b, 16, out=w)
    w &= pairs
    w *= 1 + (10**4 << 32)
    b &= pairs
    b *= 100 + (10**6 << 32)
    b += w
    b >>= 32
    g = b.view(np.int64)
    plain = (
        digits_only
        & (marks & (marks - 1) == 0)
        & (size - has_dot > 0)
        & (size <= _FIELD)
        & (g[..., 0] < 100)
    )
    whole = np.where(plain, g[..., 0] * 10**16 + g[..., 1] * 10**8 + g[..., 2], 0)
    del words, b, w, g  # freed before the certificate's temporaries
    head = whole // t.pow10[np.where(has_dot, np.minimum(q + 1, 18), 18)]
    digits = whole - 9 * head * t.pow10[np.minimum(q, 18)]
    y = (digits / t.pow10_long[q]).astype(np.float64)
    np.negative(y, out=y, where=neg)
    exact = plain & ((digits == 0) | _certified(y, digits, q))
    retry = np.flatnonzero(plain & ~exact)
    near = np.nextafter(y.flat[retry], [[np.inf], [-np.inf]])
    for side, hit in zip(near, _certified(near, digits.flat[retry], q.flat[retry])):
        y.flat[retry[hit]] = side[hit]
        exact.flat[retry[hit]] = True
    return y, exact


def _parse_block(
    data: bytes, pos: int, stop: int, k: int, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of data[pos:stop], which starts a line and ends at a newline
    or at the end of the file; None when some row has other than k + 1
    fields or a field that int() or float() refuses, a letter outside
    1..k+1 or a non-finite coordinate.  work is the file's block buffer,
    _FIELD zero bytes and then room for the block and a closing newline;
    its head stays zero."""
    n = stop - pos
    buf = work[: _FIELD + n + (data[stop - 1] != ord("\n"))]
    buf[_FIELD : _FIELD + n] = np.frombuffer(data, np.uint8, n, pos)
    buf[-1] = ord("\n")
    body = buf[_FIELD:]
    is_sep = body == ord(",")
    is_sep |= body == ord("\n")
    seps = np.flatnonzero(is_sep)
    del is_sep
    seps += _FIELD
    if len(seps) % (k + 1):
        return None
    seps = seps.reshape(-1, k + 1)
    if not (buf[seps] == np.frombuffer(b"," * k + b"\n", np.uint8)).all():
        return None
    offset = pos - _FIELD

    # letters of one or two digits here, the rest by int()
    first = np.empty(len(seps), dtype=np.int64)
    first[0] = _FIELD
    first[1:] = seps[:-1, k] + 1
    width = seps[:, 0] - first
    hi = buf[first].astype(np.int64) - ord("0")
    lo = buf[first + 1].astype(np.int64) - ord("0")
    two = width == 2
    letters = np.where(two, hi * 10 + lo, hi)
    plain = (width >= 1) & (width <= 2) & (hi >= 0) & (hi <= 9) & (~two | ((lo >= 0) & (lo <= 9)))
    coords, exact = _parse_fields(buf, seps[:, :k] + 1, seps[:, 1:])
    rows, cols = np.nonzero(~exact)
    try:
        for i in np.flatnonzero(~plain).tolist():
            letters[i] = int(data[offset + first[i] : offset + seps[i, 0]])
        coords[rows, cols] = [
            float(data[offset + a + 1 : offset + b])
            for a, b in zip(seps[rows, cols].tolist(), seps[rows, cols + 1].tolist())
        ]
    except ValueError:
        return None
    if not (((letters >= 1) & (letters <= k + 1)).all() and np.isfinite(coords).all()):
        return None
    return letters, coords


def _read_body(data: bytes, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse the body in numpy, a block of about _BLOCK_BYTES at a time;
    None when the file holds a byte other than a newline or printable ASCII
    bar the space, or a block is refused.  On those bytes the line-by-line
    reader splits rows and fields as this parser does; on others it need
    not: a carriage return, for one, ends its lines.

    A parsed block has one row per line, and a blank line is refused, so
    the rows are counted from the newlines up front and each block is
    written into its slice of the output arrays; one block buffer, sized
    for the largest block, serves every block."""
    pos = data.find(b"\n") + 1 or len(data)
    bounds = [pos]
    while bounds[-1] < len(data):
        bounds.append(data.find(b"\n", bounds[-1] + _BLOCK_BYTES) + 1 or len(data))
    # the header and then block by block: translate() allocates a result
    # the size of its input, so the whole file at once would hold it twice
    if any(data[a:b].translate(None, _PLAIN_BYTES) for a, b in zip([0] + bounds, bounds)):
        return None
    rows = data.count(b"\n", pos) + (pos < len(data) and data[-1] != ord("\n"))
    letters, coords = np.empty(rows, dtype=np.int64), np.empty((rows, k))
    largest = max((b - a for a, b in zip(bounds, bounds[1:])), default=0)
    work = np.zeros(_FIELD + largest + 1, dtype=np.uint8)
    at = 0
    for start, stop in zip(bounds, bounds[1:]):
        block = _parse_block(data, start, stop, k, work)
        if block is None:
            return None
        m = len(block[0])
        letters[at : at + m], coords[at : at + m] = block
        at += m
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
    """Read a points CSV back, bit-exact.  The file is read once, so a pipe
    reads as well as a file.  The line-by-line reader defines which files
    are valid; the numpy parser takes the files it reads the same way, and
    a file that parser refuses is read line by line from the same bytes for
    the verdict.

    The numpy parser holds the file's bytes and the parsed rows once each,
    8(k+1) bytes per row for k coordinates; the bytes are dropped before
    the rows are split by letter, which copies the coordinates."""
    with open(path, "rb") as f:
        data = f.read()
    # a non-ASCII byte decodes to U+FFFD, which fails the header or row checks
    text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="replace")
    header = text.readline().strip()
    cols = header.split(",")
    if len(cols) < 2 or cols[0] != "letter" or cols[1] != "x1":
        raise ParseError(f"{path}: not a points CSV (header {header!r})")
    k = len(cols) - 1
    letters, coords = _read_body(data, k) or _parse_rows(text, path, k)
    # the file's bytes go before the split, which copies the coordinates
    del data, text
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
    parts = [p for p in approx.points.values() if len(p)]
    if not parts:
        raise DomainError("nothing to render: empty approximation")
    # the box from each cloud's column minima and maxima, with no stacked
    # copy of the cloud; a one-dimensional cloud's y column is all zeros
    lo = np.zeros(2)
    hi = np.zeros(2)
    for j in range(min(2, parts[0].shape[1])):
        lo[j] = np.min([p[:, j].min() for p in parts])
        hi[j] = np.max([p[:, j].max() for p in parts])
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
