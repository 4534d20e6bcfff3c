"""Point-cloud serialization and rasterization.

CSV files carry one row per point with the 1-based letter first, floats
formatted with 17 significant digits (format(x, ".17g")) so a round trip is
bit-exact; coordinates must be finite.  Rows are formatted a chunk at a time
and parsed by numpy's C reader; a file that reader refuses is read line by
line, which names the first bad line.  Images are binary PPM (P6), painted
letter by letter in ascending order so output bytes are a pure function of
the input cloud.
"""

from __future__ import annotations

import colorsys
import math
import warnings

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


def default_colors(d: int) -> list[tuple[int, int, int]]:
    """Fixed palette for the first three letters, then golden-angle hues."""
    colors = list(_BASE_COLORS[:d])
    for i in range(len(colors), d):
        hue = (i * _GOLDEN_ANGLE) % 360.0
        r, g, b = colorsys.hsv_to_rgb(hue / 360.0, 0.62, 0.88)
        colors.append((int(round(r * 255)), int(round(g * 255)), int(round(b * 255))))
    return colors


def write_points_csv(approx: RauzyApprox, path: str) -> None:
    """Write one row per point, letters in ascending order, each float as
    format(x, ".17g").  Rows are formatted a chunk at a time with one
    printf-style pattern per letter; "%.17g" gives the same bytes."""
    k = approx.d - 1
    header = "letter," + ",".join(f"x{i + 1}" for i in range(k))
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(header + "\n")
        for letter in sorted(approx.points):
            pts = np.asarray(approx.points[letter], dtype=float)
            row = f"{letter}" + ",%.17g" * k + "\n"
            for start in range(0, len(pts), _CHUNK_ROWS):
                chunk = pts[start : start + _CHUNK_ROWS]
                f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


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
