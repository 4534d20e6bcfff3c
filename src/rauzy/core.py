"""Substitutions on a finite alphabet, exact integer linear algebra, and the
text format for substitution files.

Letters are the integers 1..d and words are ``bytes`` whose byte values are
letters.  Keeping words as bytes makes concatenation, slicing and counting
cheap, and a length-10^7 word is just 10 MB.  All matrix arithmetic in this
module is over Python integers, so nothing here ever rounds.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class RauzyError(Exception):
    """Base for errors raised by this package."""


class ParseError(RauzyError):
    """Malformed substitution file or directive-sequence spec."""


class DomainError(RauzyError):
    """Input is well formed but outside the supported domain."""


class IndeterminateError(DomainError):
    """A yes/no question whose answer is too close to call numerically."""


class ConvergenceError(RauzyError):
    """An iterative numeric routine failed to reach its tolerance."""


class ResourceError(RauzyError):
    """A computation would exceed its point or memory budget."""


# ---------------------------------------------------------------------------
# alphabet and words


_DEFAULT_SYMBOLS = string.ascii_lowercase + string.ascii_uppercase + string.digits


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of d distinct display symbols for letters 1..d."""

    symbols: str

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @classmethod
    def default(cls, size: int) -> "Alphabet":
        if not 2 <= size <= len(_DEFAULT_SYMBOLS):
            raise ValueError(f"unsupported alphabet size {size}")
        return cls(_DEFAULT_SYMBOLS[:size])

    @property
    def size(self) -> int:
        return len(self.symbols)

    def letter(self, ch: str) -> int:
        """Map a display symbol to its 1-based letter."""
        i = self.symbols.find(ch)
        if i < 0:
            raise ValueError(f"symbol {ch!r} not in alphabet {self.symbols!r}")
        return i + 1

    def char(self, letter: int) -> str:
        if not 1 <= letter <= self.size:
            raise ValueError(f"letter {letter} out of range 1..{self.size}")
        return self.symbols[letter - 1]

    def word(self, text: str) -> bytes:
        """Encode a display string as a word."""
        return bytes(self.letter(ch) for ch in text)

    def text(self, word: bytes) -> str:
        """Decode a word back to its display string."""
        return "".join(self.char(b) for b in word)


def validate_word(word: bytes, d: int) -> None:
    """Raise ValueError unless every byte of word is a letter in 1..d."""
    if word and not all(1 <= b <= d for b in word):
        bad = next(b for b in word if not 1 <= b <= d)
        raise ValueError(f"byte {bad} is not a letter in 1..{d}")


def abelianize(word: bytes, d: int) -> tuple[int, ...]:
    """Letter-count vector of a word, as a length-d tuple of ints."""
    counts = tuple(word.count(i) for i in range(1, d + 1))
    if sum(counts) != len(word):
        validate_word(word, d)  # locate the offending byte for the message
    return counts


# ---------------------------------------------------------------------------
# exact integer matrices


class IntMatrix:
    """Immutable square matrix over Python integers.

    Sizes here are tiny (d <= 20 or so) so everything is plain O(d^3) without
    any cleverness; the point is exactness, not speed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("IntMatrix must be square and nonempty")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def times_vec(self, v: Iterable[int]) -> tuple[int, ...]:
        vv = tuple(int(x) for x in v)
        if len(vv) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, vv)) for row in self.rows)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for r in self.rows for x in r)

    def is_positive(self) -> bool:
        return all(x > 0 for r in self.rows for x in r)

    def max_entry(self) -> int:
        return max(x for r in self.rows for x in r)

    def det(self) -> int:
        # Bareiss fraction-free elimination: all divisions below are exact.
        n = self.n
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# substitutions


# entries of prefix_counts a substitution may have, (d+1)(L+1)d for d
# letters and longest image L: 32 MiB of int64, checked before allocating
MAX_PREFIX_ENTRIES = 1 << 22


@dataclass(frozen=True)
class Substitution:
    """A non-erasing morphism of the free monoid on letters 1..d.

    images[j-1] is the image word of letter j; row j of table holds it
    padded with zeros to the longest image length L, and apply() gathers a
    word's image from those rows.  prefix_counts[j, r] is the letter-count
    vector of image(j)[:r] for r = 0..L (padding counts nothing), an int64
    array of shape (d+1, L+1, d); its last column holds each image's
    counts, the columns of the incidence matrix.  Each nonzero table[a, r]
    is one image splitting image(a) = w p s with pivot p = table[a, r] and
    l(w) = prefix_counts[a, r]; np.nonzero(table) lists the splittings in
    table order, by letter, then by position.  A prefix_counts of more than
    MAX_PREFIX_ENTRIES entries is refused (ResourceError) before anything
    is allocated.
    """

    alphabet: Alphabet
    images: tuple[bytes, ...]
    name: str = ""
    _matrix: IntMatrix = field(init=False, repr=False, compare=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)
    prefix_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.alphabet.size
        if len(self.images) != d:
            raise ValueError(f"expected {d} images, got {len(self.images)}")
        for j, w in enumerate(self.images, start=1):
            if len(w) == 0:
                raise ValueError(f"erasing substitution: letter {self.alphabet.char(j)} has empty image")
            validate_word(w, d)
        longest = max(map(len, self.images))
        entries = (d + 1) * (longest + 1) * d
        if entries > MAX_PREFIX_ENTRIES:
            raise ResourceError(
                f"the image-splitting table needs {entries} entries, over the cap of {MAX_PREFIX_ENTRIES}"
            )
        table = np.zeros((d + 1, longest), dtype=np.uint8)
        for j, w in enumerate(self.images, start=1):
            table[j, : len(w)] = list(w)
        counts = np.zeros((d + 1, table.shape[1] + 1, d), dtype=np.int64)
        counts[:, 1:] = table[:, :, None] == np.arange(1, d + 1, dtype=np.uint8)
        np.cumsum(counts, axis=1, out=counts)  # in place: no second array of this size
        for arr in (table, counts):
            arr.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "prefix_counts", counts)
        # M[i][j] = count of letter i+1 in the image of j+1
        object.__setattr__(self, "_matrix", IntMatrix(counts[1:, -1].T.tolist()))

    @property
    def d(self) -> int:
        return self.alphabet.size

    def image(self, letter: int) -> bytes:
        if not 1 <= letter <= self.d:
            raise ValueError(f"letter {letter} out of range 1..{self.d}")
        return self.images[letter - 1]

    def apply(self, word: bytes) -> bytes:
        idx = np.frombuffer(word, dtype=np.uint8)
        if idx.size and not 1 <= idx.min() <= idx.max() <= self.d:
            validate_word(word, self.d)  # locate the offending byte for the message
        # gathering whole rows as fixed-width records beats a 2-D fancy index
        rows = self.table.view(f"V{self.table.shape[1]}").ravel().take(idx).view(np.uint8)
        return rows[rows != 0].tobytes()

    def incidence_matrix(self) -> IntMatrix:
        """M with M[i][j] = number of occurrences of letter i+1 in the image
        of letter j+1, so that abelianize(apply(w)) == M @ abelianize(w)."""
        return self._matrix

    def describe(self) -> str:
        al = self.alphabet
        parts = [f"{al.char(j)} -> {al.text(self.images[j - 1])}" for j in range(1, self.d + 1)]
        return ", ".join(parts)


def wielandt_bound(d: int) -> int:
    """Exponent bound d^2 - 2d + 2: a primitive d x d matrix has a strictly
    positive power at or below this."""
    return d * d - 2 * d + 2


def primitivity_exponent(m: IntMatrix, max_exp: int | None = None) -> int | None:
    """Smallest k with m^k strictly positive, or None if none exists
    up to the Wielandt bound (which is conclusive for nonnegative m)."""
    if not m.is_nonnegative():
        raise ValueError("primitivity is only defined for nonnegative matrices")
    limit = wielandt_bound(m.n) if max_exp is None else max_exp
    power = m
    for k in range(1, limit + 1):
        if power.is_positive():
            return k
        if k < limit:
            power = power @ m
    return None


# ---------------------------------------------------------------------------
# substitution file format
#
#   # comment
#   alphabet: abc
#   [sub tribo]
#   a -> ab
#   b -> ac
#   c -> a
#
# The alphabet line comes first; each [sub NAME] block must give exactly one
# image line per alphabet symbol.


def parse_substitution_set(text: str) -> list[Substitution]:
    """Parse the substitution file format; raises ParseError with the 1-based
    line number on any defect."""
    alphabet: Alphabet | None = None
    subs: list[Substitution] = []
    seen_names: set[str] = set()
    current_name: str | None = None
    current_images: dict[int, bytes] = {}
    current_line = 0

    def err(lineno: int, msg: str):
        raise ParseError(f"line {lineno}: {msg}")

    def close_block():
        nonlocal current_name, current_images
        if current_name is None:
            return
        assert alphabet is not None
        missing = [alphabet.char(j) for j in range(1, alphabet.size + 1) if j not in current_images]
        if missing:
            err(current_line, f"substitution {current_name!r} missing image for {', '.join(missing)}")
        images = tuple(current_images[j] for j in range(1, alphabet.size + 1))
        try:
            subs.append(Substitution(alphabet, images, name=current_name))
        except ValueError as e:
            err(current_line, str(e))
        current_name = None
        current_images = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                err(lineno, "duplicate alphabet line")
            if subs or current_name is not None:
                err(lineno, "alphabet line must come before substitution blocks")
            symbols = line[len("alphabet:") :].strip()
            try:
                alphabet = Alphabet(symbols)
            except ValueError as e:
                err(lineno, str(e))
            continue
        if line.startswith("["):
            if alphabet is None:
                err(lineno, "alphabet line must come first")
            if not (line.endswith("]") and line[1:-1].strip().startswith("sub ")):
                err(lineno, f"malformed block header {line!r}")
            close_block()
            name = line[1:-1].strip()[4:].strip()
            if not name:
                err(lineno, "empty substitution name")
            if name in seen_names:
                err(lineno, f"duplicate substitution name {name!r}")
            seen_names.add(name)
            current_name = name
            current_line = lineno
            continue
        if "->" in line:
            if alphabet is None:
                err(lineno, "alphabet line must come first")
            if current_name is None:
                err(lineno, "image line outside a [sub NAME] block")
            lhs, _, rhs = line.partition("->")
            lhs = lhs.strip()
            rhs = rhs.strip()
            if len(lhs) != 1:
                err(lineno, f"left side must be a single symbol, got {lhs!r}")
            try:
                letter = alphabet.letter(lhs)
            except ValueError as e:
                err(lineno, str(e))
            if letter in current_images:
                err(lineno, f"duplicate image for symbol {lhs!r}")
            if not rhs:
                err(lineno, f"erasing substitution: empty image for symbol {lhs!r}")
            try:
                current_images[letter] = alphabet.word(rhs)
            except ValueError as e:
                err(lineno, str(e))
            current_line = lineno
            continue
        err(lineno, f"unrecognized line {line!r}")

    if alphabet is None:
        raise ParseError("line 1: missing alphabet line")
    close_block()
    if not subs:
        raise ParseError("line 1: no substitutions defined")
    return subs


def load_substitution_file(path: str) -> list[Substitution]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_substitution_set(text)
