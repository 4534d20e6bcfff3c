"""Directive sequences of substitutions and the words they generate.

A directive sequence picks one substitution per level; the composition
sigma_0 o ... o sigma_(n-1) applied to a suitable letter gives a nested
family of words whose union is a limit point of the sequence.  Which letters
are suitable is governed by the first-letter maps of the substitutions: a
chain (a_0, ..., a_n) with a_k = first letter of sigma_k(a_(k+1)) guarantees
that each stage is a prefix of the next.

limit_tower is the one place that deepens the composition: it grows
per-letter lengths, refusing a stalled chain, an exhausted finite sequence
and a word over the byte cap, then builds the chain's level words top-down.
The limit word, the telescoping peel and the identity sweep all read it.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DomainError,
    IntMatrix,
    ParseError,
    ResourceError,
    Substitution,
    positive_prefix,
    stepped_line,
)
from .spectral import perron_data

# ---------------------------------------------------------------------------
# deterministic pseudo-randomness (splitmix64, keyed by index)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start..start+count-1 of the splitmix64 generator with the
    given seed, as uint64.

    Stateless by construction: the n-th value is a fixed bit-mixing function
    of seed + (n+1) * golden mod 2^64, so any index can be evaluated
    independently and the stream is identical across platforms.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def splitmix64_unit(seed: int, n: int) -> float:
    """Uniform float in [0, 1) from the top 53 bits of the n-th output."""
    return (int(splitmix64_array(seed, n, 1)[0]) >> 11) / float(1 << 53)


# ---------------------------------------------------------------------------
# substitution sets and directive sequences


class SubstitutionSet:
    """An ordered family of substitutions over one alphabet.

    When every member has the same incidence matrix, shared_matrix holds it;
    the projection-based constructions require that.
    """

    def __init__(self, subs):
        subs = tuple(subs)
        if not subs:
            raise ValueError("empty substitution set")
        al = subs[0].alphabet
        if any(s.alphabet.symbols != al.symbols for s in subs):
            raise ValueError("substitutions must share one alphabet")
        self.subs = subs
        self.alphabet = al
        self.matrices = tuple(s.incidence_matrix() for s in subs)
        first = self.matrices[0]
        self.shared_matrix: IntMatrix | None = first if all(m == first for m in self.matrices) else None
        self._spectral = None

    def __len__(self) -> int:
        return len(self.subs)

    def __getitem__(self, i: int) -> Substitution:
        return self.subs[i]

    @property
    def d(self) -> int:
        return self.alphabet.size

    def names(self) -> list[str]:
        return [s.name or f"#{i + 1}" for i, s in enumerate(self.subs)]

    def spectral(self):
        """Perron data of the shared incidence matrix, computed once."""
        if self.shared_matrix is None:
            raise DomainError("substitutions do not share an incidence matrix")
        if self._spectral is None:
            self._spectral = perron_data(self.shared_matrix)
        return self._spectral


@dataclass(frozen=True)
class DirectiveSequence:
    """Sequence of 0-based indices into a SubstitutionSet.

    kinds: 'explicit' (finite), 'periodic' (preperiod + repeating block),
    'random' (splitmix64-driven, optionally weighted), 'spliced' (one
    sequence up to a cut position, another from there on).  shift() moves
    the origin forward without copying.
    """

    kind: str
    data: tuple
    offset: int = 0

    @classmethod
    def explicit(cls, entries) -> "DirectiveSequence":
        return cls("explicit", tuple(int(e) for e in entries))

    @classmethod
    def periodic(cls, preperiod, period) -> "DirectiveSequence":
        per = tuple(int(e) for e in period)
        if not per:
            raise ValueError("period must be nonempty")
        return cls("periodic", (tuple(int(e) for e in preperiod), per))

    @classmethod
    def random(cls, seed: int, count: int, weights=None) -> "DirectiveSequence":
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if count < 1:
            raise ValueError("need at least one substitution")
        wt = None
        if weights is not None:
            wt = tuple(float(w) for w in weights)
            if len(wt) != count or any(w <= 0 for w in wt):
                raise ValueError("weights must be positive, one per substitution")
        return cls("random", (int(seed), int(count), wt))

    @classmethod
    def spliced(cls, base: "DirectiveSequence", tail: "DirectiveSequence", cut: int) -> "DirectiveSequence":
        if cut < 0:
            raise ValueError("cut must be nonnegative")
        return cls("spliced", (base, tail, int(cut)))

    def _at(self, n: int) -> int:
        if self.kind == "explicit":
            if n >= len(self.data):
                raise IndexError("directive sequence exhausted")
            return self.data[n]
        if self.kind == "periodic":
            pre, per = self.data
            if n < len(pre):
                return pre[n]
            return per[(n - len(pre)) % len(per)]
        if self.kind == "random":
            seed, count, weights = self.data
            r = splitmix64_unit(seed, n)
            if weights is None:
                return min(int(r * count), count - 1)
            total = sum(weights)
            acc = 0.0
            for i, w in enumerate(weights):
                acc += w / total
                if r < acc:
                    return i
            return count - 1
        if self.kind == "spliced":
            base, tail, cut = self.data
            return base[n] if n < cut else tail[n]
        raise ValueError(f"unknown sequence kind {self.kind!r}")

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative index into directive sequence")
        return self._at(n + self.offset)

    def shift(self, k: int = 1) -> "DirectiveSequence":
        """The sequence seen from position k onward."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return replace(self, offset=self.offset + k)

    def prefix(self, n: int) -> list[int]:
        """The first n entries, or all of a shorter finite sequence."""
        out = []
        for i in range(n):
            try:
                out.append(self[i])
            except IndexError:
                break
        return out

    @property
    def is_finite(self) -> bool:
        if self.kind == "explicit":
            return True
        if self.kind == "spliced":
            return self.data[1].is_finite
        return False

    def describe(self) -> str:
        body = self._describe_body()
        return body if self.offset == 0 else f"{body} shifted by {self.offset}"

    def _describe_body(self) -> str:
        if self.kind == "explicit":
            return "".join(str(e + 1) for e in self.data)
        if self.kind == "periodic":
            pre, per = self.data
            return "".join(str(e + 1) for e in pre) + "(" + "".join(str(e + 1) for e in per) + ")"
        if self.kind == "random":
            seed, _, weights = self.data
            if weights is None:
                return f"random:{seed}"
            return f"random:{seed}:" + ",".join(f"{w:g}" for w in weights)
        base, tail, cut = self.data
        return f"{base.describe()} then {tail.describe()} from {cut}"


_SEQ_RE = re.compile(r"^([0-9]*)(?:\(([0-9]+)\))?$")


def parse_sequence_spec(spec: str, n_subs: int) -> DirectiveSequence:
    """Parse a directive-sequence spec.

    Forms: "122" (finite), "12(21)" (12 then 21 repeating), "(1)" (constant),
    "random:SEED" (uniform), "random:SEED:w1,w2,..." (weighted).  Digits are
    1-based indices into the substitution set.
    """
    spec = spec.strip()
    if not spec:
        raise ParseError("empty sequence spec")
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"malformed random spec {spec!r}")
        try:
            seed = int(parts[1], 0)
        except ValueError:
            raise ParseError(f"bad seed {parts[1]!r}") from None
        if not 0 <= seed <= _MASK64:
            raise ParseError("seed must fit in 64 bits")
        weights = None
        if len(parts) == 3:
            try:
                weights = [float(w) for w in parts[2].split(",")]
            except ValueError:
                raise ParseError(f"bad weights {parts[2]!r}") from None
            if len(weights) != n_subs:
                raise ParseError(f"expected {n_subs} weights, got {len(weights)}")
            if any(w <= 0 or not np.isfinite(w) for w in weights):
                raise ParseError("weights must be positive and finite")
        return DirectiveSequence.random(seed, n_subs, weights)
    if n_subs > 9:
        raise ParseError("digit specs support at most 9 substitutions; use random:SEED")
    m = _SEQ_RE.match(spec)
    if not m or (not m.group(1) and not m.group(2)):
        raise ParseError(f"malformed sequence spec {spec!r}")

    def digits(s: str) -> list[int]:
        out = []
        for ch in s:
            k = int(ch)
            if not 1 <= k <= n_subs:
                raise ParseError(f"substitution index {ch} out of range 1..{n_subs}")
            out.append(k - 1)
        return out

    head = digits(m.group(1)) if m.group(1) else []
    if m.group(2) is None:
        return DirectiveSequence.explicit(head)
    return DirectiveSequence.periodic(head, digits(m.group(2)))


# ---------------------------------------------------------------------------
# first-letter chains and limit points

_PREFIX_BYTE_CAP = 1 << 27  # letters in any word of the tower
_STALL_LEVELS = 48  # levels the tower's word may go without growing
_SELECT_LEVELS = 64  # how far below its depth the tower picks the chain
_CHAIN_LOOKAHEAD = 32  # levels limit_letter_chains looks ahead to prune dead ends
_PRIMITIVE_HORIZON = 64  # the largest k is_primitive_sequence reports


def first_letter_map(sub: Substitution) -> dict[int, int]:
    """letter -> first letter of its image."""
    return {j: sub.image(j)[0] for j in range(1, sub.d + 1)}


def is_primitive_sequence(seq: DirectiveSequence, sset: SubstitutionSet) -> int | None:
    """Smallest k <= _PRIMITIVE_HORIZON such that the incidence matrix of
    the composition sigma_0 ... sigma_k (k+1 factors) is strictly positive,
    else None, also when a finite sequence ends first.

    With a shared matrix the sequence is not read: this is the primitivity
    exponent of the shared matrix minus one, if within the horizon.
    """
    if sset.shared_matrix is not None:
        patterns = [sset.shared_matrix.pattern()] * (_PRIMITIVE_HORIZON + 1)
    else:
        per_sub = [m.pattern() for m in sset.matrices]
        patterns = [per_sub[i] for i in seq.prefix(_PRIMITIVE_HORIZON + 1)]
    k = positive_prefix(patterns)
    return None if k is None else k - 1


def limit_letter_chains(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    depth: int,
) -> list[tuple[int, ...]]:
    """Valid first-letter chains (a_0, ..., a_depth), lexicographically sorted.

    A chain must satisfy a_k = first letter of sigma_k(a_(k+1)), and its top
    letter must stay reachable for _CHAIN_LOOKAHEAD further levels (the set
    of reachable tops is the image of the composed first-letter maps of the
    next _CHAIN_LOOKAHEAD substitutions; chains failing that are dead ends
    that no deeper chain extends).  For a finite sequence the look-ahead
    stops at its end.
    """
    try:
        maps = [first_letter_map(sset[seq[k]]) for k in range(depth)]
    except IndexError:
        raise DomainError("directive sequence too short for requested depth") from None
    if not seq.is_finite and is_primitive_sequence(seq, sset) is None:
        warnings.warn(
            "directive sequence not confirmed primitive; limit points may be degenerate",
            stacklevel=2,
        )
    tail_maps = [first_letter_map(sset[i]) for i in seq.shift(depth).prefix(_CHAIN_LOOKAHEAD)]
    tops = set(range(1, sset.d + 1))
    for f in reversed(tail_maps):
        tops = {f[x] for x in tops}
    chains = []
    for top in sorted(tops):
        c = [0] * (depth + 1)
        c[depth] = top
        for k in range(depth - 1, -1, -1):
            c[k] = maps[k][c[k + 1]]
        chains.append(tuple(c))
    chains.sort()
    return chains


def _select_chain(seq: DirectiveSequence, sset: SubstitutionSet, depth: int, chain_index: int) -> tuple[int, ...]:
    """The chain_index-th chain at depth + _SELECT_LEVELS (or where a finite
    sequence ends), so towers of every depth up to there read one limit
    point: a chain the look-ahead keeps at one depth may die at a deeper one."""
    top = depth + len(seq.shift(depth).prefix(_SELECT_LEVELS))
    chains = limit_letter_chains(seq, sset, top)
    return chains[chain_index % len(chains)]


def limit_tower(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    min_len: int,
    chain_index: int = 0,
) -> tuple[tuple[int, ...], list[bytes]]:
    """The level words of a limit point, deep enough for min_len letters.

    Deepens sigma_0 o ... o sigma_(K-1) on per-letter lengths until the
    selected chain's top letter has an image of min_len letters, then builds
    (chain, words) top-down: words[j] is the image of chain[K] under
    sigma_j o ... o sigma_(K-1), so words[K] is one letter and words[0] the
    limit-point prefix.  chain_index picks among the valid chains (modulo
    their count), so 0 is always safe and distinct indices reach distinct
    limit points when several exist.  Raises ResourceError when the word
    stalls (a degenerate chain) or a word would pass the byte cap, and
    DomainError when a finite sequence runs out of levels.
    """
    if min_len < 1:
        raise ValueError("min_len must be positive")
    d = sset.d
    lengths = {j: 1 for j in range(1, d + 1)}
    chain: tuple[int, ...] = ()
    depth = 0
    best_len = 0
    last_growth = 0
    while True:
        if depth >= len(chain):
            chain = _select_chain(seq, sset, depth, chain_index)
        top_len = lengths[chain[depth]]
        if top_len > best_len:
            best_len = top_len
            last_growth = depth
        if top_len >= min_len:
            break
        if depth - last_growth > _STALL_LEVELS:
            raise ResourceError(
                f"limit point prefix stalled at length {best_len} "
                f"(sequence has no growing chain at index {chain_index})"
            )
        try:
            sub = sset[seq[depth]]
        except IndexError:
            raise DomainError(
                f"finite directive sequence exhausted at depth {depth} "
                f"with only {best_len} letters available"
            ) from None
        lengths = {j: sum(lengths[c] for c in sub.image(j)) for j in range(1, d + 1)}
        if max(lengths.values()) > _PREFIX_BYTE_CAP:
            raise ResourceError("limit point prefix exceeds the byte budget")
        depth += 1
    chain = chain[: depth + 1]
    words = [bytes([chain[depth]])]
    for j in range(depth - 1, -1, -1):
        words.append(sset[seq[j]].apply(words[-1]))
    words.reverse()
    # apply is a morphism, so first letters matching the chain make the stages nest
    if any(w[0] != c for w, c in zip(words, chain)):
        raise AssertionError("chain stages failed to nest")
    return chain, words


def limit_point_prefix(seq: DirectiveSequence, sset: SubstitutionSet, min_len: int, chain_index: int = 0) -> bytes:
    """First min_len letters of a limit point: limit_tower's words[0], cut."""
    return limit_tower(seq, sset, min_len, chain_index)[1][0][:min_len]


# ---------------------------------------------------------------------------
# word combinatorics: recurrence gaps and balance


@dataclass(frozen=True)
class FactorGapReport:
    """Recurrence data for all length-factor_len factors of the first half
    of a word, tracked across the whole word."""

    factor_len: int
    factor_count: int
    max_gap: int
    worst_factor: bytes


def require_factor_cap(length: int, factor_len: int) -> None:
    """Refuse (ResourceError) a recurrence check on a word of `length`
    letters whose first-half factors of length factor_len, one bytes key
    each, could hold more than _PREFIX_BYTE_CAP bytes:
    (length//2 - factor_len + 1) * factor_len of them."""
    held = (length // 2 - factor_len + 1) * factor_len
    if held > _PREFIX_BYTE_CAP:
        raise ResourceError(f"factors of length {factor_len} would hold {held} bytes, over the cap of {_PREFIX_BYTE_CAP}")


def factor_gap_check(word: bytes, factor_len: int) -> FactorGapReport:
    """Largest gap between consecutive occurrences of any factor of the
    first half, with the stretch after its last occurrence counted as a gap.

    A small max_gap relative to len(word) is evidence of uniform recurrence;
    a factor that never recurs drives the gap toward the word length.
    Factors over `require_factor_cap` are refused before any is kept.
    """
    n = len(word)
    if factor_len < 1 or factor_len > n // 2:
        raise DomainError("factor_len must be in 1..len(word)//2")
    require_factor_cap(n, factor_len)
    half = n // 2
    targets = {bytes(word[i : i + factor_len]) for i in range(half - factor_len + 1)}
    last: dict[bytes, int] = {}
    gaps: dict[bytes, int] = {f: 0 for f in targets}
    n_windows = n - factor_len + 1
    for i in range(n_windows):
        w = word[i : i + factor_len]
        if w not in gaps:
            continue
        prev = last.get(w)
        if prev is not None and i - prev > gaps[w]:
            gaps[w] = i - prev
        last[w] = i
    for f in targets:
        tail = n_windows - last[f]
        if tail > gaps[f]:
            gaps[f] = tail
    worst = max(gaps, key=lambda f: (gaps[f], f))
    return FactorGapReport(
        factor_len=factor_len,
        factor_count=len(targets),
        max_gap=gaps[worst],
        worst_factor=worst,
    )


@dataclass(frozen=True)
class BalanceReport:
    """Spread of letter counts over all windows of one length."""

    k: int
    per_letter: dict[int, int]
    c: int


def balances(word: bytes, ks, d: int) -> list[BalanceReport]:
    """Max minus min of each letter's count over all length-k windows, at
    each window length k of the sequence ks, all taken from one stepped
    line of the word; every length is checked first.

    The overall constant c bounds how far the word drifts from its letter
    frequencies at that window size.  A letter outside 1..d is a
    ValueError.
    """
    if any(k < 1 or k > len(word) for k in ks):
        raise DomainError("window length must be in 1..len(word)")
    sums = stepped_line(word, d)
    reports = []
    for k in ks:
        windows = sums[k:] - sums[:-k]
        per_letter = {i + 1: int(windows[:, i].max() - windows[:, i].min()) for i in range(d)}
        reports.append(BalanceReport(k=k, per_letter=per_letter, c=max(per_letter.values())))
    return reports
