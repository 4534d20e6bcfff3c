"""Two routes to the Rauzy fractal of a directive sequence and the checks
that tie them together.

Route one projects the vertices of the stepped line of a long limit-point
prefix onto the stable space; the points land in subtiles indexed by the
letter following each vertex.  Route two iterates the graph-directed maps
read off the outermost substitution's image splittings: subtile i of the
sequence is the union over occurrences of i of M_s times a subtile of the
shifted sequence plus the projected prefix count.  Both produce a dict of
point clouds per letter, and their Hausdorff distance in the adapted norm is
the headline consistency number.  The stepped line both routes start from is
`core.stepped_line`: route one projects it, and the identity sweep compares
it with the telescoped counts.

scipy.spatial is imported by `_kdtree`, the one builder of k-d trees, at the
first build, so the commands that never build one start without loading
scipy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .adic import (
    DirectiveSequence,
    SubstitutionSet,
    is_primitive_sequence,
    limit_point_prefix,
    limit_tower,
    splitmix64_array,
)
from .core import (
    DomainError,
    IntMatrix,
    ParseError,
    ResourceError,
    Substitution,
    abelianize,
    stepped_line,
)
from .spectral import (
    GammaLattice,
    SpectralData,
    adapted_norm,
    adapted_norms,
    project,
    require_unimodular_pisot,
    to_adapted,
)

_DEFAULT_BUDGET = 2_000_000
_MIN_BUDGET = 100


def point_budget() -> int:
    """Active point budget; RAUZY_POINT_BUDGET overrides the default.  A
    value that is not an integer of at least _MIN_BUDGET is malformed input
    (ParseError), as a bad `--budget` is."""
    raw = os.environ.get("RAUZY_POINT_BUDGET")
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"RAUZY_POINT_BUDGET must be an integer, got {raw!r}") from None
    if value < _MIN_BUDGET:
        raise ParseError(f"RAUZY_POINT_BUDGET must be at least {_MIN_BUDGET}")
    return value


def _kdtree(points: np.ndarray):
    """Every k-d tree of this module: a scipy cKDTree over the rows.

    `coverage_estimate` and `_resolution_estimate` build one over a whole
    cloud.  The distance kernel (`_nearest`) builds each over the target
    rows in the grid cells around the rows it serves, and over a whole
    target only when those cells hold most of it: a pair's distance does
    not depend on which other rows a tree holds.

    The tree is built without median splits (balanced_tree=False) and without
    shrinking each node's box to its points (compact_nodes=False), which
    builds it in less time.  Neither choice changes a result: a
    nearest-neighbour query returns the nearest distance whatever the tree's
    shape, and callers read distances, or pick among tied neighbours by a
    rule of their own.  scipy.spatial is imported at the first build, and
    cKDTree is looked up on it at every call, so a subclass put in its place
    (to count or trace the trees) sees each build and query.
    """
    import scipy.spatial

    return scipy.spatial.cKDTree(points, balanced_tree=False, compact_nodes=False)


# ---------------------------------------------------------------------------
# projection of the stepped line


@dataclass(eq=False)
class RauzyApprox:
    """Point-cloud approximation of the fractal, one cloud per letter.

    points always holds every letter 1..d, possibly with empty (0, d-1)
    arrays.  meta records how the cloud was made and any error bounds.
    """

    points: dict[int, np.ndarray]
    d: int
    meta: dict = field(default_factory=dict)

    def total(self) -> int:
        return sum(len(p) for p in self.points.values())

    def union(self) -> np.ndarray:
        parts = [self.points[i] for i in sorted(self.points) if len(self.points[i])]
        if not parts:
            return np.zeros((0, self.d - 1))
        return np.vstack(parts)


def _split_by_letter(pts: np.ndarray, letters: np.ndarray, d: int) -> dict[int, np.ndarray]:
    # np.compress along axis 0 selects rows faster than a boolean index
    return {i: np.compress(letters == i, pts, axis=0) for i in range(1, d + 1)}


def _project_line(sd: SpectralData, word: bytes) -> np.ndarray:
    """The projected stepped-line vertices 0..n-1 of word, in word order:
    an (n, d-1) array whose row t is the projection of l(word[:t]).

    Rows 0..n-1 of the float stepped line are the operand the matrix
    product reads.  t * u is subtracted from row t in place, _CHUNK_ROWS
    rows at a time, which gives the same bits as one full-size subtraction.
    The product itself is taken on the full operand, since its rounding can
    depend on the operand's shape.  At its peak the call holds the stepped
    line and the result: 8 * (2d - 1) bytes per point."""
    n = len(word)
    centered = stepped_line(word, sd.d)[:n]
    for start in range(0, n, _CHUNK_ROWS):
        rows = centered[start : start + _CHUNK_ROWS]
        rows -= np.arange(start, start + len(rows), dtype=float)[:, None] * sd.u
    return centered @ sd.proj_coords.T


def project_word(sd: SpectralData, word: bytes) -> RauzyApprox:
    """Project the stepped-line vertices of word; vertex t joins the subtile
    of the letter word[t] that follows it.

    The Perron direction is annihilated by the projection, so t * u is
    subtracted from vertex t before the matrix product.  That keeps the
    intermediate entries bounded instead of growing linearly with t, which
    would otherwise lose about six digits to cancellation on long words.
    The call's peak is the float stepped line and its projection, then the
    projection and its split by letter.
    """
    pts = _project_line(sd, word)
    points = _split_by_letter(pts, np.frombuffer(word, dtype=np.uint8), sd.d)
    return RauzyApprox(points=points, d=sd.d, meta={"n": len(word)})


def prefix_bound_constant(sset: SubstitutionSet, sd: SpectralData) -> float:
    """Largest adapted norm of a GIFS edge translate, the projected count
    vector of an image prefix, over all substitutions in the set; the
    projected stepped line of any limit point stays within this over
    (1 - lam)."""
    return max(adapted_norm(sd, e.translate) for sub in sset.subs for e in build_gifs_edges(sub, sd))


def norm_ball(sset: SubstitutionSet, approx: RauzyApprox) -> tuple[float, float]:
    """(largest adapted norm over the nonempty clouds of approx, the radius
    C/(1 - lam) with C = `prefix_bound_constant`).  Every projected
    stepped line of a limit point, and so every cloud either construction
    builds, lies within the radius.  The norm is taken one subtile at a
    time, so no temporary is larger than the largest subtile."""
    sd = sset.spectral()
    norm = max(float(adapted_norms(sd, p).max()) for p in approx.points.values() if len(p))
    return norm, prefix_bound_constant(sset, sd) / (1.0 - sd.lam)


def project_prefixes(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    n_points: int,
    chain_index: int = 0,
    budget: int | None = None,
) -> RauzyApprox:
    """Projection construction: n_points stepped-line vertices of a limit
    point of seq, split by following letter.  Refuses non-Pisot or
    non-unimodular shared matrices."""
    sd = sset.spectral()
    require_unimodular_pisot(sd)
    cap = budget if budget is not None else point_budget()
    if n_points > cap:
        raise ResourceError(f"requested {n_points} points exceeds budget {cap}")
    word = limit_point_prefix(seq, sset, n_points, chain_index=chain_index)
    approx = project_word(sd, word)
    approx.meta.update({"sequence": seq.describe(), "chain_index": chain_index})
    return approx


# ---------------------------------------------------------------------------
# telescoping decomposition of limit-point prefixes


def _split(sub: Substitution, letters: np.ndarray):
    """The image splitting of a word, (idx, rest, pivots): position t of
    sigma(letters) is offset rest[t] of the image of letters[idx[t]] and
    holds the letter pivots[t], so pivots is sigma(letters) itself."""
    images = sub.table[letters]
    idx, rest = np.nonzero(images)
    return idx, rest, images[idx, rest]


def _peel(seq: DirectiveSequence, sset: SubstitutionSet, words: list[bytes], length: int):
    """Forward pass of the telescoping peel of every prefix of
    words[0][:length + 1].  Position t = 0..N_j of the level-j word
    (N_0 = length) is offset rest_j[t] of the image of letter idx_j[t] of
    the level-(j+1) word: its prefix of length t is sigma_j of the
    level-(j+1) prefix of length idx_j[t], then the first rest_j[t] letters
    of that image, and N_(j+1) = idx_j[N_j].  Yields (sub, level-(j+1) word,
    idx_j, rest_j) per level until N_j reaches 0, once every split's pivot
    is found to be the letter the level-j word holds there."""
    top = length
    for j in range(len(words) - 1):
        if top == 0:
            return
        sub = sset[seq[j]]
        level_word = np.frombuffer(words[j + 1], dtype=np.uint8)
        # the fewest letters whose images cover positions 0..N_j (each
        # image has a letter, so the first N_j + 1 letters are enough)
        cum = np.cumsum(np.count_nonzero(sub.table, axis=1)[level_word[: top + 1]])
        used = int(np.searchsorted(cum, top, side="right")) + 1
        idx, rest, pivots = (a[: top + 1] for a in _split(sub, level_word[:used]))
        if not np.array_equal(pivots, np.frombuffer(words[j], dtype=np.uint8)[: top + 1]):
            raise AssertionError("split pivots disagree with the level word")
        yield sub, level_word, idx, rest
        top = int(idx[-1])
        del cum, idx, rest, pivots  # not held while the next level splits
    if top:
        raise AssertionError("prefix peel did not terminate within the deepened levels")


def telescoping_decomposition(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    word: bytes,
    chain_index: int = 0,
) -> list[bytes]:
    """Peel a limit-point prefix into per-level image prefixes.

    Returns (P_k, ..., P_0), deepest level first, where P_j is a proper
    prefix of an image of sigma_j and
    word = sigma_0(sigma_1(... sigma_(k-1)(P_k) ... + P_1)) + P_0.
    With a shared incidence matrix M the count identity
    l(word) = sum_j M^j l(P_j) then holds exactly.  The parts are read off
    `_peel` along t = N_j, the last position of each level.  Raises
    DomainError when word is not a prefix of the selected limit point.
    """
    if not word:
        return []
    _, words = limit_tower(seq, sset, len(word) + 1, chain_index)
    if words[0][: len(word)] != word:
        raise DomainError("word is not a prefix of the selected limit point")
    levels = _peel(seq, sset, words, len(word))
    parts = [sub.image(int(w[idx[-1]]))[: int(rest[-1])] for sub, w, idx, rest in levels]
    # exact reconstruction check before reversing to deepest-first order
    rebuilt = b""
    for j in range(len(parts) - 1, -1, -1):
        rebuilt = sset[seq[j]].apply(rebuilt) + parts[j]
    if rebuilt != word:
        raise AssertionError("telescoping reconstruction mismatch")
    return parts[::-1]


def telescoped_counts(sset: SubstitutionSet, parts: list[bytes]) -> tuple[int, ...]:
    """Exact integer evaluation of sum_j M^j l(P_j) for the shared matrix M,
    with parts given deepest level first as telescoping_decomposition
    returns them (the last element is the level-0 part)."""
    if sset.shared_matrix is None:
        raise DomainError("count identity needs a shared incidence matrix")
    m = sset.shared_matrix
    d = sset.d
    total = [0] * d
    power = IntMatrix.identity(d)
    for j, part in enumerate(reversed(parts)):
        if j > 0:
            power = power @ m
        if part:
            vec = power.times_vec(abelianize(part, d))
            total = [a + b for a, b in zip(total, vec)]
    return tuple(total)


@dataclass(frozen=True)
class PrefixIdentityReport:
    """Outcome of checking the count identity for every prefix of a word."""

    checked: int
    levels: int
    all_exact: bool


def verify_all_prefix_identities(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    length: int,
    chain_index: int = 0,
) -> PrefixIdentityReport:
    """Check l(prefix_t) == sum_j M^j l(P_j(t)) for every t = 1..length at
    once, in exact integer arithmetic.

    The sum is evaluated in Horner form over the level positions rather
    than per target.  Position t of the level-j word lies in the image of
    letter idx_j(t) of the level-(j+1) word, at offset r, so P_j(t) is the
    first r letters of that image and
    R_j[t] = l(P_j(t)) + M R_(j+1)[idx_j(t)]  for t = 0..N_j,
    with N_0 = length and N_(j+1) = idx_j(N_j); then R_0[t] is the whole
    sum for prefix t.  The forward pass, `_peel`, gives idx_j and r for
    every position; the sweep keeps per level only idx_j and the row of
    l(P_j(t)) in the splitting table, both int32 (idx_j is below the
    tower's 2^27 byte cap, the row below MAX_PREFIX_ENTRIES).  A backward
    pass folds the levels in, deepest first and _CHUNK_ROWS rows at a time
    (`_fold`), and lets go of each level and of R_(j+1) once R_j is built.
    The positions shrink by the growth factor per level, so the work is
    about 2 * length gathers where carrying every target through every
    level took levels * length.

    R_0 is never built whole: each chunk of it, rows start .. stop - 1, is
    compared, less l(word[:start]), with the stepped line of
    word[start : stop - 1], and l(word[:stop]) is the chunk's last row plus
    the letter word[stop - 1].  The first chunk starts from l(empty) = 0,
    so by induction over the chunks every prefix is checked.  Every partial
    sum has nonnegative terms and is at most the full sum, so one bound
    computed in exact arithmetic guards the int64 accumulators.  The
    stepped line's float counts are integers below 2^53, and a float64
    compared with an int64 is equal only when the two are the same
    integer, so the comparison is exact.

    At its peak the sweep holds the tower's words, two int32 per position
    of every level, and either one level's int64 splitting in the forward
    pass or R_(j+1) and R_j (8d bytes a row) of the largest levels folded,
    with one chunk's temporaries: about 40 bytes per prefix at 1M prefixes
    for d = 3 and 4.
    """
    if sset.shared_matrix is None:
        raise DomainError("count identity needs a shared incidence matrix")
    if length < 1:
        raise ValueError("length must be positive")
    _, words = limit_tower(seq, sset, length + 1, chain_index)
    depth = len(words) - 1
    d = sset.d
    m = sset.shared_matrix

    # int64 safety: levels * max |M^j l(P)| must stay well inside 2^63
    max_part = max(len(s.image(j)) for s in sset.subs for j in range(1, d + 1))
    mpow = IntMatrix.identity(d)
    worst = 0
    for j in range(depth):
        worst += mpow.max_entry() * max_part * d
        mpow = mpow @ m
    if worst >= 1 << 62:
        raise ResourceError("prefix identity check would overflow 64-bit accumulators")

    levels = []  # per level: the table, idx_j and the rows of l(P_j(t)) in it
    for sub, level_word, idx, rest in _peel(seq, sset, words, length):
        # gathered by flat row, which numpy does faster than a 2-D index
        flat = level_word[idx].astype(np.int32)
        flat *= sub.prefix_counts.shape[1]
        flat += rest
        levels.append((sub.prefix_counts.reshape(-1, d), idx.astype(np.int32), flat))
        del idx, rest  # the int64 splitting goes before _peel splits the next level
    mt = np.asarray(m.rows, dtype=np.int64).T
    r = np.zeros((1, d), dtype=np.int64)  # R_J[0] = 0 once N_J = 0
    while len(levels) > 1:
        table, idx, flat = levels.pop()
        nxt = np.empty((len(idx), d), dtype=np.int64)
        for start in range(0, len(idx), _CHUNK_ROWS):
            _fold(table, idx, flat, r, mt, start, nxt[start : start + _CHUNK_ROWS])
        r = nxt
    table, idx, flat = levels.pop()
    buf = np.empty((min(_CHUNK_ROWS, length + 1), d), dtype=np.int64)
    first = np.zeros(d, dtype=np.int64)  # l(word[:start])
    for start in range(0, length + 1, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, length + 1)
        rows = _fold(table, idx, flat, r, mt, start, buf[: stop - start])
        rows -= first
        if not np.array_equal(stepped_line(words[0][start : stop - 1], d), rows):
            return PrefixIdentityReport(checked=length, levels=depth, all_exact=False)
        first += rows[-1]
        first[words[0][stop - 1] - 1] += 1
    return PrefixIdentityReport(checked=length, levels=depth, all_exact=True)


def _fold(table, idx, flat, r, mt, start: int, out: np.ndarray) -> np.ndarray:
    """Rows start .. start + len(out) - 1 of R_j = l(P_j) + M R_(j+1)[idx_j],
    written into out: R_(j+1) is r, l(P_j) is gathered from table by flat,
    and mt is M transposed.  Each gather is freed before the next is made,
    so the call holds one temporary of out's size."""
    stop = start + len(out)
    np.matmul(np.take(r, idx[start:stop], axis=0), mt, out=out)
    out += np.take(table, flat[start:stop], axis=0)
    return out


# ---------------------------------------------------------------------------
# graph-directed iterated function system


@dataclass(frozen=True, eq=False)
class GifsEdge:
    """One image splitting of the outermost substitution, the occurrence at
    `position` of the image of src: the subtile src of the shifted sequence
    maps into subtile pivot via y -> M_s y + translate."""

    src: int
    position: int
    pivot: int
    translate: np.ndarray


def build_gifs_edges(sub: Substitution, sd: SpectralData) -> list[GifsEdge]:
    """Edges of the set equation for one outermost substitution, one per
    nonzero entry table[a, r] of `sub.table`, in table order (by source
    letter a, then by position r): pivot table[a, r], translate the
    projection of prefix_counts[a, r]."""
    table = sub.table
    return [
        GifsEdge(int(a), int(r), int(table[a, r]), project(sd, sub.prefix_counts[a, r]))
        for a, r in zip(*np.nonzero(table))
    ]


def _gifs_layout(edges: list[GifsEdge], counts: dict[int, int]) -> tuple[dict[int, int], list[int]]:
    """Where `gifs_step` writes a level: the size of each pivot's array, and
    the row of its pivot's array at which each edge's mapped copy of its
    source subtile (counts[src] rows) starts.  Edges fill their pivot's
    array in list order, which for `build_gifs_edges` is table order: by
    source letter, then by position in the image."""
    sizes = dict.fromkeys(counts, 0)
    starts = []
    for edge in edges:
        starts.append(sizes[edge.pivot])
        sizes[edge.pivot] += counts[edge.src]
    return sizes, starts


def gifs_step(sub: Substitution, sd: SpectralData, approx: RauzyApprox) -> RauzyApprox:
    """Push an approximation of the shifted sequence's subtiles through the
    set equation of sub, yielding an approximation for the unshifted one.
    Each pivot's array is allocated once at its final size and the mapped
    points are written into it, so a stepped level is held only once."""
    if approx.d != sd.d:
        raise ValueError("alphabet size mismatch")
    edges = build_gifs_edges(sub, sd)
    sizes, starts = _gifs_layout(edges, {i: len(approx.points[i]) for i in range(1, sd.d + 1)})
    points = {i: np.empty((n, sd.d - 1)) for i, n in sizes.items()}
    mt = sd.m_s.T
    for edge, start in zip(edges, starts):
        src = approx.points[edge.src]
        view = points[edge.pivot][start : start + len(src)]
        np.matmul(src, mt, out=view)
        view += edge.translate
    return RauzyApprox(points=points, d=sd.d)


def _thin(sd: SpectralData, pts: np.ndarray, keep: int) -> tuple[np.ndarray, float]:
    """At most `keep` of the rows, 1 <= keep < len(pts), in row order: the
    one per occupied cell of a `_grid` over their box in stable coordinates
    that `_occupants` records.  The grid has no ring, since every row lies
    in the box, so its map takes at most _CELLS_PER_ROW cells per row.
    Returns (kept, loss), loss the largest adapted distance from a row to
    its cell's kept row by `hausdorff`'s formula, _CHUNK_ROWS rows at a
    time: a bound on the directed distance from the rows to the kept ones,
    with no search.  A chunk and its cells' kept rows go into the adapted
    frame by one product of at least two rows: a one-row product can round
    otherwise than `hausdorff`'s over a whole cloud.  The side starts at
    (product of the box's w nonzero extents / keep)^(1/w) and doubles while
    `_grid` refuses it or more than keep cells are occupied; past twice the
    box's widest extent the grid is one cell, which one row occupies."""
    lo, hi = _box(pts)
    extent = hi - lo
    wide = extent[extent > 0]
    side = np.exp((np.log(wide).sum() - np.log(keep)) / len(wide)) if len(wide) else 1.0
    while True:
        grid = _grid(lo, extent, side, _CELLS_PER_ROW * len(pts), 0.0, ring=False)
        if grid is not None:
            keys = grid.keys(pts)
            occupant = _occupants(keys, grid.cells)
            if np.count_nonzero(occupant >= 0) <= keep:
                break
        side *= 2
    loss = 0.0
    for start in range(0, len(pts), _CHUNK_ROWS):
        chunk = pts[start : start + _CHUNK_ROWS]
        both = to_adapted(sd, np.concatenate([chunk, pts[occupant[keys[start : start + _CHUNK_ROWS]]]]))
        loss = max(loss, float(_distances(both[: len(chunk)], both[len(chunk) :]).max()))
    return pts[np.sort(occupant[occupant >= 0])], loss


def gifs_attractor(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    depth: int,
    budget: int | None = None,
) -> RauzyApprox:
    """Iterate the set equations of sigma_0 .. sigma_(depth-1), innermost
    first, starting from the origin in each subtile.

    The result is within lam^depth * C/(1-lam) of the true
    subtiles in adapted Hausdorff distance.  A level over the point budget
    keeps each subtile's share of it by grid cell (`_thin`), and the loss
    `_thin` certifies, shrunk by lam per later level, is added to the bound
    in meta["error_bound"]; the kept rows are a subset, so it is one-sided.
    """
    sd = sset.spectral()
    require_unimodular_pisot(sd)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cap = budget if budget is not None else point_budget()
    d = sd.d
    points = {i: np.zeros((1, d - 1)) for i in range(1, d + 1)}
    approx = RauzyApprox(points=points, d=d)
    c = prefix_bound_constant(sset, sd)
    thinning_loss = 0.0
    thinned = False
    for level in range(depth - 1, -1, -1):
        approx = gifs_step(sset[seq[level]], sd, approx)
        total = approx.total()
        if total > cap:
            thinned = True
            scale = cap / total
            for i in range(1, d + 1):
                pts = approx.points[i]
                keep = max(1, int(len(pts) * scale))
                if keep < len(pts):
                    approx.points[i], loss = _thin(sd, pts, keep)
                    thinning_loss += loss * sd.lam**level  # later levels shrink it
    base_bound = sd.lam**depth * (c / (1.0 - sd.lam))
    approx.meta.update(
        {
            "depth": depth,
            "sequence": seq.describe(),
            "ratio": sd.lam,
            "C": c,
            "error_bound": base_bound + thinning_loss,
            "thinned": thinned,
            "thinning_loss": thinning_loss,
        }
    )
    return approx


# ---------------------------------------------------------------------------
# Hausdorff distances and cross-construction comparison


@dataclass(frozen=True, eq=False)
class HausdorffResult:
    """Symmetric Hausdorff distance with the realizing pair."""

    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    direction: str  # which directed distance attained the max


def hausdorff(a: np.ndarray, b: np.ndarray) -> HausdorffResult:
    """Hausdorff distance between finite point sets (rows), exact up to
    floating point: every row that can set the answer gets its nearest
    neighbor from a k-d tree query, no sampling.

    The trees only pick the neighbor indices; the distances that can set
    the answer are recomputed with the plain sqrt-of-squares formula, so
    the result agrees bit for bit with a brute-force evaluation over the
    same pairs.  A query's nearest distance depends on neither the order of
    the queries, nor the tree's shape, nor which other rows the tree holds;
    the far witness is the lowest row at the maximum, and where several
    points tie for nearest, the near witness is the lowest row among those
    at the witness distance, so the witnesses and the direction are a
    function of the two arrays alone.

    Each direction is one pass of `_farthest`, both on one grid over the
    smaller set S's box.  The larger set L goes first, with r the exact
    maximum over a strided sample of L (from `_nearest` on `_spread_grid`'s
    grid), on `_kernel_grid`'s grid for r.  S's direction wins only if it
    reaches L's exact maximum, so S's pass takes that as its r and reuses
    the grid and both sets' keys: it bins no row again.  A pass drops only
    rows that a point of the other set is certainly nearer than r to, and
    measures every other row exactly with a tree over the other set's
    points in the cells around it (`_nearest`).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("expected two (n, k) point arrays with matching k")
    if len(a) == 0 or len(b) == 0:
        raise DomainError("Hausdorff distance of an empty set is undefined")
    swap = len(a) > len(b)
    small, large = (b, a) if swap else (a, b)
    lo, hi = _box(small)
    box = lo, hi - lo
    pts = large[:: -(-len(large) // _SAMPLE_ROWS)]
    grid = _spread_grid(small, box, len(pts))
    dist, idx = _nearest(pts, grid.keys(pts), small, grid.keys(small), grid, 1)
    r = _top(pts, dist, idx, small)[0]
    grid = _kernel_grid(small, box, r, len(large))
    keys_l, keys_s = grid.keys(large), grid.keys(small)
    far_l = _farthest(large, keys_l, small, keys_s, grid, r)
    far_s = _farthest(small, keys_s, large, keys_l, grid, far_l[0])
    (d_ab, i), (d_ba, j) = (far_l, far_s) if swap else (far_s, far_l)
    if d_ab >= d_ba:
        return HausdorffResult(float(d_ab), a[i].copy(), _lowest_nearest(b, a[i], d_ab), "a_to_b")
    return HausdorffResult(float(d_ba), _lowest_nearest(a, b[j], d_ba), b[j].copy(), "b_to_a")


# rows of the strided sample that gives the kernel its lower bound
_SAMPLE_ROWS = 4096
# a grid may have at most this many cells per row it serves (a map of at
# most 32 bytes per row), at most _MAX_CELLS in all (so a key fits in
# int32), and at most _AXIS_CELLS along an axis (`_kernel_grid` falls back
# to a grid that clears nothing when r would make one finer)
_CELLS_PER_ROW = 8
_MAX_CELLS = (1 << 31) - 1
_AXIS_CELLS = 1 << 20
# rows centred, binned, looked up or queried at a time, and the most cells a
# block of `_nearest` may span
_CHUNK_ROWS = 65_536


@dataclass(frozen=True, eq=False)
class _Grid:
    """Cubes of side `side` from the corner lo: a box's cells, numbered from
    1 along each axis, inside a ring of cells 0 and shape - 1, keyed
    row-major; a grid without a ring numbers them from 0.  On a grid of
    `_kernel_grid` two points in one cell are strictly nearer than
    `clears`; it is 0 on a grid that only sorts rows into blocks for
    `_nearest`."""

    lo: np.ndarray
    side: float
    shape: np.ndarray
    strides: np.ndarray
    clears: float

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))

    def keys(self, pts: np.ndarray) -> np.ndarray:
        """Each row's cell key as int32, binned _CHUNK_ROWS rows at a time;
        a single cell's keys are all 0."""
        if self.cells == 1:
            return np.zeros(len(pts), dtype=np.int32)
        out = np.empty(len(pts), dtype=np.int32)
        for start in range(0, len(pts), _CHUNK_ROWS):
            out[start : start + _CHUNK_ROWS] = _cell_keys(pts[start : start + _CHUNK_ROWS], self)
        return out


def _box(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high corners of the rows' bounding box, taken one column at
    a time, which numpy runs much faster than a min or max along axis 0 of
    rows of length k."""
    cols = range(pts.shape[1])
    return np.array([pts[:, j].min() for j in cols]), np.array([pts[:, j].max() for j in cols])


def _grid(lo, extent, side: float, max_cells: int, clears: float, ring: bool = True) -> _Grid | None:
    """Cubes of side `side` over the box, or None when side is not positive
    or the grid would have more than max_cells (or _MAX_CELLS) cells or
    _AXIS_CELLS along an axis.  The cells start half a side before the
    box, so a row just outside it (a cloud's extreme point, off from the
    other cloud's by rounding) still shares the box's edge cells.  With at
    most 2^20 cells per axis a cell coordinate is rounded by at most 2^-32
    of a side.  Without the ring the grid is the box's cells alone, for
    rows that all lie in the box; `_cell_keys` numbers cells from the
    ring's -1, so its corner lies a side further on."""
    if not side > 0 or np.any(extent >= _AXIS_CELLS * side):
        return None
    shape = np.floor(extent / side + 0.5) + (3 if ring else 1)  # the box's cells and the ring
    if np.prod(shape) > min(max_cells, _MAX_CELLS):
        return None
    strides = np.cumprod(np.r_[1, shape[:0:-1]])[::-1]  # row-major
    return _Grid(lo - side / 2 if ring else lo + side / 2, side, shape, strides, clears)


def _one_cell(k: int) -> _Grid:
    """A grid of one cell, whose keys are all 0."""
    return _Grid(np.zeros(k), np.inf, np.ones(k), np.ones(k), 0.0)


def _kernel_grid(target: np.ndarray, box, r: float, n_query: int) -> _Grid:
    """The grid a `_farthest` pass clears by: cubes of side
    r / (sqrt(k) (1 + 1e-9)) over target's box, so two points in one cube
    are strictly nearer than r, with at most _CELLS_PER_ROW cells per row of
    the query and target.  When r is 0 or that grid does not fit, the grid
    of `_spread_grid`, which clears nothing."""
    lo, extent = box
    cap = _CELLS_PER_ROW * (n_query + len(target))
    grid = _grid(lo, extent, r / (np.sqrt(target.shape[1]) * (1 + 1e-9)), cap, r)
    return grid if grid is not None else _spread_grid(target, box, n_query)


def _spread_grid(target: np.ndarray, box, n_query: int) -> _Grid:
    """A grid over target's box for the `_nearest` of n_query rows, with
    about one target row per occupied cell, so that a row's block of 3^k
    cells holds few target rows.

    A cloud fills only part of its box: a trial grid, whose side is the
    box's volume per row over the w axes the box spans, bins a stride of at
    most _CHUNK_ROWS rows into c occupied cells.  Cells of side s would be
    occupied about c (trial side / s)^w times, so s = trial side (c / n)^(1/w)
    for n target rows, doubled while over _CELLS_PER_ROW cells per row or an
    axis cap.  The grid is a single cell, whose keys are all 0 (`_nearest`
    then builds one tree over all of target), when the rows' blocks could
    name half as many cells as target has rows, or when even three cells
    per axis are too many."""
    k, n = target.shape[1], len(target)
    if 2 * n_query * 3**k > n:
        return _one_cell(k)
    lo, extent = box
    wide = extent[extent > 0]
    side = 1.0
    if len(wide):
        trial = target[:: -(-n // _CHUNK_ROWS)]
        side = np.exp((np.log(wide).sum() - np.log(len(trial))) / len(wide))
        grid = _grid(lo, extent, side, _CELLS_PER_ROW * len(trial), 0.0)
        if grid is not None:
            occupied = np.zeros(grid.cells, dtype=bool)
            occupied[grid.keys(trial)] = True
            side *= (np.count_nonzero(occupied) / n) ** (1 / len(wide))
    while (grid := _grid(lo, extent, side, _CELLS_PER_ROW * n, 0.0)) is None:
        if side > extent.max():
            return _one_cell(k)
        side *= 2
    return grid


def _farthest(query, qkeys, target, tkeys, grid: _Grid, r: float) -> tuple[float, int]:
    """One direction of the directed-distance kernel: the largest distance
    from a query row to its nearest target point and the lowest row at that
    maximum, given a lower bound r on the answer and each row's key on
    grid (qkeys, tkeys).

    Rows that `_cleared` clears (a target point in the row's own cell, or
    one within r (1 - 1e-12) in a neighbouring cell) are strictly nearer
    than r and drop out; each other row gets its exact nearest distance
    from `_nearest`, whose first block holds every target point within r.
    Each drop rests on a real target point nearer than r, so every row at
    or above r is measured, and the maximum and its row are exact when the
    maximum reaches r; a maximum below r comes back as some value below r,
    or as (-inf, -1) when no row is left.
    """
    cleared = _cleared(query, qkeys, target, tkeys, grid, r)
    rows = np.arange(len(query)) if cleared is None else np.flatnonzero(~cleared)
    pts = query[rows]
    dist, idx = _nearest(pts, qkeys[rows], target, tkeys, grid, int(r / grid.side) + 1)
    top, at = _top(pts, dist, idx, target)
    return top, int(rows[at]) if at >= 0 else -1


def _top(pts, dist, idx, target) -> tuple[float, int]:
    """Largest of the rows' nearest distances by the plain formula over each
    row's nearest target row idx, and the first row attaining it; (-inf, -1)
    when there are no rows.  The tree's distances dist differ from the plain
    formula by a few ulps, so the rows at the plain maximum are among those
    within a relative 1e-12 of the tree's, and only those get the formula."""
    if not len(dist):
        return -np.inf, -1
    near = np.flatnonzero(dist >= dist.max() * (1 - 1e-12))
    exact = _distances(pts[near], target[idx[near]])
    top = exact.max()
    return top, int(near[np.argmax(exact == top)])


def _nearest(pts, keys, target, tkeys, grid: _Grid, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest distance to target, as a k-d tree over all of
    target measures it, and a target row at that distance; keys and tkeys
    are the rows' and target's keys on grid.

    A round builds a tree over the target rows in the cells within `reach`
    cells of a row's cell along every axis (`_block_rows`), and queries the
    rows with distance_upper_bound reach side (1 - 1e-8).  Every target
    point that near a row lies in its block: along each axis their cells
    are at most reach apart, also after clamping onto the ring, which only
    moves cells closer, and the keys' rounding stays inside the margin,
    since one of the two lies in the box.  So a distance found is the
    nearest over all of target, bit for bit the whole tree's: a tree's
    distance for a pair depends on neither its shape nor its other rows.
    Rows that find nothing, or whose blocks hold no target row, go again
    with reach doubled.  When the blocks would hold more than half the
    target, the round builds the tree over all of target and queries
    without a bound, which ends the loop.
    """
    dist = np.full(len(pts), np.inf)
    idx = np.zeros(len(pts), dtype=np.intp)
    todo = np.arange(len(pts))
    while len(todo):
        rows = _block_rows(keys[todo], tkeys, grid, reach)
        if rows is not None and not len(rows):
            reach *= 2
            continue
        tree = _kdtree(target if rows is None else target[rows])
        bound = np.inf if rows is None else reach * grid.side * (1 - 1e-8)
        for start in range(0, len(todo), _CHUNK_ROWS):
            chunk = todo[start : start + _CHUNK_ROWS]
            found, near = tree.query(pts[chunk], distance_upper_bound=bound)
            hit = np.isfinite(found)
            dist[chunk[hit]] = found[hit]
            idx[chunk[hit]] = near[hit] if rows is None else rows[near[hit]]
        todo = todo[np.isinf(dist[todo])]
        reach *= 2
    return dist, idx


def _block_rows(keys, tkeys, grid: _Grid, reach: int) -> np.ndarray | None:
    """The target rows, ascending, whose cells lie within `reach` cells of
    some key's cell along every axis; None when they are more than half the
    target, when a block spans the whole grid, or when a block would span
    more than _CHUNK_ROWS cells.  A key offset that wraps past the end of a
    grid row names another cell, and one past the map's ends is clipped
    onto an end cell: either only adds rows.  The cell map takes a byte a
    cell, and the offsets of at most _CHUNK_ROWS cells are taken at a
    time."""
    width = 2 * reach + 1
    if np.all(grid.shape <= width) or width ** len(grid.strides) > _CHUNK_ROWS:
        return None
    steps = _cell_offsets(grid.strides, reach)
    wanted = np.zeros(grid.cells, dtype=bool)
    per = _CHUNK_ROWS // len(steps)
    for start in range(0, len(keys), per):
        cells = keys[start : start + per, None] + steps
        wanted[np.clip(cells, 0, grid.cells - 1, out=cells)] = True
    rows = np.flatnonzero(wanted[tkeys])
    return rows if 2 * len(rows) <= len(tkeys) else None


def _cleared(query, qkeys, target, tkeys, grid: _Grid, r: float) -> np.ndarray | None:
    """Mask of the query rows that a target point certainly lies nearer
    than r to, or None, clearing nothing, on a grid that clears nothing
    (`_spread_grid`'s).  r is at least the grid's `clears`: the r
    `_kernel_grid` built it for, or a larger one.

    The grid covers the box of the query or of the target, so one of any
    pair lies in the box, never on the ring, and two rows with one key
    share a cell.  Each occupied cell remembers one of its target rows
    (`_occupants`); which one does not matter.  The grid's cells hold no
    two points r or more apart, so a row whose own cell is occupied is
    cleared.  Each other row walks its cell's 3^k - 1 neighbours, face
    neighbours first (`_cell_offsets`), and is cleared once a neighbour's
    target row lies within r (1 - 1e-12) by the plain squared formula.  A
    cleared row is thus nearer than r by a real target point, and every row
    at or above r is left.  Only a row on the ring has neighbours past the
    grid's edge; their keys wrap onto other cells, or are clipped onto the
    map's end cells, and a target row found there clears the row only by
    its distance.

    The map takes 4 bytes a cell, at most 4 _CELLS_PER_ROW = 32 bytes per
    query and target row, and the mask one byte per query row.  Rows are
    looked up and walked _CHUNK_ROWS at a time, with at most 64 k bytes of
    temporaries per row of a chunk.
    """
    if not grid.clears:
        return None
    occupant = _occupants(tkeys, grid.cells)
    steps = _cell_offsets(grid.strides, 1)[1:]
    bound = (r * (1 - 1e-12)) ** 2
    cleared = np.ones(len(query), dtype=bool)
    for start in range(0, len(query), _CHUNK_ROWS):
        pts = query[start : start + _CHUNK_ROWS]
        keys = qkeys[start : start + _CHUNK_ROWS].astype(np.intp)
        left = np.flatnonzero(occupant[keys] < 0)
        keys = keys[left]
        for step in steps:
            if not len(left):
                break
            near = occupant.take(keys + step, mode="clip")
            hit = np.flatnonzero(near >= 0)
            rows, near = left[hit], near[hit]
            # one axis at a time: numpy gathers columns faster than rows
            squared = np.zeros(len(hit))
            for j in range(pts.shape[1]):
                diff = pts[rows, j] - target[near, j]
                diff *= diff
                squared += diff
            keep = np.ones(len(left), dtype=bool)
            keep[hit[squared < bound]] = False
            left, keys = left[keep], keys[keep]
        cleared[start + left] = False
    return cleared


def _occupants(keys, cells: int) -> np.ndarray:
    """An int32 map: per cell, one row whose key it is or -1, written _CHUNK_ROWS rows at a time."""
    occupant = np.full(cells, -1, dtype=np.int32)
    for start in range(0, len(keys), _CHUNK_ROWS):
        chunk = keys[start : start + _CHUNK_ROWS]
        occupant[chunk] = np.arange(start, start + len(chunk), dtype=np.int32)
    return occupant


def _cell_offsets(strides, reach: int) -> np.ndarray:
    """Key offsets of the (2 reach + 1)^k cells within `reach` cells of a
    cell along every axis, in a row-major grid with these strides: the cell
    itself first, then by how many coordinates differ from it, fewest
    first, so face neighbours come before the other neighbours."""
    width = np.arange(-reach, reach + 1)
    moves = np.stack(np.meshgrid(*[width] * len(strides), indexing="ij"), axis=-1).reshape(-1, len(strides))
    moves = moves[np.argsort(np.count_nonzero(moves, axis=1), kind="stable")]
    return moves @ np.asarray(strides, dtype=np.intp)


def _cell_keys(pts, grid: _Grid) -> np.ndarray:
    """Key of each row's cell, rows outside the box clamped onto the ring.
    The keys are exact integers in float64, which holds every integer below
    2^53.  The axes are taken one at a time, which numpy runs faster than
    rows of length k."""
    keys = np.empty(len(pts))
    cell = np.empty(len(pts))
    for j in range(pts.shape[1]):
        np.subtract(pts[:, j], grid.lo[j], out=cell)
        cell /= grid.side
        np.floor(cell, out=cell)
        # cell - 1 along the axis, 1 added back per axis at the end
        np.clip(cell, -1, grid.shape[j] - 2, out=cell)
        if j:
            cell *= grid.strides[j]
            keys += cell
        else:
            np.multiply(cell, grid.strides[j], out=keys)
    keys += grid.strides.sum()
    return keys


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances, p and q broadcast against each other."""
    return np.sqrt(np.sum((p - q) ** 2, axis=1))


def _lowest_nearest(pts: np.ndarray, x: np.ndarray, dist: float) -> np.ndarray:
    """The lowest row of pts at distance dist from x, dist being x's nearest
    distance by the plain formula.  Such a row lies within dist of x along
    every axis: the rows within dist (1 + 1e-9) are found one column at a
    time, with no tree, and the plain formula picks among them."""
    reach = dist * (1 + 1e-9)
    rows = np.flatnonzero(np.abs(pts[:, 0] - x[0]) <= reach)
    for j in range(1, pts.shape[1]):
        rows = rows[np.abs(pts[rows, j] - x[j]) <= reach]
    return pts[rows[np.flatnonzero(_distances(x, pts[rows]) == dist)[0]]].copy()


def subtile_hausdorff(sd: SpectralData, a: RauzyApprox, b: RauzyApprox) -> dict[int, HausdorffResult]:
    """Per-letter Hausdorff distances in the adapted norm."""
    if a.d != b.d:
        raise ValueError("alphabet size mismatch")
    out = {}
    for i in range(1, a.d + 1):
        out[i] = hausdorff(to_adapted(sd, a.points[i]), to_adapted(sd, b.points[i]))
    return out


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Cross-construction comparison in the adapted norm."""

    per_letter: dict[int, float]
    overall: float
    witnesses: dict[int, HausdorffResult]
    projection_meta: dict
    gifs_meta: dict


def compare_constructions(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    n_points: int,
    depth: int,
    chain_index: int = 0,
    budget: int | None = None,
) -> CompareReport:
    """Build both approximations of the same sequence and measure how far
    apart each subtile pair is."""
    proj = project_prefixes(seq, sset, n_points, chain_index=chain_index, budget=budget)
    gifs = gifs_attractor(seq, sset, depth, budget=budget)
    sd = sset.spectral()
    wit = subtile_hausdorff(sd, proj, gifs)
    per = {i: w.distance for i, w in wit.items()}
    return CompareReport(
        per_letter=per,
        overall=max(per.values()),
        witnesses=wit,
        projection_meta=proj.meta,
        gifs_meta=gifs.meta,
    )


@dataclass(frozen=True)
class SetEquationReport:
    """Residuals of pushing a projected cloud of the shifted sequence
    through the outermost set equation against the directly projected
    cloud of the unshifted sequence."""

    per_letter: dict[int, float]
    max_residual: float
    n_source: int
    n_target: int


def set_equation_check(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    n_points: int,
    chain_index: int = 0,
    shift: float = 0.0,
) -> SetEquationReport:
    """The two sides of the set equation, evaluated on matched finite clouds.

    The source cloud projects a limit-point prefix u1 of the shifted
    sequence; the target projects sigma_0(u1), which is a limit-point prefix
    of the unshifted sequence.  Every target vertex is then exactly one
    mapped source vertex, so each pair is compared directly.  Position t of
    sigma_0(u1) lies in the image of source position s, at offset j, and
    its letter p is the pivot of the edge (u1[s], j).  In pivot p's array
    of `gifs_step`, the mapped s sits at the row where that edge's copy of
    subtile u1[s] starts, plus the rank of s among the source positions
    with letter u1[s]; in the target's subtile p it sits at the rank of t
    among the positions with letter p.  The edge starts come from
    `_gifs_layout`, the layout `gifs_step` writes.

    A subtile's residual is the largest adapted distance over its matched
    pairs, by the formula `hausdorff` uses.  Every point is within that
    distance of its partner, so it bounds both directed distances and is at
    least the Hausdorff distance of the two clouds: a residual below a
    threshold proves the Hausdorff distance is too, and a wrong pairing
    shows as a large residual, never as a small one.  Up to floating point
    the pairs coincide and the residual is numerical noise.  A nonzero
    `shift` is added to subtile 1 of the pushed cloud, a wrong translation
    that the residual must show.
    """
    sd = sset.spectral()
    require_unimodular_pisot(sd)
    d = sd.d
    sub0 = sset[seq[0]]
    u1 = limit_point_prefix(seq.shift(1), sset, n_points, chain_index=chain_index)
    letters = np.frombuffer(u1, dtype=np.uint8)
    s, j, pivots = _split(sub0, letters)  # target position t is (s[t], j[t])
    source = project_word(sd, u1)
    target = project_word(sd, pivots.tobytes())
    stepped = gifs_step(sub0, sd, source)
    if shift:
        stepped.points[1] = stepped.points[1] + shift
    rank = np.empty(len(letters), dtype=np.intp)
    for a in range(1, d + 1):
        at = letters == a
        rank[at] = np.arange(np.count_nonzero(at))
    edges = build_gifs_edges(sub0, sd)
    _, starts = _gifs_layout(edges, {a: len(source.points[a]) for a in range(1, d + 1)})
    edge_start = np.zeros(sub0.table.shape, dtype=np.intp)
    edge_start[np.nonzero(sub0.table)] = starts  # edges come in table order
    rows = edge_start[letters[s], j] + rank[s]
    per = {}
    for p in range(1, d + 1):
        if not len(target.points[p]):
            raise DomainError("Hausdorff distance of an empty set is undefined")
        matched = to_adapted(sd, stepped.points[p])[rows[pivots == p]]
        per[p] = float(_distances(matched, to_adapted(sd, target.points[p])).max())
    return SetEquationReport(
        per_letter=per,
        max_residual=max(per.values()),
        n_source=source.total(),
        n_target=target.total(),
    )


@dataclass(frozen=True)
class Check:
    """Outcome of one invariant check, with the measured value and the
    threshold it is held to as the text `rauzy check` prints."""

    name: str
    ok: bool
    measured: str
    threshold: str


def invariant_checks(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    chain_index: int = 0,
    fault: str | None = None,
) -> list[Check]:
    """The seven invariants of a unimodular Pisot directive sequence, in a
    fixed order: abelianization is a morphism, the telescoping count
    identity, projection commutes with the matrix, the adapted norm
    contracts by lam, the set equation, the projected stepped line stays in
    its norm ball, and primitivity.  Sample words, lattice points and
    directions are fixed splitmix64 streams, so the records are a function
    of the inputs.

    `fault` breaks one invariant to show that its check catches it:
    "ratio" halves the claimed contraction ratio, "translation" moves
    subtile 1 of the pushed set-equation cloud by 0.01.  A matrix that is
    not unimodular Pisot raises before any check is run.
    """
    if fault not in (None, "ratio", "translation"):
        raise ValueError(f"unknown fault {fault!r}")
    sd = sset.spectral()
    require_unimodular_pisot(sd)
    d = sd.d
    checks = []

    bad = 0
    for s_idx, (sub, m) in enumerate(zip(sset.subs, sset.matrices)):
        for trial in range(50):
            letters = splitmix64_array(s_idx * 1000 + trial, 0, 1 + trial % 40) % np.uint64(d)
            w = (letters + np.uint64(1)).astype(np.uint8).tobytes()
            if abelianize(sub.apply(w), d) != m.times_vec(abelianize(w, d)):
                bad += 1
    checks.append(Check("abelianization-morphism", bad == 0, f"{bad}-mismatches", "0-mismatches"))

    # single words and then every prefix at once
    word = limit_point_prefix(seq, sset, 2000, chain_index=chain_index)
    bad = 0
    for t in (1, 7, 64, 500, 1999):
        parts = telescoping_decomposition(seq, sset, word[:t], chain_index=chain_index)
        if telescoped_counts(sset, parts) != abelianize(word[:t], d):
            bad += 1
    if not verify_all_prefix_identities(seq, sset, 2000, chain_index=chain_index).all_exact:
        bad += 1
    checks.append(Check("telescoping-identity", bad == 0, f"{bad}-mismatches-to-2000", "0-mismatches"))

    pts = (splitmix64_array(7, 0, 1000 * d) % np.uint64(201)).astype(float).reshape(1000, d) - 100
    mf = np.asarray(sset.shared_matrix.rows, dtype=float)
    lhs = pts @ mf.T @ sd.proj_coords.T
    rhs = pts @ sd.proj_coords.T @ sd.m_s.T
    resid = float(np.max(np.linalg.norm(lhs - rhs, axis=1)))
    checks.append(Check("projection-commutes", resid < 1e-9, f"{resid:.3e}", "1e-09"))

    # direction i takes indices i*d .. i*d + d-2 of the stream
    claimed = sd.lam / 2 if fault == "ratio" else sd.lam
    dirs = splitmix64_array(11, 0, 10_000 * d).reshape(10_000, d)[:, : d - 1] / 2.0**64 - 0.5
    dirs = dirs[np.linalg.norm(dirs, axis=1) > 1e-9]
    worst = float((adapted_norms(sd, dirs @ sd.m_s.T) / adapted_norms(sd, dirs)).max())
    checks.append(Check("contraction", worst <= claimed * (1 + 1e-12), f"{worst:.9f}", f"{claimed:.9f}"))

    shift = 0.01 if fault == "translation" else 0.0
    resid = set_equation_check(seq, sset, 2000, chain_index=chain_index, shift=shift).max_residual
    checks.append(Check("set-equation", resid < 1e-9, f"{resid:.3e}", "1e-09"))

    norm, bound = norm_ball(sset, project_prefixes(seq, sset, 20_000, chain_index=chain_index))
    checks.append(Check("bounded-projection", norm <= bound, f"{norm:.4f}", f"{bound:.4f}"))

    prim = is_primitive_sequence(seq, sset)
    measured = "none-within-horizon" if prim is None else f"positive-after-{prim + 1}-factors"
    checks.append(Check("primitivity", prim is not None, measured, "horizon-64"))
    return checks


# ---------------------------------------------------------------------------
# continuity in the directive sequence


@dataclass(frozen=True)
class ContinuityReport:
    """Hausdorff distance as a function of how long two sequences agree."""

    rows: list[tuple[int, float]]  # (agreement length, overall distance)
    ratio: float | None  # fitted per-level decay, None if too few usable rows
    lam: float
    resolution_limited: bool
    violations: int  # rows where the distance failed to decrease (5% slack)


def continuity_experiment(
    sset: SubstitutionSet,
    base: DirectiveSequence,
    variant: DirectiveSequence,
    agree_lengths: list[int],
    n_points: int = 30_000,
    chain_index: int = 0,
) -> ContinuityReport:
    """Distances between the fractal of base and fractals of hybrids that
    follow base for n levels and variant afterwards, for each n.

    The distances should decay geometrically at rate about lam; once they
    reach the resolution of an n_points cloud the fit stops using them and
    the report says so.
    """
    sd = sset.spectral()
    ref = project_prefixes(base, sset, n_points, chain_index=chain_index)
    rows = []
    for n in agree_lengths:
        hybrid = DirectiveSequence.spliced(base, variant, n)
        cloud = project_prefixes(hybrid, sset, n_points, chain_index=chain_index)
        per = subtile_hausdorff(sd, ref, cloud)
        rows.append((n, max(w.distance for w in per.values())))
    floor = 3.0 * _resolution_estimate(sd, ref)
    usable = [(n, dist) for n, dist in rows if dist > floor]
    ratio = None
    if len(usable) >= 3:
        ns = np.array([n for n, _ in usable], dtype=float)
        logs = np.log([dist for _, dist in usable])
        slope = np.polyfit(ns, logs, 1)[0]
        ratio = float(np.exp(slope))
    violations = sum(1 for k in range(1, len(rows)) if rows[k][1] > rows[k - 1][1] * 1.05)
    return ContinuityReport(
        rows=rows,
        ratio=ratio,
        lam=sd.lam,
        resolution_limited=len(usable) < len(rows),
        violations=violations,
    )


def _resolution_estimate(sd: SpectralData, approx: RauzyApprox) -> float:
    """Median nearest-neighbor spacing of the union cloud in the adapted
    norm; distances below a few multiples of this are not trustworthy."""
    pts = to_adapted(sd, approx.union())
    if len(pts) < 2:
        return 0.0
    sample = pts if len(pts) <= 20_000 else pts[:: len(pts) // 20_000 + 1]
    dist, _ = _kdtree(pts).query(sample, k=2)
    return float(np.median(dist[:, 1]))


# ---------------------------------------------------------------------------
# covering the stable space modulo the projected lattice


@dataclass(frozen=True)
class CoverageReport:
    """Fraction of a grid over a window that lies within eps of some lattice
    translate of the fractal."""

    fraction: float
    covered: int
    total: int
    window_radius: float
    grid_step: float
    eps: float
    mask: np.ndarray = field(repr=False, compare=False)  # covered, in grid order


def coverage_grid_steps(window_radius: float, grid_step: float, k: int) -> int:
    """Grid points per axis of `coverage_estimate`'s grid over [-R, R]^k.
    Raises ResourceError when the grid would hold more than 4,000,000
    points; the count is taken in float, so a grid too fine to count is
    refused, not an int overflow."""
    steps = np.floor(2 * window_radius / grid_step) + 1
    if steps**k > 4_000_000:
        raise ResourceError("coverage grid too fine for the window")
    return int(steps)


def coverage_estimate(
    approx: RauzyApprox,
    gamma: GammaLattice,
    window_radius: float,
    grid_step: float,
    eps: float | None = None,
) -> CoverageReport:
    """Sample a grid over [-R, R]^(d-1), reduce each sample modulo the
    projected lattice, and test proximity to the cloud under all lattice
    offsets with coefficients in {-2..2}.

    Numerical evidence for the translates tiling the stable space: the
    fraction should approach 1 as the cloud fills in.  A radius of 0 degrades
    to the single grid point at the origin.  `eps` (default `grid_step`) must
    be positive and finite.

    A grid point is covered when its nearest cloud point under some offset
    lies within `eps`.  Each k-d query is bounded by `eps * (1 + 1e-12)`, so a
    miss stops there instead of hunting for a far neighbour: scipy's bound is
    strict and compares squared distances, and the margin keeps a neighbour
    at distance exactly `eps` inside it, while the `dist <= eps` test keeps
    the covered set what an unbounded query gives.  The offsets run
    centre-first (stable-sorted by norm): the zero offset and its neighbours
    cover nearly every point, and later offsets query only the points still
    uncovered.  The mask is an OR over offsets of per-point tests, so the
    order changes the work, never the mask.
    """
    if window_radius < 0 or grid_step <= 0:
        raise ValueError("window_radius must be nonnegative and grid_step positive")
    tol = eps if eps is not None else grid_step
    if not 0 < tol < np.inf:
        raise ValueError("eps must be positive and finite")
    k = approx.d - 1
    if gamma.generators.shape != (k, k):
        raise ValueError("lattice dimension does not match the approximation")
    steps = coverage_grid_steps(window_radius, grid_step, k)
    axes = [np.linspace(-window_radius, window_radius, steps) for _ in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    grid = gamma.reduce(grid)
    cloud = approx.union()
    if len(cloud) == 0:
        raise DomainError("empty approximation")
    tree = _kdtree(cloud)
    bound = tol * (1 + 1e-12)
    covered = np.zeros(len(grid), dtype=bool)
    coeff_axes = np.meshgrid(*([np.arange(-2, 3)] * k), indexing="ij")
    coeffs = np.column_stack([c.ravel() for c in coeff_axes])
    offsets = coeffs.astype(float) @ gamma.generators
    offsets = offsets[np.argsort(np.linalg.norm(offsets, axis=1), kind="stable")]
    for off in offsets:
        todo = np.flatnonzero(~covered)
        if not len(todo):
            break
        dist, _ = tree.query(grid[todo] - off, distance_upper_bound=bound)
        covered[todo[dist <= tol]] = True
    return CoverageReport(
        fraction=float(covered.mean()),
        covered=int(covered.sum()),
        total=len(grid),
        window_radius=window_radius,
        grid_step=grid_step,
        eps=tol,
        mask=covered,
    )
