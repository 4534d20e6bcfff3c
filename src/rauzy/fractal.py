"""Two routes to the Rauzy fractal of a directive sequence and the checks
that tie them together.

Route one projects the vertices of the stepped line of a long limit-point
prefix onto the stable space; the points land in subtiles indexed by the
letter following each vertex.  Route two iterates the graph-directed maps
read off the outermost substitution's image splittings: subtile i of the
sequence is the union over occurrences of i of M_s times a subtile of the
shifted sequence plus the projected prefix count.  Both produce a dict of
point clouds per letter, and their Hausdorff distance in the adapted norm is
the headline consistency number.

scipy.spatial is imported by `_kdtree`, the one builder of k-d trees, at the
first build, so the commands that never build one start without loading
scipy.
"""

from __future__ import annotations

import itertools
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
# stepped lines and projection


@dataclass(frozen=True, eq=False)
class SteppedLine:
    """Vertex t is the letter-count vector of word[:t]; edge t carries
    letters[t] = word[t]."""

    vertices: np.ndarray  # (n+1, d) int64
    letters: np.ndarray  # (n,) uint8


def stepped_line(word: bytes, d: int) -> SteppedLine:
    """Integer broken line of a word in Z^d."""
    arr = np.frombuffer(word, dtype=np.uint8)
    if arr.size and (arr.min() < 1 or arr.max() > d):
        raise ValueError("word contains letters outside 1..d")
    # one 1 per row of verts[1:], summed in place: no (n, d) temporary
    verts = np.zeros((len(word) + 1, d), dtype=np.int64)
    verts[np.arange(1, len(word) + 1), arr - 1] = 1
    np.cumsum(verts, axis=0, out=verts)
    return SteppedLine(vertices=verts, letters=arr)


@dataclass(eq=False)
class RauzyApprox:
    """Point-cloud approximation of the fractal, one cloud per letter.

    points always holds every letter 1..d, possibly with empty (0, d-1)
    arrays.  meta records how the cloud was made and any error bounds.
    """

    points: dict[int, np.ndarray]
    d: int
    source: str
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


# rows of the stepped line centred at a time: 1.5 MB of float temporaries at d = 3
_CENTER_ROWS = 65_536


def _project_line(sd: SpectralData, word: bytes) -> np.ndarray:
    """The projected stepped-line vertices 0..n-1 of word, in word order:
    an (n, d-1) array whose row t is the projection of l(word[:t]).

    The counts are built in the one float (n, d) array the matrix product
    reads: a 1 per row for the letter before it, summed in place.  The sums
    are integers below 2**53, so each is exact and equals the int64 count
    converted to float.  Then t * u is subtracted from row t, a chunk of
    rows at a time, which gives the same bits as one full-size subtraction.
    The product itself is taken on the full operand, since its rounding can
    depend on the operand's shape.  At its peak the call holds that operand
    and the result: 8 * (2d - 1) bytes per point."""
    n, d = len(word), sd.d
    letters = np.frombuffer(word, dtype=np.uint8)
    if n and (letters.min() < 1 or letters.max() > d):
        raise ValueError("word contains letters outside 1..d")
    centered = np.zeros((n, d))
    for j in range(d):
        centered[1:, j] = letters[:-1] == j + 1
    np.cumsum(centered, axis=0, out=centered)
    for start in range(0, n, _CENTER_ROWS):
        rows = centered[start : start + _CENTER_ROWS]
        rows -= np.arange(start, start + len(rows), dtype=float)[:, None] * sd.u
    return centered @ sd.proj_coords.T


def project_word(sd: SpectralData, word: bytes) -> RauzyApprox:
    """Project the stepped-line vertices of word; vertex t joins the subtile
    of the letter word[t] that follows it.

    The Perron direction is annihilated by the projection, so t * u is
    subtracted from vertex t before the matrix product.  That keeps the
    intermediate entries bounded instead of growing linearly with t, which
    would otherwise lose about six digits to cancellation on long words.
    The vertices are counted in float, exactly (see _project_line), so the
    call never holds the int64 stepped line: its peak is the float counts
    and their projection, then the projection and its split by letter.
    """
    pts = _project_line(sd, word)
    points = _split_by_letter(pts, np.frombuffer(word, dtype=np.uint8), sd.d)
    return RauzyApprox(points=points, d=sd.d, source="projection", meta={"n": len(word)})


def _max_adapted_norm(sd: SpectralData, points: dict[int, np.ndarray]) -> float:
    """Largest adapted norm over the nonempty clouds, taken one subtile at a
    time, so no temporary is larger than the largest subtile."""
    return max(float(adapted_norms(sd, p).max()) for p in points.values() if len(p))


def prefix_bound_constant(sset: SubstitutionSet, sd: SpectralData) -> float:
    """Largest adapted norm of a GIFS edge translate, the projected count
    vector of an image prefix, over all substitutions in the set; the
    projected stepped line of any limit point stays within this over
    (1 - lam)."""
    return max(adapted_norm(sd, e.translate) for sub in sset.subs for e in build_gifs_edges(sub, sd))


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
    if word:
        approx.meta["max_adapted_norm"] = _max_adapted_norm(sd, approx.points)
    c = prefix_bound_constant(sset, sd)
    approx.meta.update(
        {
            "sequence": seq.describe(),
            "chain_index": chain_index,
            "C": c,
            "norm_bound": c / (1.0 - sd.lam),
        }
    )
    return approx


# ---------------------------------------------------------------------------
# telescoping decomposition of limit-point prefixes


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
    l(word) = sum_j M^j l(P_j) then holds exactly.  Raises DomainError when
    word is not a prefix of the selected limit point.
    """
    if not word:
        return []
    _, words = limit_tower(seq, sset, len(word) + 1, chain_index)
    if words[0][: len(word)] != word:
        raise DomainError("word is not a prefix of the selected limit point")
    depth = len(words) - 1
    parts: list[bytes] = []
    remaining = word
    for j in range(depth):
        if not remaining:
            break
        sub = sset[seq[j]]
        level_word = words[j + 1]
        consumed = 0
        used = 0
        for c in level_word:
            step = len(sub.image(c))
            if consumed + step > len(remaining):
                break
            consumed += step
            used += 1
        part = remaining[consumed:]
        if part:
            image = sub.image(level_word[used])
            if image[: len(part)] != part or len(part) >= len(image):
                raise AssertionError("peeled part is not a proper image prefix")
        parts.append(part)
        remaining = level_word[:used]
    if remaining:
        raise AssertionError("telescoping peel did not terminate")
    while parts and not parts[-1]:
        parts.pop()
    # exact reconstruction check before reversing to deepest-first order
    rebuilt = b""
    for j in range(len(parts) - 1, -1, -1):
        rebuilt = sset[seq[j]].apply(rebuilt) + parts[j]
    if rebuilt != word:
        raise AssertionError("telescoping reconstruction mismatch")
    parts.reverse()
    return parts


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
    sum for prefix t.  A forward pass records idx_j and l(P_j) for every
    position, checking that the letter after P_j in its image (the pivot)
    is the letter the level word holds there; a backward pass folds the
    levels in.  The positions shrink by the growth factor per level, so
    the work is about 2 * length gathers where carrying every target
    through every level took levels * length.  Every partial sum has
    nonnegative terms and is at most the full sum, so one bound computed
    in exact arithmetic guards the int64 accumulators.
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

    levels = []  # per level: (idx_j, count vectors l(P_j(t))), t = 0..N_j
    top = length  # N_j
    for j in range(depth):
        if top == 0:
            break
        sub = sset[seq[j]]
        width = sub.prefix_counts.shape[1]  # L + 1 prefixes per image
        level_word = np.frombuffer(words[j + 1], dtype=np.uint8)
        image_lens = np.count_nonzero(sub.table, axis=1)
        # letters of the level-(j+1) word whose images cover positions 0..N_j
        # (each image has a letter, so the first N_j + 1 letters are enough)
        cum = np.cumsum(image_lens[level_word[: top + 1]])
        used = int(np.searchsorted(cum, top, side="right")) + 1
        images = sub.table[level_word[:used]]
        idx, rest = np.nonzero(images)
        idx, rest = idx[: top + 1], rest[: top + 1]
        # the letter at position t of the level-j word is the pivot of its split
        if not np.array_equal(images[idx, rest], np.frombuffer(words[j], dtype=np.uint8)[: top + 1]):
            raise AssertionError("split pivots disagree with the level word")
        # gathered by flat row, which numpy does faster than a 2-D index;
        # the row numbers are built in one array
        flat = level_word[idx].astype(np.intp)
        flat *= width
        flat += rest
        levels.append((idx, np.take(sub.prefix_counts.reshape(-1, d), flat, axis=0)))
        top = int(idx[-1])
    if top:
        raise AssertionError("prefix peel did not terminate within the deepened levels")
    mt = np.asarray(m.rows, dtype=np.int64).T
    rhs = np.zeros((1, d), dtype=np.int64)  # R_J[0] = 0 once N_J = 0
    for idx, part_counts in reversed(levels):
        part_counts += (rhs @ mt)[idx]
        rhs = part_counts
    line = stepped_line(words[0][:length], d)
    return PrefixIdentityReport(
        checked=length, levels=depth, all_exact=bool(np.array_equal(line.vertices, rhs))
    )


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
    meta = {"depth": approx.meta.get("depth", 0) + 1}
    return RauzyApprox(points=points, d=sd.d, source="gifs", meta=meta)


def _thin(points: np.ndarray, keep: int, key_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically keep `keep` points: those with the smallest
    splitmix64 keys, preserving original order.  Returns (kept, removed)."""
    n = len(points)
    keys = splitmix64_array(key_seed, 0, n)
    sel = np.argpartition(keys, keep - 1)[:keep] if keep < n else np.arange(n)
    sel.sort()
    mask = np.zeros(n, dtype=bool)
    mask[sel] = True
    return np.compress(mask, points, axis=0), np.compress(~mask, points, axis=0)


def _thinning_loss(sd: SpectralData, kept: np.ndarray, removed: np.ndarray) -> float:
    """Largest adapted distance from a removed point to its nearest kept
    point, as the k-d tree measures it.  The tree and the adapted copies
    are freed on return, before the next level is stepped."""
    query, target = to_adapted(sd, removed), to_adapted(sd, kept)
    tree = _kdtree(target)
    r = _sampled_max(query, tree, target, plain=False)
    loss, _, _ = _farthest(query, target, tree, r, plain=False)
    return float(loss)


def gifs_attractor(
    seq: DirectiveSequence,
    sset: SubstitutionSet,
    depth: int,
    budget: int | None = None,
    seed_points: dict[int, np.ndarray] | None = None,
) -> RauzyApprox:
    """Iterate the set equations of sigma_0 .. sigma_(depth-1), innermost
    first, starting from one point per subtile (the origin by default).

    The result is within lam^depth * (C/(1-lam) + seed norm) of the true
    subtiles in adapted Hausdorff distance; when the point budget forces
    thinning, the extra one-sided loss is measured and added to the bound in
    meta["error_bound"].

    A level's loss is the largest distance from a removed point to its
    nearest kept point, as the k-d tree over the kept points measures it,
    found by one pass of `_farthest` with r the exact maximum over a
    strided sample of the removed points.  A removed point drops out of
    that pass only when a kept point is certainly nearer than r, found in
    its grid cell or a neighbouring one or by a query bounded by r, so
    every point at or above r gets the full query: the loss is the same
    number a query of every removed point gives.
    """
    sd = sset.spectral()
    require_unimodular_pisot(sd)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cap = budget if budget is not None else point_budget()
    d = sd.d
    if seed_points is None:
        points = {i: np.zeros((1, d - 1)) for i in range(1, d + 1)}
    else:
        points = {}
        for i in range(1, d + 1):
            arr = np.asarray(seed_points.get(i, ()), dtype=float).reshape(-1, d - 1)
            if len(arr) == 0:
                raise DomainError(f"seed for subtile {i} must be nonempty")
            points[i] = arr
    seed_norm = _max_adapted_norm(sd, points)
    approx = RauzyApprox(points=points, d=d, source="gifs", meta={"depth": 0})
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
                if keep >= len(pts):
                    continue
                kept, removed = _thin(pts, keep, key_seed=(level << 8) | i)
                if len(removed):
                    # later levels shrink it
                    thinning_loss += _thinning_loss(sd, kept, removed) * sd.lam**level
                approx.points[i] = kept
    base_bound = sd.lam**depth * (c / (1.0 - sd.lam) + seed_norm)
    approx.meta.update(
        {
            "depth": depth,
            "sequence": seq.describe(),
            "ratio": sd.lam,
            "C": c,
            "error_bound": base_bound + thinning_loss,
            "thinned": thinned,
            "thinning_loss": thinning_loss,
            "norm_bound": c / (1.0 - sd.lam) + sd.lam**depth * seed_norm,
            "max_adapted_norm": _max_adapted_norm(sd, approx.points),
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
    floating point: nearest neighbors from k-d tree queries, no sampling.

    The trees only pick the neighbor indices; the distances that can set
    the answer are recomputed with the plain sqrt-of-squares formula, so
    the result agrees bit for bit with a brute-force evaluation over the
    same pairs.  A query's nearest distance depends on neither the order of
    the queries nor the tree's shape; the far witness is the lowest row at
    the maximum, and where several points tie for nearest, the near witness
    is the lowest row among those at the witness distance, so the witnesses
    and the direction are a function of the two arrays alone.

    Each direction is one pass of `_farthest`.  The larger set L goes
    first, against the smaller set S's tree, with r the exact maximum over
    a strided sample of L.  S's direction wins only if it reaches L's exact
    maximum, so S's pass takes that as its r, and builds L's tree only when
    a row of S is left after the grid.  A pass drops only rows that a point
    of the other set is certainly nearer than r to, so every row that can
    set the maximum gets the full query.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("expected two (n, k) point arrays with matching k")
    if len(a) == 0 or len(b) == 0:
        raise DomainError("Hausdorff distance of an empty set is undefined")
    swap = len(a) > len(b)
    small, large = (b, a) if swap else (a, b)
    tree_s = _kdtree(small)
    r = _sampled_max(large, tree_s, small, plain=True)
    far_l = _farthest(large, small, tree_s, r, plain=True)
    far_s = _farthest(small, large, None, far_l[0], plain=True)
    # each pass returns the tree over its target, built when the pass wins
    (d_ab, i, tree_b), (d_ba, j, tree_a) = (far_l, far_s) if swap else (far_s, far_l)
    if d_ab >= d_ba:
        near = _lowest_nearest(tree_b, b, a[i], d_ab)
        return HausdorffResult(float(d_ab), a[i].copy(), near, "a_to_b")
    near = _lowest_nearest(tree_a, a, b[j], d_ba)
    return HausdorffResult(float(d_ba), near, b[j].copy(), "b_to_a")


# rows of the strided sample that gives the kernel its lower bound
_SAMPLE_ROWS = 4096
# the grid may have at most this many cells per query and target row (a
# map of at most 32 bytes per row), at most _MAX_CELLS in all, and at most
# _AXIS_CELLS along an axis; a finer grid clears nothing
_CELLS_PER_ROW = 8
_MAX_CELLS = (1 << 31) - 1
_AXIS_CELLS = 1 << 20
# rows binned, looked up or queried at a time
_CHUNK_ROWS = 65_536


def _sampled_max(query, tree, target, plain: bool) -> float:
    """The exact directed maximum over a strided sample of about
    _SAMPLE_ROWS query rows: a lower bound r to give `_farthest`."""
    sample = np.arange(0, len(query), -(-len(query) // _SAMPLE_ROWS))
    return _directed_max(query, sample, tree, target, plain)[0]


def _farthest(query, target, tree, r: float, plain: bool):
    """One direction of the directed-distance kernel: the largest distance
    from a query row to its nearest target point, the lowest row at that
    maximum, and the k-d tree over target (`tree`, or when None one built
    here if a row is left), given a lower bound r on the answer.

    Rows that `_cleared`'s grid clears (a target point in the row's own
    cell, or one within r (1 - 1e-12) in a neighbouring cell), then rows
    whose query bounded by r (1 - 1e-12) finds one, are strictly nearer
    than r and drop out; the rest get `_directed_max`'s full query.  Each
    drop rests on a real target point nearer than r, so every row at or
    above r gets the full query, and the maximum and its row are exact
    when the maximum reaches r; a maximum below r comes back as some value
    below r, or as (-inf, -1) when no row is left.
    """
    cleared = _cleared(query, target, r)
    rows = np.arange(len(query)) if cleared is None else np.flatnonzero(~cleared)
    if len(rows) and tree is None:
        tree = _kdtree(target)
    if r > 0:
        rows = _beyond(query, rows, tree, r * (1 - 1e-12))
    top, best = _directed_max(query, rows, tree, target, plain)
    return top, best, tree


def _beyond(query, rows, tree, bound: float) -> np.ndarray:
    """The rows, in their order, whose bounded query finds no tree point
    within `bound`; queried _CHUNK_ROWS at a time."""
    left = [np.empty(0, dtype=np.intp)]
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        dist, _ = tree.query(query[chunk], distance_upper_bound=bound)
        left.append(chunk[np.isinf(dist)])
    return np.concatenate(left)


def _directed_max(query, rows, tree, target, plain: bool) -> tuple[float, int]:
    """Largest nearest distance over query[rows] and the lowest of those
    rows attaining it; (-inf, -1) when rows is empty.  Rows are queried
    _CHUNK_ROWS at a time, so no temporary grows with the number of rows.
    Distances are the tree's own, or with `plain` the plain formula over
    the tree's nearest neighbor: the tree's distance differs from it by a
    few ulps, so the rows at the plain maximum are among those within a
    relative 1e-12 of the tree's, and only those get the plain formula."""
    top, best = -np.inf, -1
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        pts = query[chunk]
        dist, idx = tree.query(pts)
        if plain:
            near = np.flatnonzero(dist >= dist.max() * (1 - 1e-12))
            dist = _distances(pts[near], target[idx[near]])
        peak = dist.max()
        if peak >= top:
            at = np.flatnonzero(dist == peak)
            if plain:
                at = near[at]
            low = int(chunk[at].min())
            best = low if peak > top else min(best, low)
            top = peak
    return top, best


def _cleared(query: np.ndarray, target: np.ndarray, r: float) -> np.ndarray | None:
    """Mask of the query rows that a target point certainly lies nearer
    than r to, or None, clearing nothing, when r is 0 or the grid would be
    too fine.

    The grid covers target's bounding box with cubes of side
    r / (sqrt(k) (1 + 1e-9)), so two points in one cube are strictly nearer
    than r.  The box is taken one column at a time, which numpy runs much
    faster than a min or max along axis 0 of rows of length k, and needs no
    tree over target.  The cells start half a side before the box, so a
    query row just outside it (a cloud's extreme point, off from the other
    cloud's by rounding) still shares the box's edge cells.  With at most
    2^20 cells per axis a cell coordinate is rounded by at most 2^-32 of a
    side, well inside the 1e-9 margin.  A ring of cells that no target
    point occupies surrounds the box, and a query row outside the grid is
    clamped onto it.

    Each occupied cell remembers one of its target rows in an int32 map, -1
    where the cell is empty; which one does not matter.  A row whose own
    cell is occupied is cleared.  Each other row walks its cell's 3^k - 1
    neighbours, face neighbours first, and is cleared once a neighbour's
    target row lies within r (1 - 1e-12) by the plain squared formula.  A
    cleared row is thus nearer than r by a real target point, and every
    row at or above r is left.  Only a row on the ring has neighbours past
    the grid's edge; their keys wrap onto other ring cells, or are clipped
    onto the map's end cells, which are ring cells too, and hold no target
    row.

    The map takes 4 bytes a cell, at most 4 _CELLS_PER_ROW = 32 bytes per
    query and target row, and the mask one byte per query row.  Rows are
    binned, looked up and walked _CHUNK_ROWS at a time, with at most 64 k
    bytes of temporaries per row of a chunk.
    """
    k = query.shape[1]
    side = r / (np.sqrt(k) * (1 + 1e-9))
    if not side > 0:
        return None
    lo = np.array([target[:, j].min() for j in range(k)])
    extent = np.array([target[:, j].max() for j in range(k)]) - lo
    if np.any(extent >= _AXIS_CELLS * side):
        return None
    lo -= side / 2
    shape = np.floor(extent / side + 0.5) + 3  # the box's cells and the ring
    if np.prod(shape) > min(_CELLS_PER_ROW * (len(query) + len(target)), _MAX_CELLS):
        return None
    strides = np.cumprod(np.r_[1, shape[:0:-1]])[::-1]  # row-major
    occupant = np.full(int(np.prod(shape)), -1, dtype=np.int32)
    for start in range(0, len(target), _CHUNK_ROWS):
        keys = _cell_keys(target[start : start + _CHUNK_ROWS], lo, side, shape, strides)
        occupant[keys] = np.arange(start, start + len(keys), dtype=np.int32)
    steps = _neighbour_steps(strides)
    bound = (r * (1 - 1e-12)) ** 2
    cleared = np.ones(len(query), dtype=bool)
    for start in range(0, len(query), _CHUNK_ROWS):
        pts = query[start : start + _CHUNK_ROWS]
        keys = _cell_keys(pts, lo, side, shape, strides)
        left = np.flatnonzero(occupant[keys] < 0)
        for step in steps:
            if not len(left):
                break
            near = occupant[np.clip(keys[left] + step, 0, len(occupant) - 1)]
            hit = np.flatnonzero(near >= 0)
            diff = pts[left[hit]] - target[near[hit]]
            left = np.delete(left, hit[np.einsum("ij,ij->i", diff, diff) < bound])
        cleared[start + left] = False
    return cleared


def _neighbour_steps(strides) -> list[int]:
    """Key offsets of a cell's 3^k - 1 neighbours in a row-major grid with
    these strides, those differing in fewest coordinates first."""
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=len(strides)) if any(o)]
    offsets.sort(key=np.count_nonzero)
    return [int(np.dot(o, strides)) for o in offsets]


def _cell_keys(pts, lo, side, shape, strides) -> np.ndarray:
    """Key of each row's cell, rows outside the box clamped onto the ring.
    The keys are exact: float64 holds every integer below 2^53.  The axes
    are taken one at a time, which numpy runs faster than rows of length
    k."""
    keys = np.zeros(len(pts))
    cell = np.empty(len(pts))
    for j in range(pts.shape[1]):
        np.subtract(pts[:, j], lo[j], out=cell)
        cell /= side
        np.floor(cell, out=cell)
        cell += 1
        np.clip(cell, 0, shape[j] - 1, out=cell)
        cell *= strides[j]
        keys += cell
    return keys.astype(np.intp)


def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances, p and q broadcast against each other."""
    return np.sqrt(np.sum((p - q) ** 2, axis=1))


def _lowest_nearest(tree, pts: np.ndarray, x: np.ndarray, dist: float) -> np.ndarray:
    """The lowest row of pts at distance dist from x, dist being x's nearest
    distance by the plain formula.  The ball query returns every row the
    tree puts within a hair of dist (its arithmetic may differ in the last
    bit), the plain formula then picks among them."""
    rows = np.sort(np.asarray(tree.query_ball_point(x, dist * (1 + 1e-12)), dtype=np.intp))
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
    source = project_word(sd, u1)
    target = project_word(sd, sub0.apply(u1))
    stepped = gifs_step(sub0, sd, source)
    if shift:
        stepped.points[1] = stepped.points[1] + shift
    letters = np.frombuffer(u1, dtype=np.uint8)
    images = sub0.table[letters]
    s, j = np.nonzero(images)  # target position t, in order, is (s[t], j[t])
    rank = np.empty(len(letters), dtype=np.intp)
    for a in range(1, d + 1):
        at = letters == a
        rank[at] = np.arange(np.count_nonzero(at))
    edges = build_gifs_edges(sub0, sd)
    _, starts = _gifs_layout(edges, {a: len(source.points[a]) for a in range(1, d + 1)})
    edge_start = np.zeros(sub0.table.shape, dtype=np.intp)
    edge_start[np.nonzero(sub0.table)] = starts  # edges come in table order
    rows = edge_start[letters[s], j] + rank[s]
    pivots = images[s, j]
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

    meta = project_prefixes(seq, sset, 20_000, chain_index=chain_index).meta
    norm, bound = meta["max_adapted_norm"], meta["norm_bound"]
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
