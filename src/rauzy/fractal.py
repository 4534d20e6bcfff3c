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

scipy.spatial is imported inside the functions that build k-d trees, so the
commands that never build one start without loading scipy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .adic import (
    DirectiveSequence,
    SubstitutionSet,
    limit_point_prefix,
    limit_tower,
    splitmix64_array,
)
from .core import (
    DomainError,
    IntMatrix,
    ResourceError,
    Substitution,
    abelianize,
    prefix_suffix_table,
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
    """Active point budget; RAUZY_POINT_BUDGET overrides the default."""
    raw = os.environ.get("RAUZY_POINT_BUDGET")
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ResourceError(f"RAUZY_POINT_BUDGET must be an integer, got {raw!r}") from None
    if value < _MIN_BUDGET:
        raise ResourceError(f"RAUZY_POINT_BUDGET must be at least {_MIN_BUDGET}")
    return value


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
    verts = np.zeros((len(word) + 1, d), dtype=np.int64)
    one_hot = np.zeros((len(word), d), dtype=np.int64)
    if len(word):
        one_hot[np.arange(len(word)), arr - 1] = 1
    np.cumsum(one_hot, axis=0, out=verts[1:])
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
    return {i: np.ascontiguousarray(pts[letters == i]) for i in range(1, d + 1)}


def project_word(sd: SpectralData, word: bytes) -> RauzyApprox:
    """Project the stepped-line vertices of word; vertex t joins the subtile
    of the letter word[t] that follows it.

    The Perron direction is annihilated by the projection, so t * u is
    subtracted from vertex t before the matrix product.  That keeps the
    intermediate entries bounded instead of growing linearly with t, which
    would otherwise lose about six digits to cancellation on long words.
    """
    line = stepped_line(word, sd.d)
    centered = line.vertices[:-1].astype(float)
    centered -= np.arange(len(word), dtype=float)[:, None] * sd.u
    pts = centered @ sd.proj_coords.T
    points = _split_by_letter(pts, line.letters, sd.d)
    meta = {"n": len(word), "source_word_len": len(word)}
    if len(word):
        meta["max_adapted_norm"] = float(adapted_norms(sd, pts).max())
    return RauzyApprox(points=points, d=sd.d, source="projection", meta=meta)


def prefix_bound_constant(sset: SubstitutionSet, sd: SpectralData) -> float:
    """Largest adapted norm of a projected proper-prefix count vector over
    all image splittings in the set; the projected stepped line of any limit
    point stays within this over (1 - lam)."""
    best = 0.0
    for sub in sset.subs:
        for entry in prefix_suffix_table(sub):
            if not entry.prefix:
                continue
            y = project(sd, np.asarray(abelianize(entry.prefix, sd.d), dtype=float))
            best = max(best, adapted_norm(sd, y))
    return best


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
    require_unimodular_pisot(sset.shared_matrix)
    cap = budget if budget is not None else point_budget()
    if n_points > cap:
        raise ResourceError(f"requested {n_points} points exceeds budget {cap}")
    word = limit_point_prefix(seq, sset, n_points, chain_index=chain_index)
    approx = project_word(sd, word)
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

    Works level by level: at level j every pending target length t_j is
    located inside the image of the level-(j+1) word by a cumulative-length
    search, contributing the count vector of a proper image prefix; the
    leftover index recurses upward.  All gathers are vectorized; a bound
    computed in exact arithmetic guards the int64 accumulators.
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

    rhs = np.zeros((length, d), dtype=np.int64)
    pending = np.arange(1, length + 1, dtype=np.int64)
    for j in range(depth):
        if not pending.any():
            break
        sub = sset[seq[j]]
        level_word = np.frombuffer(words[j + 1], dtype=np.uint8)
        image_lens = np.count_nonzero(sub.table, axis=1)
        cum = np.zeros(len(level_word) + 1, dtype=np.int64)
        np.cumsum(image_lens[level_word], out=cum[1:])
        idx = np.searchsorted(cum, pending, side="right") - 1
        rest = pending - cum[idx]
        # count vectors of image prefixes: prefix_counts[letter, r] = l(image(letter)[:r])
        prefix_counts = np.zeros((d + 1, sub.table.shape[1] + 1, d), dtype=np.int64)
        one_hot = sub.table[:, :, None] == np.arange(1, d + 1, dtype=np.uint8)
        np.cumsum(one_hot, axis=1, out=prefix_counts[:, 1:])
        src_letters = level_word[idx]
        part_counts = prefix_counts[src_letters, rest]
        power = np.asarray(m.pow(j).rows, dtype=np.int64)
        rhs += part_counts @ power.T
        # the letter at position t of the level-j word is the pivot of its split
        level_j_word = np.frombuffer(words[j], dtype=np.uint8)
        if not np.array_equal(sub.table[src_letters, rest], level_j_word[pending]):
            raise AssertionError("split pivots disagree with the level word")
        pending = idx
    if pending.any():
        raise AssertionError("prefix peel did not terminate within the deepened levels")
    line = stepped_line(words[0][:length], d)
    lhs = line.vertices[1:]
    return PrefixIdentityReport(checked=length, levels=depth, all_exact=bool(np.array_equal(lhs, rhs)))


# ---------------------------------------------------------------------------
# graph-directed iterated function system


@dataclass(frozen=True, eq=False)
class GifsEdge:
    """One image splitting of the outermost substitution: the subtile src of
    the shifted sequence maps into subtile pivot via y -> M_s y + translate."""

    src: int
    pivot: int
    translate: np.ndarray


def build_gifs_edges(sub: Substitution, sd: SpectralData) -> list[GifsEdge]:
    """Edges of the set equation for one outermost substitution."""
    edges = []
    for entry in prefix_suffix_table(sub):
        tr = project(sd, np.asarray(abelianize(entry.prefix, sd.d), dtype=float))
        edges.append(GifsEdge(src=entry.letter, pivot=entry.pivot, translate=tr))
    return edges


def gifs_step(sub: Substitution, sd: SpectralData, approx: RauzyApprox) -> RauzyApprox:
    """Push an approximation of the shifted sequence's subtiles through the
    set equation of sub, yielding an approximation for the unshifted one."""
    if approx.d != sd.d:
        raise ValueError("alphabet size mismatch")
    buckets: dict[int, list[np.ndarray]] = {i: [] for i in range(1, sd.d + 1)}
    mt = sd.m_s.T
    for edge in build_gifs_edges(sub, sd):
        src = approx.points[edge.src]
        if len(src):
            buckets[edge.pivot].append(src @ mt + edge.translate)
    points = {}
    for i in range(1, sd.d + 1):
        points[i] = np.vstack(buckets[i]) if buckets[i] else np.zeros((0, sd.d - 1))
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
    return points[mask], points[~mask]


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
    """
    sd = sset.spectral()
    require_unimodular_pisot(sset.shared_matrix)
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
    seed_norm = max(float(adapted_norms(sd, p).max()) for p in points.values())
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
                    from scipy.spatial import cKDTree

                    tree = cKDTree(to_adapted(sd, kept))
                    loss = float(tree.query(to_adapted(sd, removed))[0].max())
                    thinning_loss += loss * sd.lam**level  # later levels shrink it
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
            "max_adapted_norm": max(
                float(adapted_norms(sd, p).max()) for p in approx.points.values() if len(p)
            ),
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

    The trees only pick the neighbor indices; the distances themselves are
    recomputed with the plain sqrt-of-squares formula, so the result agrees
    bit for bit with a brute-force evaluation over the same pairs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("expected two (n, k) point arrays with matching k")
    if len(a) == 0 or len(b) == 0:
        raise DomainError("Hausdorff distance of an empty set is undefined")
    from scipy.spatial import cKDTree

    idx_ab = cKDTree(b).query(a)[1]
    idx_ba = cKDTree(a).query(b)[1]
    d_ab = np.sqrt(np.sum((a - b[idx_ab]) ** 2, axis=1))
    d_ba = np.sqrt(np.sum((b - a[idx_ba]) ** 2, axis=1))
    i = int(np.argmax(d_ab))
    j = int(np.argmax(d_ba))
    if d_ab[i] >= d_ba[j]:
        return HausdorffResult(float(d_ab[i]), a[i].copy(), b[idx_ab[i]].copy(), "a_to_b")
    return HausdorffResult(float(d_ba[j]), a[idx_ba[j]].copy(), b[j].copy(), "b_to_a")


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
) -> SetEquationReport:
    """The two sides of the set equation, evaluated on matched finite clouds.

    The source cloud projects a limit-point prefix u1 of the shifted
    sequence; the target projects sigma_0(u1), which is a limit-point prefix
    of the unshifted sequence.  Every target vertex is then exactly one
    mapped source vertex, so up to floating point the per-letter clouds
    coincide and the residual is numerical noise.
    """
    sd = sset.spectral()
    require_unimodular_pisot(sset.shared_matrix)
    sub0 = sset[seq[0]]
    u1 = limit_point_prefix(seq.shift(1), sset, n_points, chain_index=chain_index)
    source = project_word(sd, u1)
    target = project_word(sd, sub0.apply(u1))
    stepped = gifs_step(sub0, sd, source)
    per = {}
    for i in range(1, sd.d + 1):
        res = hausdorff(to_adapted(sd, stepped.points[i]), to_adapted(sd, target.points[i]))
        per[i] = res.distance
    return SetEquationReport(
        per_letter=per,
        max_residual=max(per.values()),
        n_source=source.total(),
        n_target=target.total(),
    )


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
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(pts).query(sample, k=2)
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
    steps = int(np.floor(2 * window_radius / grid_step)) + 1
    if steps**k > 4_000_000:
        raise ResourceError("coverage grid too fine for the window")
    axes = [np.linspace(-window_radius, window_radius, steps) for _ in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    grid = gamma.reduce(grid)
    cloud = approx.union()
    if len(cloud) == 0:
        raise DomainError("empty approximation")
    from scipy.spatial import cKDTree

    tree = cKDTree(cloud)
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
