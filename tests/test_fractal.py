"""Tests for both fractal constructions and the checks that tie them together."""

import random

import numpy as np
import pytest

from rauzy.adic import DirectiveSequence, SubstitutionSet, limit_point_prefix, parse_sequence_spec
from rauzy.core import (
    Alphabet,
    DomainError,
    MAX_PREFIX_ENTRIES,
    ParseError,
    ResourceError,
    Substitution,
    abelianize,
    load_substitution_file,
    stepped_line,
)
from rauzy.fractal import (
    RauzyApprox,
    build_gifs_edges,
    compare_constructions,
    continuity_experiment,
    coverage_estimate,
    gifs_attractor,
    gifs_step,
    hausdorff,
    invariant_checks,
    norm_ball,
    point_budget,
    prefix_bound_constant,
    project_prefixes,
    project_word,
    set_equation_check,
    subtile_hausdorff,
    telescoped_counts,
    telescoping_decomposition,
    verify_all_prefix_identities,
)
from rauzy.spectral import (
    GammaLattice,
    adapted_norm,
    gamma_generators,
    project,
    to_adapted,
)

CONST_1 = DirectiveSequence.periodic((), (0,))
CONST_2 = DirectiveSequence.periodic((), (1,))


# ---------------------------------------------------------------------------
# stepped lines and projection


def _one_hot_line(word: bytes, d: int) -> np.ndarray:
    """The stepped line as an int64 array: a one-hot row per letter, summed
    into a second array."""
    n = len(word)
    one_hot = np.zeros((n, d), dtype=np.int64)
    one_hot[np.arange(n), np.frombuffer(word, dtype=np.uint8) - 1] = 1
    want = np.zeros((n + 1, d), dtype=np.int64)
    np.cumsum(one_hot, axis=0, out=want[1:])
    return want


def test_stepped_line_literal():
    line = stepped_line(b"\x01\x02\x01\x03", 3)
    expected = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 1, 1]]
    assert line.tolist() == expected
    assert line.dtype == np.float64


def test_stepped_line_empty_and_bad_letter():
    line = stepped_line(b"", 3)
    assert line.shape == (1, 3)
    with pytest.raises(ValueError):
        stepped_line(b"\x04", 3)
    with pytest.raises(ValueError):
        stepped_line(b"\x00", 3)


def test_stepped_line_vertices_are_prefix_counts():
    rng = random.Random(7)
    word = bytes(rng.randrange(1, 4) for _ in range(200))
    line = stepped_line(word, 3)
    for t in (0, 1, 57, 200):
        assert tuple(line[t]) == abelianize(word[:t], 3)


@pytest.mark.parametrize("d, n", [(2, 0), (2, 1), (3, 5000), (4, 777), (7, 3000)])
def test_stepped_line_bit_equal_to_one_hot_reference(d, n):
    # float counts are exact: converted to int64 they are the reference's
    word = np.random.default_rng(d * 1000 + n).integers(1, d + 1, size=n, dtype=np.uint8).tobytes()
    want = _one_hot_line(word, d)
    line = stepped_line(word, d)
    assert line.dtype == np.float64
    assert line.shape == want.shape
    assert np.array_equal(line.astype(np.int64), want)
    assert np.array_equal(line, want.astype(float))


def test_project_word_splits_by_following_letter(tribo_sd):
    approx = project_word(tribo_sd, b"\x01\x02\x01\x03")
    assert {i: len(p) for i, p in approx.points.items()} == {1: 2, 2: 1, 3: 1}
    assert approx.total() == 4
    assert approx.meta["n"] == 4
    # vertex 0 is the origin and precedes the first letter
    assert np.allclose(approx.points[1][0], 0.0, atol=1e-15)


def test_project_word_matches_direct_projection(tribo_sd):
    # centering subtracts multiples of u, which the projection kills, so the
    # result must agree with projecting the raw count vectors
    word = b"\x01\x02\x01\x03\x01\x01\x02"
    approx = project_word(tribo_sd, word)
    raw = project(tribo_sd, stepped_line(word, 3)[:-1])
    letters = np.frombuffer(word, dtype=np.uint8)
    got = np.vstack([approx.points[i] for i in (1, 2, 3)])
    want = np.vstack([raw[letters == i] for i in (1, 2, 3)])
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_project_word_bit_equal_to_int64_reference(d):
    # the float counts are exact, and centring a chunk of rows at a time
    # gives the bits of one full-size centring of the int64 stepped line;
    # 150,000 letters span three chunks
    sset = SubstitutionSet([Substitution(Alphabet.default(d), _bonacci(d))])
    sd = sset.spectral()
    word = limit_point_prefix(CONST_1, sset, 150_000)
    centered = _one_hot_line(word, d)[:-1].astype(float)
    centered -= np.arange(len(word), dtype=float)[:, None] * sd.u
    want = centered @ sd.proj_coords.T
    letters = np.frombuffer(word, dtype=np.uint8)
    approx = project_word(sd, word)
    for i in range(1, d + 1):
        assert approx.points[i].tobytes() == np.ascontiguousarray(want[letters == i]).tobytes()


@pytest.mark.parametrize("name", ["tribo_set", "tetra_set"])
def test_project_prefixes_holds_the_cloud_once(name, request, traced_peak):
    # at its peak the projection holds the float stepped line, (n + 1, d),
    # and its projection, (n, d - 1): no second copy of either
    sset = request.getfixturevalue(name)
    d, n = sset.spectral().d, 200_000
    project_prefixes(CONST_1, sset, 1000)  # spectral data and tables, outside the trace
    approx, peak = traced_peak(lambda: project_prefixes(CONST_1, sset, n))
    assert approx.total() == n
    assert peak < (2 * d - 1) * 8 * n * 1.3


def test_every_prefix_cloud_is_projected_by_project_word(tribo_set, monkeypatch):
    from rauzy import fractal

    words = []
    inner = fractal.project_word

    def spy(sd, word):
        words.append(len(word))
        return inner(sd, word)

    monkeypatch.setattr(fractal, "project_word", spy)
    assert project_prefixes(CONST_1, tribo_set, 500).total() == 500
    assert words == [500]
    words.clear()
    compare_constructions(CONST_1, tribo_set, 400, 3)
    assert words == [400]
    words.clear()
    continuity_experiment(tribo_set, CONST_1, CONST_2, agree_lengths=[1, 2], n_points=300)
    assert words == [300, 300, 300]


def test_prefix_bound_constant_manual_enumeration(tribo_set, tribo_sd):
    # images of the two substitutions: ab, ac, a and ab, ca, a; the proper
    # nonempty prefixes are "a" and "c", enumerated here by hand
    candidates = [(1, 0, 0), (0, 0, 1)]
    want = max(
        adapted_norm(tribo_sd, project(tribo_sd, np.asarray(v, dtype=float)))
        for v in candidates
    )
    got = prefix_bound_constant(tribo_set, tribo_sd)
    assert got == pytest.approx(want, abs=1e-12)
    assert got > 0


def test_project_prefixes_meta_and_bound(tribo_set):
    approx = project_prefixes(CONST_1, tribo_set, 5000)
    assert approx.total() == 5000
    assert approx.meta["sequence"] == "(1)"
    assert approx.meta["chain_index"] == 0
    norm, bound = norm_ball(tribo_set, approx)
    assert norm <= bound


def test_project_prefixes_budget(tribo_set):
    with pytest.raises(ResourceError):
        project_prefixes(CONST_1, tribo_set, 2000, budget=1999)


def test_point_budget_env(monkeypatch):
    monkeypatch.delenv("RAUZY_POINT_BUDGET", raising=False)
    default = point_budget()
    assert default >= 1_000_000
    monkeypatch.setenv("RAUZY_POINT_BUDGET", "123456")
    assert point_budget() == 123456
    # a malformed or too-small value is malformed input, as a bad --budget is
    monkeypatch.setenv("RAUZY_POINT_BUDGET", "99")
    with pytest.raises(ParseError):
        point_budget()
    monkeypatch.setenv("RAUZY_POINT_BUDGET", "many")
    with pytest.raises(ParseError):
        point_budget()


def test_non_pisot_projection_refused(quartic_set):
    seq = DirectiveSequence.periodic((), (0,))
    with pytest.raises(DomainError):
        project_prefixes(seq, quartic_set, 1000)


def test_no_shared_matrix_refused(sturmian_set):
    seq = DirectiveSequence.periodic((), (0, 1))
    with pytest.raises(DomainError):
        project_prefixes(seq, sturmian_set, 1000)


# ---------------------------------------------------------------------------
# telescoping decomposition


def test_telescoping_literal_abac(tribo_set):
    parts = telescoping_decomposition(CONST_1, tribo_set, b"\x01\x02\x01\x03")
    assert parts == [b"\x01", b"", b""]
    counts = telescoped_counts(tribo_set, parts)
    assert counts == abelianize(b"\x01\x02\x01\x03", 3) == (2, 1, 1)


def test_telescoping_single_letter(tribo_set):
    parts = telescoping_decomposition(CONST_1, tribo_set, b"\x01")
    assert parts == [b"\x01"]
    assert telescoped_counts(tribo_set, parts) == (1, 0, 0)


def test_telescoping_empty_word(tribo_set):
    assert telescoping_decomposition(CONST_1, tribo_set, b"") == []
    assert telescoped_counts(tribo_set, []) == (0, 0, 0)


def test_telescoping_rejects_non_prefix(tribo_set):
    with pytest.raises(DomainError):
        telescoping_decomposition(CONST_1, tribo_set, b"\x02\x01")


def test_telescoping_count_identity_fuzz(tribo_set):
    seq = DirectiveSequence.random(11, 2)
    word = limit_point_prefix(seq, tribo_set, 400)
    rng = random.Random(2)
    for t in [1, 2, 3] + [rng.randrange(4, 401) for _ in range(12)]:
        parts = telescoping_decomposition(seq, tribo_set, word[:t])
        assert telescoped_counts(tribo_set, parts) == abelianize(word[:t], 3)


def test_verify_all_prefix_identities(tribo_set):
    for seq in (CONST_1, CONST_2, DirectiveSequence.random(5, 2)):
        rep = verify_all_prefix_identities(seq, tribo_set, 3000)
        assert rep.all_exact
        assert rep.checked == 3000
        assert rep.levels >= 10


def test_verify_identities_agrees_with_per_prefix_route(tribo_set):
    # the vectorized verifier and the single-prefix decomposition are
    # independent routes to the same identity; spot-check they agree
    seq = DirectiveSequence.random(23, 2)
    length = 120
    rep = verify_all_prefix_identities(seq, tribo_set, length)
    assert rep.all_exact
    word = limit_point_prefix(seq, tribo_set, length)
    for t in (1, 17, 64, 120):
        parts = telescoping_decomposition(seq, tribo_set, word[:t])
        assert telescoped_counts(tribo_set, parts) == abelianize(word[:t], 3)


def test_verify_identities_validation(tribo_set, sturmian_set):
    with pytest.raises(ValueError):
        verify_all_prefix_identities(CONST_1, tribo_set, 0)
    seq = DirectiveSequence.periodic((), (1, 0))
    with pytest.raises(DomainError):
        verify_all_prefix_identities(seq, sturmian_set, 10)


# ---------------------------------------------------------------------------
# the iterated function system route


def test_build_gifs_edges_counts(tribo_set, tribo_sd):
    edges = build_gifs_edges(tribo_set.subs[0], tribo_sd)
    assert len(edges) == 5  # total image length of ab, ac, a
    by_pivot = {}
    for e in edges:
        by_pivot.setdefault(e.pivot, []).append(e)
    assert sorted(len(v) for v in by_pivot.values()) == [1, 1, 3]
    # every first-image-letter edge translates by zero
    zero = [e for e in edges if np.allclose(e.translate, 0.0)]
    assert len(zero) == 3


def _bonacci(k):
    """a -> ab, b -> ac, ..., the k-th letter -> a."""
    return tuple(bytes([1, j + 1]) for j in range(1, k)) + (b"\x01",)


@pytest.mark.parametrize(
    "images",
    [
        [_bonacci(2)],  # Fibonacci
        [_bonacci(3), (b"\x01\x02", b"\x03\x01", b"\x01")],  # the tribo pair
        [(b"\x02", b"\x03", b"\x01\x02"), (b"\x02", b"\x03", b"\x02\x01")],  # plastic pair
        [_bonacci(4)],
        [_bonacci(5)],
        [_bonacci(6)],
    ],
    ids=["fib", "tribo", "plastic", "4-bonacci", "5-bonacci", "6-bonacci"],
)
def test_prefix_counts_and_gifs_edges_from_the_table(images):
    d = len(images[0])
    subs = [Substitution(Alphabet.default(d), imgs) for imgs in images]
    sd = SubstitutionSet(subs).spectral()
    for sub in subs:
        width = max(len(sub.image(j)) for j in range(1, d + 1))
        assert sub.prefix_counts.shape == (d + 1, width + 1, d)
        assert sub.prefix_counts.size * 10_000 < MAX_PREFIX_ENTRIES
        for j in range(1, d + 1):
            # r past the image's length reads the padded table
            for r in range(width + 1):
                assert tuple(sub.prefix_counts[j, r]) == abelianize(sub.image(j)[:r], d)
        cols = [abelianize(sub.image(j), d) for j in range(1, d + 1)]
        assert sub.incidence_matrix().rows == tuple(zip(*cols))
        want = [(a, r, p) for a in range(1, d + 1) for r, p in enumerate(sub.image(a))]
        edges = build_gifs_edges(sub, sd)
        assert [(e.src, e.position, e.pivot) for e in edges] == want
        for e in edges:
            prefix = sub.image(e.src)[: e.position]
            assert e.translate.tobytes() == project(sd, np.asarray(abelianize(prefix, d), dtype=float)).tobytes()


def test_gifs_step_from_origins(tribo_set, tribo_sd):
    seed = RauzyApprox(
        points={i: np.zeros((1, 2)) for i in (1, 2, 3)}, d=3
    )
    out = gifs_step(tribo_set.subs[0], tribo_sd, seed)
    assert out.total() == 5
    assert [len(out.points[i]) for i in (1, 2, 3)] == [3, 1, 1]
    shifted = project(tribo_sd, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out.points[2][0], shifted, atol=1e-14)
    assert np.allclose(out.points[3][0], shifted, atol=1e-14)
    assert np.allclose(out.points[1], 0.0, atol=1e-14)


def _reference_gifs_step(sub, sd, approx):
    """One set-equation step as a list of mapped arrays per pivot, stacked."""
    buckets = {i: [] for i in range(1, sd.d + 1)}
    for edge in build_gifs_edges(sub, sd):
        src = approx.points[edge.src]
        if len(src):
            buckets[edge.pivot].append(src @ sd.m_s.T + edge.translate)
    return {i: np.vstack(b) if b else np.zeros((0, sd.d - 1)) for i, b in buckets.items()}


@pytest.mark.parametrize("which", ["tribo", "tetra"])
def test_gifs_step_bit_equal_to_stacked_reference(which, tribo_set, tetra_set):
    sset = {"tribo": tribo_set, "tetra": tetra_set}[which]
    sd = sset.spectral()
    rng = np.random.default_rng(17)
    # a random cloud with one letter empty, pushed through three levels
    points = {i: rng.normal(size=(int(rng.integers(50, 200)), sd.d - 1)) for i in range(1, sd.d + 1)}
    points[2] = np.zeros((0, sd.d - 1))
    approx = RauzyApprox(points=points, d=sd.d)
    for level in range(3):
        sub = sset.subs[level % len(sset.subs)]
        expected = _reference_gifs_step(sub, sd, approx)
        approx = gifs_step(sub, sd, approx)
        for i in range(1, sd.d + 1):
            assert approx.points[i].shape == expected[i].shape
            assert approx.points[i].tobytes() == expected[i].tobytes()


def test_gifs_attractor_depth_one_is_single_step(tribo_set, tribo_sd):
    attractor = gifs_attractor(CONST_1, tribo_set, 1)
    seed = RauzyApprox(
        points={i: np.zeros((1, 2)) for i in (1, 2, 3)}, d=3
    )
    step = gifs_step(tribo_set.subs[0], tribo_sd, seed)
    for i in (1, 2, 3):
        assert np.allclose(
            np.sort(attractor.points[i], axis=0), np.sort(step.points[i], axis=0)
        )


def test_gifs_attractor_deterministic(tribo_set):
    a = gifs_attractor(CONST_2, tribo_set, 10)
    b = gifs_attractor(CONST_2, tribo_set, 10)
    for i in (1, 2, 3):
        assert np.array_equal(a.points[i], b.points[i])


def test_gifs_attractor_meta_and_bounds(tribo_set, tribo_sd):
    approx = gifs_attractor(CONST_1, tribo_set, 8)
    m = approx.meta
    assert m["depth"] == 8
    assert m["ratio"] == pytest.approx(tribo_sd.lam)
    assert not m["thinned"]
    assert m["thinning_loss"] == 0.0
    assert m["error_bound"] == pytest.approx(tribo_sd.lam ** 8 * m["C"] / (1 - tribo_sd.lam))
    norm, bound = norm_ball(tribo_set, approx)
    assert norm <= bound + 1e-12


def test_norm_ball_is_taken_once_where_it_is_reported(tribo_path, tribo_set, monkeypatch, capsys):
    # the constructors take no adapted norm of their clouds; `fractal` and
    # `gifs` take it once per subtile, for the line they print
    from rauzy import fractal
    from rauzy.cli import main

    calls = []
    inner = fractal.adapted_norms

    def spy(sd, ys):
        calls.append(len(ys))
        return inner(sd, ys)

    monkeypatch.setattr(fractal, "adapted_norms", spy)
    compare_constructions(CONST_1, tribo_set, 2000, 8)
    project_prefixes(CONST_1, tribo_set, 2000)
    gifs_attractor(CONST_1, tribo_set, 8)
    assert calls == []
    assert main(["fractal", "--subs", tribo_path, "--seq", "(1)", "--points", "2000"]) == 0
    assert len(calls) == 3
    assert main(["gifs", "--subs", tribo_path, "--seq", "(1)", "--depth", "8"]) == 0
    assert len(calls) == 6
    assert capsys.readouterr().out.count("within-bound: yes") == 2


def test_gifs_attractor_thinning(tribo_set):
    approx = gifs_attractor(CONST_1, tribo_set, 14, budget=150)
    assert approx.meta["thinned"]
    assert approx.meta["thinning_loss"] > 0
    assert approx.total() <= 150
    assert approx.meta["error_bound"] > approx.meta["thinning_loss"]


def test_gifs_attractor_seed_independence(tribo_set, tribo_sd):
    # two seed clouds converge at rate lam per level: the set equations
    # iterated from an offset seed end within lam^depth of the origin's
    depth = 8
    a = gifs_attractor(CONST_1, tribo_set, depth)
    b = RauzyApprox(points={i: np.array([[0.11, -0.07]]) for i in (1, 2, 3)}, d=3)
    for level in range(depth - 1, -1, -1):
        b = gifs_step(tribo_set[CONST_1[level]], tribo_sd, b)
    seed_gap = adapted_norm(tribo_sd, np.array([0.11, -0.07]))
    worst = max(r.distance for r in subtile_hausdorff(tribo_sd, a, b).values())
    assert worst <= tribo_sd.lam ** depth * seed_gap + 1e-9


def test_gifs_attractor_validation(tribo_set, quartic_set):
    with pytest.raises(ValueError):
        gifs_attractor(CONST_1, tribo_set, -1)
    seq = DirectiveSequence.periodic((), (0,))
    with pytest.raises(DomainError):
        gifs_attractor(seq, quartic_set, 3)


# ---------------------------------------------------------------------------
# thinning by grid cell: the loss it reports bounds what it removed


@pytest.mark.parametrize("which, depth, budget", [("tribo", 16, 3000), ("tetra", 13, 4000), ("penta", 12, 4000)])
def test_thinning_loss_bounds_the_distance_to_the_unthinned_cloud(which, depth, budget, tribo_set, tetra_set, penta_set):
    # thinning only drops rows, so the thinned cloud is a subset of the
    # unthinned one of the same depth, and their Hausdorff distance is the
    # directed one that the certified loss bounds
    sset = {"tribo": tribo_set, "tetra": _permuted_family(tetra_set[0], 3), "penta": penta_set}[which]
    sd = sset.spectral()
    seq = DirectiveSequence.random(4, len(sset))
    full = gifs_attractor(seq, sset, depth)
    thin = gifs_attractor(seq, sset, depth, budget=budget)
    assert not full.meta["thinned"] and thin.meta["thinned"] and thin.total() <= budget
    for i in range(1, sset.d + 1):
        assert {row.tobytes() for row in thin.points[i]} <= {row.tobytes() for row in full.points[i]}
        res = hausdorff(to_adapted(sd, full.points[i]), to_adapted(sd, thin.points[i]))
        assert res.distance <= thin.meta["thinning_loss"]


def _stressed_boxes(k, n, rng):
    """Rows whose boxes stress `_thin`'s doubling: all equal, one axis of
    zero width, an extent ratio of 10^6, and a plain random cloud."""
    equal = np.tile(rng.random(k), (n, 1))
    flat = rng.random((n, k))
    flat[:, 0] = 0.25
    stretched = rng.random((n, k))
    stretched[:, 0] *= 1e6
    return [equal, flat, stretched, rng.random((n, k))]


@pytest.mark.parametrize("n", [5, 600])
@pytest.mark.parametrize("subs, k", [("fib", 1), ("tribo", 2), ("tetra", 3), ("penta", 4)])
def test_thin_keeps_one_row_per_occupied_cell_and_bounds_its_loss(subs, k, n, data_dir, monkeypatch):
    from rauzy import fractal

    sd = SubstitutionSet(load_substitution_file(str(data_dir / f"{subs}.subs"))).spectral()
    maps, grids = [], []
    inner_occupants, inner_grid = fractal._occupants, fractal._grid

    def occupants_spy(keys, cells):
        maps.append((keys, inner_occupants(keys, cells)))
        return maps[-1][1]

    def grid_spy(*args, **kwargs):
        grids.append(inner_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(fractal, "_occupants", occupants_spy)
    monkeypatch.setattr(fractal, "_grid", grid_spy)
    rng = np.random.default_rng(70 + k)
    for pts in _stressed_boxes(k, n, rng):
        for keep in (1, n - 1):
            maps.clear()
            grids.clear()
            kept, loss = fractal._thin(sd, pts, keep)
            keys, occupant = maps[-1]
            rows = np.flatnonzero(np.isin(np.arange(n), occupant))
            # at most keep rows, one per occupied cell, in row order
            assert len(kept) <= keep
            assert kept.tobytes() == pts[rows].tobytes()
            assert sorted(keys[rows].tolist()) == sorted(set(keys.tolist()))
            # no smaller than the brute-force directed distance, on the rows
            # moved into the adapted frame by one product
            adapted = to_adapted(sd, pts)
            removed, near = np.delete(adapted, rows, axis=0), adapted[rows]
            assert loss >= np.sqrt(((removed[:, None, :] - near[None, :, :]) ** 2).sum(axis=2)).min(axis=1).max()
            # the side doubles from its start, and one cell spans the box
            # once the side is twice the box's widest extent
            extent = pts.max(axis=0) - pts.min(axis=0)
            wide = extent[extent > 0]
            start = np.exp((np.log(wide).sum() - np.log(keep)) / len(wide)) if len(wide) else 1.0
            assert len(grids) <= 2 + np.log2(max(1.0, 2 * extent.max() / start))
            # the grid has no ring, so one fits within _CELLS_PER_ROW cells
            # a row even for 5 rows at k = 4 (40 cells, fewer than 3^4)
            assert grids[-1] is not None
            assert grids[-1].cells <= fractal._CELLS_PER_ROW * n
            assert grids[-1].cells == 1 or len(kept) > 1


def _ten_bonacci() -> SubstitutionSet:
    al = Alphabet("abcdefghij")
    images = [al.word("a" + c) for c in "bcdefghij"] + [al.word("a")]
    return SubstitutionSet([Substitution(al, tuple(images), name="ten")])


def test_thin_keeps_more_than_one_row_at_high_k(monkeypatch):
    # k = 9 with 300 points: the thinning grid must fit in 8 cells a row,
    # which a ring of cells around the box (3^9 cells at least) would not
    from rauzy import fractal

    calls = []
    inner = fractal._thin

    def thin_spy(sd, pts, keep):
        kept, loss = inner(sd, pts, keep)
        calls.append((pts, keep, kept))
        return kept, loss

    monkeypatch.setattr(fractal, "_thin", thin_spy)
    approx = gifs_attractor(CONST_1, _ten_bonacci(), 12, budget=300)
    assert approx.meta["thinned"] and approx.total() <= 300
    # from 64 rows on, two cells an axis (2^9) fit in 8 cells a row
    spread = [len(kept) for pts, keep, kept in calls if keep > 1 and len(pts) >= 64 and np.ptp(pts, axis=0).any()]
    assert len(spread) >= 5 and min(spread) > 1
    assert approx.total() > 10 * len(approx.points)

    # a box whose extents run from 1e-8 to 1e8
    sd = _ten_bonacci().spectral()
    pts = np.random.default_rng(1).random((2000, 9)) * np.logspace(-8, 8, 9)
    losses = []
    for keep in (2, 100, 1999):
        kept, loss = inner(sd, pts, keep)
        assert 1 < len(kept) <= keep
        losses.append(loss)
    assert losses == sorted(losses, reverse=True)


def test_thin_moves_no_row_alone_into_the_adapted_frame(tribo_sd, monkeypatch):
    # with _CHUNK_ROWS + 1 rows the last chunk is one row; a one-row product
    # can round otherwise than the product over a whole cloud.  Every row
    # but the last lies at one point, so the last row is the kept one and
    # the loss is every other row's distance to it
    from rauzy import fractal

    n = fractal._CHUNK_ROWS + 1
    pts = np.tile([0.3, -0.7], (n, 1))
    pts[-1] = [0.9, 0.1]
    sizes = []
    inner = fractal.to_adapted

    def to_adapted_spy(sd, rows):
        sizes.append(len(rows))
        return inner(sd, rows)

    monkeypatch.setattr(fractal, "to_adapted", to_adapted_spy)
    kept, loss = fractal._thin(tribo_sd, pts, 1)
    assert kept.tobytes() == pts[-1:].tobytes()
    assert min(sizes) > 1
    adapted = inner(tribo_sd, pts)
    assert loss == np.sqrt(((adapted[:-1] - adapted[-1]) ** 2).sum(axis=1)).max()


# ---------------------------------------------------------------------------
# Hausdorff distances


def test_hausdorff_literal():
    res = hausdorff(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert res.distance == 5.0
    assert res.direction in ("a_to_b", "b_to_a")


def test_hausdorff_identical_sets():
    pts = np.random.default_rng(0).normal(size=(40, 2))
    assert hausdorff(pts, pts).distance == 0.0


def test_hausdorff_validation():
    with pytest.raises(DomainError):
        hausdorff(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        hausdorff(np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        hausdorff(np.zeros((3, 2)), np.zeros((3, 3)))


def test_hausdorff_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.normal(size=(rng.integers(1, 60), 2))
        b = rng.normal(size=(rng.integers(1, 60), 2))
        grid = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        brute = max(grid.min(axis=1).max(), grid.min(axis=0).max())
        assert hausdorff(a, b).distance == brute


def test_hausdorff_witness_consistency():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 2))
    b = rng.normal(size=(70, 2)) + 0.5
    res = hausdorff(a, b)
    gap = float(np.sqrt(((res.point_a - res.point_b) ** 2).sum()))
    assert gap == res.distance


def test_hausdorff_metric_axioms():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(30, 2))
    b = rng.normal(size=(25, 2))
    c = rng.normal(size=(35, 2))
    dab = hausdorff(a, b).distance
    dba = hausdorff(b, a).distance
    dac = hausdorff(a, c).distance
    dbc = hausdorff(b, c).distance
    assert dab == dba
    assert dac <= dab + dbc + 1e-12


def test_subtile_hausdorff_keys(tribo_set, tribo_sd):
    a = project_prefixes(CONST_1, tribo_set, 2000)
    b = gifs_attractor(CONST_1, tribo_set, 8)
    out = subtile_hausdorff(tribo_sd, a, b)
    assert sorted(out) == [1, 2, 3]
    assert all(r.distance >= 0 for r in out.values())


# ---------------------------------------------------------------------------
# the set equation on matched clouds


def test_set_equation_residual_is_numerical_noise(tribo_set):
    for seq in (CONST_1, CONST_2):
        rep = set_equation_check(seq, tribo_set, 3000)
        assert rep.max_residual <= 1e-9
        assert rep.n_source == 3000
        assert rep.n_target > rep.n_source
        assert sorted(rep.per_letter) == [1, 2, 3]
        assert rep.max_residual == max(rep.per_letter.values())


def test_set_equation_random_sequence(tribo_set):
    rep = set_equation_check(DirectiveSequence.random(42, 2), tribo_set, 2000)
    assert rep.max_residual <= 1e-9


@pytest.mark.parametrize("shift", [0.0, 0.01])
@pytest.mark.parametrize(
    "subs,spec",
    [("tribo", "random:3"), ("tetra", "(1)"), ("fib", "(1)"), ("plastic", "random:2"), ("penta", "(1)")],
)
def test_set_equation_pairs_bound_the_hausdorff_residual(data_dir, subs, spec, shift):
    # `hausdorff` over the same two clouds is the reference: the matched
    # residual is at least the Hausdorff distance, reads the same to the
    # digits `rauzy check` prints, and equals it where the clouds coincide
    sset = SubstitutionSet(load_substitution_file(str(data_dir / f"{subs}.subs")))
    seq = parse_sequence_spec(spec, len(sset))
    sd = sset.spectral()
    sub0 = sset[seq[0]]
    for n in (500, 2000):
        u1 = limit_point_prefix(seq.shift(1), sset, n)
        stepped = gifs_step(sub0, sd, project_word(sd, u1))
        stepped.points[1] = stepped.points[1] + shift
        ref = subtile_hausdorff(sd, stepped, project_word(sd, sub0.apply(u1)))
        rep = set_equation_check(seq, sset, n, shift=shift)
        assert sorted(rep.per_letter) == sorted(ref)
        for i, w in ref.items():
            assert rep.per_letter[i] >= w.distance
            assert f"{rep.per_letter[i]:.3e}" == f"{w.distance:.3e}"
            if not shift:
                assert rep.per_letter[i] == w.distance


def test_set_equation_empty_subtile_is_undefined(tribo_set):
    # one source letter maps onto two target letters: subtile 3 stays empty
    with pytest.raises(DomainError):
        set_equation_check(CONST_1, tribo_set, 1)


# ---------------------------------------------------------------------------
# the invariant registry

CHECK_NAMES = [
    "abelianization-morphism",
    "telescoping-identity",
    "projection-commutes",
    "contraction",
    "set-equation",
    "bounded-projection",
    "primitivity",
]

# (subs file, sequence spec): d = 3, 3 (not k-bonacci), 4, 2 and 5
CHECK_FAMILIES = [
    ("tribo", "(1)"),
    ("plastic", "random:2"),
    ("tetra", "(1)"),
    ("fib", "(1)"),
    ("penta", "(1)"),
]


@pytest.mark.parametrize("subs,spec", CHECK_FAMILIES)
def test_invariant_checks_pass_and_each_fault_fails_its_check(data_dir, subs, spec):
    sset = SubstitutionSet(load_substitution_file(str(data_dir / f"{subs}.subs")))
    seq = parse_sequence_spec(spec, len(sset))
    checks = invariant_checks(seq, sset)
    assert [c.name for c in checks] == CHECK_NAMES
    assert all(c.ok for c in checks), checks
    for fault, name in (("ratio", "contraction"), ("translation", "set-equation")):
        broken = invariant_checks(seq, sset, fault=fault)
        assert [c.name for c in broken] == CHECK_NAMES
        assert [c.name for c in broken if not c.ok] == [name]


def test_invariant_checks_refuse_an_unknown_fault(tribo_set):
    with pytest.raises(ValueError):
        invariant_checks(CONST_1, tribo_set, fault="sign")


# ---------------------------------------------------------------------------
# comparing the two constructions


def test_compare_constructions_structure(tribo_set):
    rep = compare_constructions(CONST_1, tribo_set, 20_000, 9)
    assert rep.overall == max(rep.per_letter.values())
    assert sorted(rep.per_letter) == [1, 2, 3]
    assert rep.projection_meta["n"] == 20_000
    assert rep.gifs_meta["depth"] == 9
    # the gap cannot exceed the one-sided truncation bound plus the finite
    # resolution of the projected cloud, generously padded
    assert rep.overall <= rep.gifs_meta["error_bound"] + 0.05


def test_compare_constructions_tightens_with_depth(tribo_set):
    shallow = compare_constructions(CONST_2, tribo_set, 30_000, 5)
    deep = compare_constructions(CONST_2, tribo_set, 30_000, 11)
    assert deep.overall < shallow.overall


@pytest.mark.parametrize("seed", [26, 6, 12])
def test_compare_stays_within_the_gifs_bound_on_the_bench_pair(seed, tribo_set, monkeypatch):
    """The benchmark's `verify` check, `overall <= error_bound`, on the tribo
    pair at depth 24 and 200k points, for seeds of 1-100 with the least
    margin (8.8%, 11.3% and 17.5% of the bound).  The bound covers the GIFS
    side alone, so the check is not a theorem (ROADMAP item 1): this test
    guards the benchmark's check until item 1 lands."""
    monkeypatch.delenv("RAUZY_POINT_BUDGET", raising=False)
    rep = compare_constructions(parse_sequence_spec(f"random:{seed}", len(tribo_set)), tribo_set, 200_000, 24)
    assert rep.gifs_meta["thinned"]
    assert rep.overall <= rep.gifs_meta["error_bound"]


def test_classification_runs_once_per_set(tribo_set, monkeypatch):
    from rauzy import spectral

    calls = []
    real = spectral.char_poly
    monkeypatch.setattr(spectral, "char_poly", lambda m: calls.append(m) or real(m))
    sset = SubstitutionSet(list(tribo_set.subs))
    project_prefixes(CONST_1, sset, 500)
    gifs_attractor(CONST_1, sset, 3)
    set_equation_check(CONST_1, sset, 500)
    compare_constructions(CONST_1, sset, 500, 3)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# continuity in the directive sequence


def test_continuity_experiment_decay(tribo_set, tribo_sd):
    rep = continuity_experiment(
        tribo_set, CONST_1, CONST_2, agree_lengths=[2, 4, 6, 8], n_points=20_000
    )
    assert [n for n, _ in rep.rows] == [2, 4, 6, 8]
    assert all(d > 0 for _, d in rep.rows)
    assert rep.lam == pytest.approx(tribo_sd.lam)
    assert rep.violations <= 1
    assert rep.rows[-1][1] < rep.rows[0][1]
    if rep.ratio is not None:
        assert rep.ratio < 1.0


# ---------------------------------------------------------------------------
# covering the stable plane modulo the lattice


def test_coverage_origin_window(tribo_set, tribo_sd):
    approx = project_prefixes(CONST_1, tribo_set, 2000)
    gamma = gamma_generators(tribo_sd)
    rep = coverage_estimate(approx, gamma, 0.0, 0.5)
    assert rep.total == 1
    assert rep.fraction == 1.0


def test_coverage_dense_window(tribo_set, tribo_sd):
    approx = project_prefixes(CONST_1, tribo_set, 50_000)
    gamma = gamma_generators(tribo_sd)
    rep = coverage_estimate(approx, gamma, 1.0, 0.05, eps=0.05)
    assert rep.fraction >= 0.99
    finer = coverage_estimate(approx, gamma, 1.0, 0.025, eps=0.05)
    assert abs(finer.fraction - rep.fraction) <= 0.02


def test_coverage_validation(tribo_set, tribo_sd):
    approx = project_prefixes(CONST_1, tribo_set, 1000)
    gamma = gamma_generators(tribo_sd)
    with pytest.raises(ValueError):
        coverage_estimate(approx, gamma, -1.0, 0.1)
    with pytest.raises(ValueError):
        coverage_estimate(approx, gamma, 1.0, 0.0)
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            coverage_estimate(approx, gamma, 1.0, 0.1, eps=eps)
    with pytest.raises(ResourceError):
        coverage_estimate(approx, gamma, 2.0, 0.001)
    bad = GammaLattice(generators=np.eye(3), det=1.0)
    with pytest.raises(ValueError):
        coverage_estimate(approx, bad, 1.0, 0.1)
    empty = RauzyApprox(
        points={i: np.zeros((0, 2)) for i in (1, 2, 3)}, d=3
    )
    with pytest.raises(DomainError):
        coverage_estimate(empty, gamma, 0.5, 0.1)


def _coverage_grid_and_offsets(gamma, radius, step):
    k = gamma.generators.shape[0]
    axes = [np.linspace(-radius, radius, int(np.floor(2 * radius / step)) + 1)] * k
    grid = gamma.reduce(np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")]))
    coeffs = np.column_stack([c.ravel() for c in np.meshgrid(*([np.arange(-2, 3)] * k), indexing="ij")])
    return grid, coeffs.astype(float) @ gamma.generators


def _natural_order_coverage(approx, gamma, radius, step, eps):
    """Coverage as an unbounded query over every lattice offset in natural
    order, querying only the points still uncovered.  Returns the covered
    mask and the number of points queried."""
    from scipy.spatial import cKDTree

    grid, offsets = _coverage_grid_and_offsets(gamma, radius, step)
    tree = cKDTree(approx.union())
    covered = np.zeros(len(grid), dtype=bool)
    queried = 0
    for off in offsets:
        todo = np.flatnonzero(~covered)
        queried += len(todo)
        dist, _ = tree.query(grid[todo] - off)
        covered[todo[dist <= eps]] = True
    return covered, queried


def _permuted_family(seed_sub, seed):
    # permuting the letters inside each image keeps the incidence matrix
    rng = random.Random(seed)
    subs = [seed_sub] + [
        Substitution(
            seed_sub.alphabet,
            tuple(bytes(rng.sample(list(w), len(w))) for w in seed_sub.images),
            name=f"p{i}",
        )
        for i in range(2)
    ]
    return SubstitutionSet(subs)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("which, radius, step", [("tribo", 0.5, 0.02), ("tetra", 0.3, 0.1)])
def test_coverage_mask_equals_natural_order_reference(which, radius, step, seed, tribo_set, tetra_set):
    from scipy.spatial import cKDTree

    sset = _permuted_family({"tribo": tribo_set, "tetra": tetra_set}[which][0], seed)
    gamma = gamma_generators(sset.spectral())
    approx = project_prefixes(DirectiveSequence.random(seed, len(sset)), sset, 10_000)
    # each grid point's distance to the nearest lattice translate of the
    # cloud; eps set to one of these is attained exactly
    grid, offsets = _coverage_grid_and_offsets(gamma, radius, step)
    tree = cKDTree(approx.union())
    best = np.sort(np.min([tree.query(grid - off)[0] for off in offsets], axis=0))
    partial = [best[len(best) // 8], best[len(best) // 3]]
    for eps in [*partial, step]:
        want, _ = _natural_order_coverage(approx, gamma, radius, step, eps)
        rep = coverage_estimate(approx, gamma, radius, step, eps=eps)
        assert rep.eps == eps
        assert rep.covered == int(want.sum())
        assert np.array_equal(rep.mask, want)
        if eps in partial:
            assert 0 < rep.covered < rep.total


@pytest.fixture
def kdtree_log(monkeypatch):
    """The one counting spy on scipy's cKDTree.  "builds" holds every build
    as (the calling function, the rows, the other positional arguments,
    the keyword arguments); "queries" every `query` call as (the query
    rows, the distance_upper_bound or None, the tree's points, the
    distances).  "cKDTree" is the class the spy stands in for, to build
    references that are not logged."""
    import sys

    import scipy.spatial

    base = scipy.spatial.cKDTree
    log = {"builds": [], "queries": [], "cKDTree": base}

    class CountingKDTree(base):
        def __init__(self, data, *args, **kwargs):
            log["builds"].append((sys._getframe(1).f_code.co_name, len(data), args, kwargs))
            super().__init__(data, *args, **kwargs)

        def query(self, x, *args, **kwargs):
            dist, idx = super().query(x, *args, **kwargs)
            log["queries"].append((np.array(x), kwargs.get("distance_upper_bound"), self.data, dist))
            return dist, idx

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingKDTree)
    return log


def test_coverage_queries_are_bounded_and_centre_first(tribo_set, tribo_sd, kdtree_log):
    approx = project_prefixes(CONST_1, tribo_set, 20_000)
    gamma = gamma_generators(tribo_sd)
    want, natural = _natural_order_coverage(approx, gamma, 1.0, 0.05, 0.05)
    kdtree_log["queries"].clear()
    rep = coverage_estimate(approx, gamma, 1.0, 0.05)
    assert np.array_equal(rep.mask, want)
    queries = kdtree_log["queries"]
    assert queries and all(bound is not None and np.isfinite(bound) for _, bound, _, _ in queries)
    assert sum(len(x) for x, _, _, _ in queries) < natural


def test_adapted_frame_consistency(tribo_sd):
    # to_adapted and adapted_norm must describe the same geometry
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 2))
    norms = np.linalg.norm(to_adapted(tribo_sd, pts), axis=1)
    direct = np.array([adapted_norm(tribo_sd, p) for p in pts])
    assert np.allclose(norms, direct, rtol=1e-12)


# ---------------------------------------------------------------------------
# the k-d tree builder: tree shape and query order change no result


def _reference_hausdorff(a, b):
    """Balanced trees queried in natural row order; the near witness is the
    lowest row at the smallest distance from the far one."""
    from scipy.spatial import cKDTree

    idx_ab = cKDTree(b).query(a)[1]
    idx_ba = cKDTree(a).query(b)[1]
    d_ab = np.sqrt(np.sum((a - b[idx_ab]) ** 2, axis=1))
    d_ba = np.sqrt(np.sum((b - a[idx_ba]) ** 2, axis=1))
    i, j = int(np.argmax(d_ab)), int(np.argmax(d_ba))
    if d_ab[i] >= d_ba[j]:
        near = b[np.argmin(np.sqrt(np.sum((b - a[i]) ** 2, axis=1)))]
        return float(d_ab[i]), a[i], near, "a_to_b"
    near = a[np.argmin(np.sqrt(np.sum((a - b[j]) ** 2, axis=1)))]
    return float(d_ba[j]), near, b[j], "b_to_a"


def _assert_reference_hausdorff(a, b):
    res = hausdorff(a, b)
    dist, point_a, point_b, direction = _reference_hausdorff(a, b)
    assert res.distance == dist
    assert res.direction == direction
    assert res.point_a.tobytes() == point_a.tobytes()
    assert res.point_b.tobytes() == point_b.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("which, depth", [("tribo", 12), ("tetra", 10)])
def test_hausdorff_equals_balanced_natural_order_reference(which, depth, seed, tribo_set, tetra_set):
    sset = _permuted_family({"tribo": tribo_set, "tetra": tetra_set}[which][0], seed)
    sd = sset.spectral()
    seq = DirectiveSequence.random(seed, len(sset))
    proj = project_prefixes(seq, sset, 20_000)
    gifs = gifs_attractor(seq, sset, depth)
    for i in range(1, sset.d + 1):
        a, b = to_adapted(sd, proj.points[i]), to_adapted(sd, gifs.points[i])
        _assert_reference_hausdorff(a, b)
        _assert_reference_hausdorff(b, a)


def test_hausdorff_duplicates_and_ties_follow_the_reference():
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(5)
    ties_broken_otherwise = 0
    for _ in range(60):
        k = int(rng.integers(1, 4))
        # small integer grids with repeated rows, queried from half-integer
        # points: many points lie at exactly equal distances
        a = rng.integers(-3, 4, size=(int(rng.integers(1, 80)), k)).astype(float)
        b = rng.integers(-6, 7, size=(int(rng.integers(1, 80)), k)) + rng.choice([0.0, 0.5], size=(1, k))
        a = np.vstack([a, a[::3]])
        _assert_reference_hausdorff(a, b)
        _assert_reference_hausdorff(b, a)
        ref = _reference_hausdorff(b, a)
        if ref[3] == "a_to_b":
            # the balanced tree's own pick among the tied nearest rows
            pick = a[cKDTree(a).query(ref[1])[1]]
            ties_broken_otherwise += pick.tobytes() != ref[2].tobytes()
    assert ties_broken_otherwise > 0


def test_every_kdtree_is_built_by_the_helper(tribo_set, tribo_sd, kdtree_log):
    from rauzy import fractal

    builds = kdtree_log["builds"]
    calls = {
        "hausdorff": lambda: hausdorff(np.zeros((3, 2)), np.ones((4, 2))),
        "_resolution_estimate": lambda: fractal._resolution_estimate(
            tribo_sd, project_prefixes(CONST_1, tribo_set, 1000)
        ),
        "coverage_estimate": lambda: coverage_estimate(
            project_prefixes(CONST_1, tribo_set, 1000), gamma_generators(tribo_sd), 0.2, 0.1
        ),
    }
    for name, call in calls.items():
        before = len(builds)
        call()
        assert len(builds) > before, name
    assert all(
        caller == "_kdtree" and not args and kwargs == {"balanced_tree": False, "compact_nodes": False}
        for caller, _, args, kwargs in builds
    )
    # GIFS thins by grid cell and builds no tree
    before = len(builds)
    assert gifs_attractor(CONST_1, tribo_set, 10, budget=500).meta["thinned"]
    assert len(builds) == before


# ---------------------------------------------------------------------------
# the directed-distance kernel: only rows that can set the maximum are
# queried, and the answer is the one every row's query gives


@pytest.fixture
def cleared_log(monkeypatch):
    """Per `_cleared` call, the number of query rows cleared (None: no
    clearing) and how many the side holds."""
    from rauzy import fractal

    log = []
    inner = fractal._cleared

    def spy(query, *args):
        mask = inner(query, *args)
        log.append((None if mask is None else int(mask.sum()), len(query)))
        return mask

    monkeypatch.setattr(fractal, "_cleared", spy)
    return log


def _assert_both_ways(a, b):
    _assert_reference_hausdorff(a, b)
    _assert_reference_hausdorff(b, a)


@pytest.mark.parametrize("sample_rows, chunk_rows", [(7, 100), (4096, 65_536)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_kernel_equals_reference_in_every_dimension(k, sample_rows, chunk_rows, cleared_log, monkeypatch):
    from rauzy import fractal

    monkeypatch.setattr(fractal, "_SAMPLE_ROWS", sample_rows)
    monkeypatch.setattr(fractal, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(k)
    for _ in range(3):
        # a dense cloud and a sparse one: the grid stays coarse enough to
        # clear rows up to k = 5
        a = rng.random((int(rng.integers(4000, 8000)), k))
        b = rng.random((int(rng.integers(20, 300)), k)) * rng.choice([1.0, 1.3])
        _assert_both_ways(a, b)
    assert any(cleared for cleared, _ in cleared_log)


@pytest.mark.parametrize("sample_rows", [7, 4096])
def test_kernel_two_densities_clears_the_dense_side(sample_rows, cleared_log, monkeypatch):
    from rauzy import fractal

    monkeypatch.setattr(fractal, "_SAMPLE_ROWS", sample_rows)
    rng = np.random.default_rng(3)
    dense = rng.random((20_000, 2))
    sparse = np.vstack([rng.random((300, 2)), [[0.5, 1.4]]])
    _assert_both_ways(dense, sparse)
    # the dense side, queried against the sparse one, is mostly cleared
    assert max(cleared / n for cleared, n in cleared_log if cleared is not None and n == len(dense)) > 0.5


def test_kernel_identical_clouds_clear_nothing(cleared_log):
    rng = np.random.default_rng(4)
    a = rng.random((500, 3))
    for b in (a.copy(), a[::-1].copy(), np.vstack([a, a[:50]])):
        res = hausdorff(a, b)
        assert res.distance == 0.0 and res.direction == "a_to_b"
        _assert_both_ways(a, b)
    assert cleared_log and all(cleared is None for cleared, _ in cleared_log)


def test_kernel_single_row_sets():
    rng = np.random.default_rng(6)
    one = np.array([[0.25, -0.5]])
    for b in (one, one.copy(), np.array([[1.0, 2.0]]), rng.random((400, 2)), np.vstack([one, rng.random((9, 2))])):
        _assert_both_ways(one, b)


def test_kernel_direction_cleared_entirely(cleared_log):
    rng = np.random.default_rng(8)
    b = rng.random((3000, 2))
    a = np.vstack([b, [[3.0, 3.0]]])  # every row of b is a row of a
    _assert_both_ways(a, b)
    assert hausdorff(a, b).direction == "a_to_b"
    # querying b against a, every row shares a cell with itself
    assert (len(b), len(b)) in cleared_log


@pytest.mark.parametrize("sample_rows, chunk_rows", [(3, 16), (50, 65_536)])
def test_kernel_ties_at_the_maximum_follow_the_reference(sample_rows, chunk_rows, cleared_log, monkeypatch):
    # integer grids queried from half-integer points: many rows tie at the
    # maximum, and cleared cells sit beside the tied rows; with small chunks
    # the tied rows fall in different chunks
    from rauzy import fractal

    monkeypatch.setattr(fractal, "_SAMPLE_ROWS", sample_rows)
    monkeypatch.setattr(fractal, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(9)
    tied_at_max = 0
    for _ in range(40):
        k = int(rng.integers(1, 4))
        a = rng.integers(-8, 9, size=(int(rng.integers(20, 400)), k)).astype(float)
        b = rng.integers(-8, 9, size=(int(rng.integers(20, 400)), k)) + rng.choice([0.0, 0.5], size=(1, k))
        b = np.vstack([b, b[::4]])
        _assert_both_ways(a, b)
        dist, point_a, point_b, direction = _reference_hausdorff(a, b)
        far = a if direction == "a_to_b" else b
        near = b if direction == "a_to_b" else a
        nearest = np.sqrt(((far[:, None, :] - near[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        tied_at_max += np.count_nonzero(nearest == dist) > 1
    assert tied_at_max > 0
    assert any(cleared for cleared, _ in cleared_log)


def test_kernel_grid_too_fine_clears_nothing(cleared_log, monkeypatch):
    from rauzy import fractal

    rng = np.random.default_rng(10)
    a = rng.random((2000, 2))
    b = a.copy()
    b[17] += 1e-12  # the distance is far below the cloud's spacing
    _assert_both_ways(a, b)
    assert cleared_log and all(cleared is None for cleared, _ in cleared_log)
    # a grid within the cell cap but over the per-axis cap is never built:
    # the pass takes one that clears nothing in its place
    cleared_log.clear()
    c = rng.random((2000, 1))
    d = np.vstack([c, [[1.5]]])
    _assert_both_ways(c, d)
    assert any(cleared is not None for cleared, _ in cleared_log)
    cleared_log.clear()
    grids = []
    inner = fractal._cleared

    def grid_spy(query, qkeys, target, tkeys, grid, r):
        grids.append(grid)
        return inner(query, qkeys, target, tkeys, grid, r)

    monkeypatch.setattr(fractal, "_cleared", grid_spy)
    monkeypatch.setattr(fractal, "_AXIS_CELLS", 1)
    _assert_both_ways(c, d)
    assert grids and all(g.shape[0] - 3 <= fractal._AXIS_CELLS for g in grids)
    assert cleared_log and all(cleared is None for cleared, _ in cleared_log)
    cleared_log.clear()
    monkeypatch.setattr(fractal, "_AXIS_CELLS", 0)
    _assert_both_ways(c, d)
    assert cleared_log and all(cleared is None for cleared, _ in cleared_log)


def test_kernel_query_counts_on_compare_and_set_equation_pairs(tribo_set, tribo_sd, kdtree_log):
    builds, queries = kdtree_log["builds"], kdtree_log["queries"]
    seq = DirectiveSequence.random(3, len(tribo_set))
    proj = project_prefixes(seq, tribo_set, 20_000)
    gifs = gifs_attractor(seq, tribo_set, 17)
    # a projection cloud against a denser GIFS cloud: most rows are cleared
    for i in range(1, 4):
        a, b = to_adapted(tribo_sd, proj.points[i]), to_adapted(tribo_sd, gifs.points[i])
        queries.clear()
        hausdorff(a, b)
        assert sum(len(x) for x, _, _, _ in queries) < len(a) + len(b)
    # the set equation pairs its two sides by index: it builds no tree
    n_builds = len(builds)
    set_equation_check(seq, tribo_set, 20_000)
    assert len(builds) == n_builds
    assert gifs_attractor(seq, tribo_set, 12, budget=3000).meta["thinned"]
    assert builds and all(caller == "_kdtree" for caller, _, _, _ in builds)


def test_kernel_builds_no_tree_over_the_larger_cloud_it_need_not_query(tetra_set, kdtree_log, monkeypatch):
    # an unthinned 4-bonacci GIFS cloud holds every projected point (up to
    # rounding): no row of the projection can reach the sampled bound, and
    # the projection's pass reuses the first pass's grid and keys
    from rauzy import fractal

    binned, passes = [], []
    inner_keys, inner_pass = fractal._cell_keys, fractal._farthest

    def keys_spy(pts, grid):
        binned.append(len(pts))
        return inner_keys(pts, grid)

    def pass_spy(query, *args, **kwargs):
        passes.append((len(query), len(binned)))
        return inner_pass(query, *args, **kwargs)

    monkeypatch.setattr(fractal, "_cell_keys", keys_spy)
    monkeypatch.setattr(fractal, "_farthest", pass_spy)
    sd = tetra_set.spectral()
    seq = DirectiveSequence.random(0, len(tetra_set))
    proj = project_prefixes(seq, tetra_set, 20_000)
    gifs = gifs_attractor(seq, tetra_set, 16)
    assert not gifs.meta["thinned"]
    for i in range(1, 5):
        a, b = to_adapted(sd, proj.points[i]), to_adapted(sd, gifs.points[i])
        assert len(a) < len(b)
        kdtree_log["builds"].clear()
        for pair in ((a, b), (b, a)):
            binned.clear()
            passes.clear()
            hausdorff(*pair)
            # the larger cloud first; the second pass bins no row, and the
            # larger cloud's rows are binned once
            assert [n for n, _ in passes] == [len(b), len(a)]
            assert passes[1][1] == len(binned)
            assert sum(binned) < 2 * len(b)
        assert kdtree_log["builds"] and max(n for _, n, _, _ in kdtree_log["builds"]) <= len(a)
        _assert_both_ways(a, b)


def test_kernel_builds_the_larger_tree_for_a_far_outlier(kdtree_log):
    # the outlier's nearest row lies dozens of cells away: its blocks widen
    # until they hold most of the larger cloud, whose tree is then built
    # whole; the distance, the direction and both witnesses are brute
    # force's
    rng = np.random.default_rng(11)
    large = rng.random((6000, 2))
    small = np.vstack([rng.random((300, 2)), [[2.5, -1.0]]])
    to_outlier = np.sqrt(((large - small[-1]) ** 2).sum(axis=1))
    nearest = _nearest(small, large)
    assert nearest.argmax() == len(small) - 1
    for res, far, near in ((hausdorff(small, large), "point_a", "point_b"), (hausdorff(large, small), "point_b", "point_a")):
        assert res.distance == nearest.max() == to_outlier.min()
        assert res.direction == ("a_to_b" if far == "point_a" else "b_to_a")
        assert getattr(res, far).tolist() == [2.5, -1.0]
        assert getattr(res, near).tobytes() == large[np.argmin(to_outlier)].tobytes()
    _assert_both_ways(small, large)


def _owner(data, clouds):
    """The cloud whose rows a tree holds: the clouds share no row."""
    rows = {row.tobytes() for row in data}
    (owner,) = [c for c in clouds if rows <= {row.tobytes() for row in c}]
    return owner


@pytest.mark.parametrize("seed", [12, 13])
def test_kernel_full_queries_only_rows_at_or_above_the_bound(seed, kdtree_log):
    rng = np.random.default_rng(seed)
    widened = 0
    # both sides hold rows far from the other: each direction leaves rows
    # after the grid.  Rows 0.4 to 1.5 away from the other cloud need
    # blocks that hold most of it.  Then the sample's farthest row is 0.2
    # away, and the rows 0.45 away, which the stride-2 sample skips, find
    # nothing in their first blocks and take wider ones
    far = [[-0.2, 0.2], [1.45, 0.5], [0.5, 0.5], [0.5, -0.45]]
    for far_large, far_small in (([[1.6, 0.5], [-0.4, 0.2]], [[0.5, 2.5]]), (far, [[0.5, 1.25]])):
        large = np.vstack([rng.random((5000, 2)), far_large])
        small = np.vstack([rng.random((400, 2)), far_small])
        kdtree_log["queries"].clear()
        hausdorff(large, small)
        whole = {id(c): kdtree_log["cKDTree"](c) for c in (large, small)}
        for x, bound, data, dist in kdtree_log["queries"]:
            owner = _owner(data, (large, small))
            want = whole[id(owner)].query(x)[0]
            if bound is None:
                # an unbounded query runs only on a tree over a whole cloud
                assert len(data) == len(owner)
                assert dist.tobytes() == want.tobytes()
                continue
            # a tree over part of a cloud finds each row's nearest distance
            # over the whole cloud, bit for bit, or nothing when that is at
            # or above the bound: only those rows are queried again
            found = np.isfinite(dist)
            assert dist[found].tobytes() == want[found].tobytes()
            assert np.all(want[~found] >= bound)
            widened += int(np.count_nonzero(~found))
        assert sum(len(x) for x, _, _, _ in kdtree_log["queries"]) < len(large) + len(small)
        _assert_both_ways(large, small)
    assert widened


def test_kernel_bounds_the_smaller_set_at_the_larger_sets_maximum(monkeypatch):
    from rauzy import fractal

    bounds = []
    inner = fractal._farthest

    def spy(query, qkeys, target, tkeys, grid, r):
        bounds.append((len(query), r))
        return inner(query, qkeys, target, tkeys, grid, r)

    monkeypatch.setattr(fractal, "_farthest", spy)
    rng = np.random.default_rng(14)
    # the larger set's farthest row, 5001, is not in the stride-2 sample
    large = np.vstack([rng.random((5000, 2)), [[1.6, 0.5]], [[-0.9, 0.2]]])
    small = np.vstack([rng.random((400, 2)), [[0.5, 2.5]]])
    nearest = np.sqrt(((large[:, None, :] - small[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    r, d_l = nearest[::2].max(), nearest.max()
    assert r < d_l
    res = hausdorff(small, large)
    assert res.direction == "a_to_b" and res.point_a.tolist() == [0.5, 2.5]
    assert bounds == [(len(large), r), (len(small), d_l)]
    _assert_both_ways(small, large)


def _nearest(query, target):
    """Each query row's nearest distance to target, by brute force."""
    return np.sqrt(((query[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)).min(axis=1)


def _clearing_grid(query, target, r):
    """The grid a `_farthest` pass from query to target clears by for r."""
    from rauzy import fractal

    lo, hi = fractal._box(target)
    return fractal._kernel_grid(target, (lo, hi - lo), r, len(query))


def _cleared(query, target, r):
    """`_cleared`'s mask on the grid a `_farthest` pass clears by for r."""
    from rauzy import fractal

    grid = _clearing_grid(query, target, r)
    return fractal._cleared(query, grid.keys(query), target, grid.keys(target), grid, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_kernel_grid_clears_only_rows_a_target_point_is_nearer_than_r(k, monkeypatch):
    from rauzy import fractal

    rng = np.random.default_rng(40 + k)
    inner_offsets = fractal._cell_offsets
    gridded = by_neighbours = 0
    for _ in range(3):
        # clumps of target rows, many to a cell, and a few lone ones
        centres = rng.random((int(rng.integers(3, 10)), k))
        clumps = centres[rng.integers(0, len(centres), 300)] + rng.normal(scale=1e-3, size=(300, k))
        target = np.vstack([clumps, rng.random((30, k))])
        lo, hi = target.min(axis=0), target.max(axis=0)
        # rows inside the box; on its faces, edges and corners, just inside
        # and just outside, where a neighbour key steps past the grid; and
        # far outside, clamped onto the ring
        edge = rng.choice([-0.02, 0.0, 1.0, 1.02], size=(200, k))
        edge = np.where(rng.random((200, k)) < 0.5, edge, rng.random((200, k)))
        far = rng.choice([-3.0, 4.0], size=(30, k)) * rng.random((30, k))
        query = np.vstack([rng.random((800, k)), lo + edge * (hi - lo), far, target[::7]])
        nearest = _nearest(query, target)
        # r just below, at and just above single rows' nearest distances, on
        # either side of the 1e-12 margin, over the spread of the distances
        picks = np.argsort(nearest)[np.linspace(len(query) // 2, len(query) - 1, 6).astype(int)]
        radii = [nearest[j] * f for j in picks for f in (1 - 1e-9, 1 - 1e-13, 1, 1 + 1e-13, 1 + 2e-12, 1 + 1e-9)]
        radii += [np.nextafter(nearest[j], np.inf) for j in picks]
        for r in radii:
            mask = _cleared(query, target, r)
            if mask is None:
                continue
            gridded += 1
            assert not np.any(nearest[mask] >= r * (1 - 1e-12))
            # offsets of the own cell alone: no neighbour is walked
            monkeypatch.setattr(fractal, "_cell_offsets", lambda strides, reach: np.zeros(1, dtype=np.intp))
            own_cell = _cleared(query, target, r)
            monkeypatch.setattr(fractal, "_cell_offsets", inner_offsets)
            assert np.all(mask[own_cell])
            by_neighbours += int(mask.sum() - own_cell.sum())
    assert gridded and by_neighbours


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("reach", [1, 2, 3])
def test_kernel_cell_offsets_are_the_neighbourhood_in_walking_order(k, reach):
    from rauzy import fractal

    rng = np.random.default_rng(10 * k + reach)
    shape = tuple(int(x) for x in rng.integers(2 * reach + 1, 2 * reach + 4, size=k))
    strides = np.array([np.prod(shape[j + 1 :]) for j in range(k)], dtype=float)  # row-major, as `_grid`'s
    centre = np.array([int(rng.integers(reach, n - reach)) for n in shape])
    key = int(np.ravel_multi_index(centre, shape))
    around = np.stack(np.meshgrid(*[np.arange(-reach, reach + 1)] * k, indexing="ij"), axis=-1).reshape(-1, k)
    brute = np.ravel_multi_index(tuple((centre + around).T), shape) - key
    offsets = fractal._cell_offsets(strides, reach)
    assert len(offsets) == len(brute) == (2 * reach + 1) ** k
    assert sorted(offsets.tolist()) == sorted(brute.tolist())
    # the own cell first, then by how many coordinates differ: face
    # neighbours (one coordinate) before the others
    moved = np.count_nonzero(np.array(np.unravel_index(key + offsets, shape)).T != centre, axis=1)
    assert offsets[0] == 0 and moved[0] == 0
    assert np.all(np.diff(moved) >= 0) and np.all(moved[1 : 1 + 2 * reach * k] == 1)


def test_kernel_grid_memory_at_the_cell_cap(traced_peak, monkeypatch):
    # the map holds at most 32 bytes per query and target row; beside it
    # the mask, a byte per query row, and at most 64 k bytes per row of the
    # chunk in hand.  The keys, 4 bytes per row, are the pass's own, made
    # once for both directions of `hausdorff`
    from rauzy import fractal

    monkeypatch.setattr(fractal, "_CHUNK_ROWS", 4096)
    n_query, n_target = 60_000, 20_000
    cap = fractal._CELLS_PER_ROW * (n_query + n_target)
    for k in (2, 3):
        rng = np.random.default_rng(50 + k)
        target = np.vstack([np.zeros(k), np.ones(k), rng.random((n_target - 2, k))])
        query = rng.random((n_query, k))
        # s cells along each axis, the box's s - 3 and the ring: as many as the cap allows
        s = int(round(cap ** (1 / k)))
        s -= s**k > cap
        r = np.sqrt(k) * (1 + 1e-9) / (s - 3)
        # for a smaller r the grid would pass the cap: the pass takes one
        # within it that clears nothing
        fallback = _clearing_grid(query, target, r * 0.99)
        assert fallback.clears == 0 and fallback.cells <= cap
        qkeys, tkeys = fallback.keys(query), fallback.keys(target)
        assert fractal._cleared(query, qkeys, target, tkeys, fallback, r * 0.99) is None
        grid = _clearing_grid(query, target, r)
        assert grid.clears == r and grid.cells <= cap
        qkeys, tkeys = grid.keys(query), grid.keys(target)
        assert qkeys.dtype == tkeys.dtype == np.int32
        mask, peak = traced_peak(lambda: fractal._cleared(query, qkeys, target, tkeys, grid, r))
        assert mask is not None and mask.any()
        assert peak <= 32 * (n_query + n_target) + n_query + 64 * k * fractal._CHUNK_ROWS


def test_kernel_grid_leaves_few_rows_of_the_larger_cloud_for_bounded_queries(tetra_set, monkeypatch):
    # the pair of test_kernel_builds_no_tree_over_the_larger_cloud_it_need_not_query;
    # clearing by its own cell alone left 37-38% of each larger cloud
    from rauzy import fractal

    left = []
    inner = fractal._cleared

    def spy(query, *args):
        mask = inner(query, *args)
        left.append((len(query), len(query) if mask is None else int(np.count_nonzero(~mask))))
        return mask

    monkeypatch.setattr(fractal, "_cleared", spy)
    sd = tetra_set.spectral()
    seq = DirectiveSequence.random(0, len(tetra_set))
    proj = project_prefixes(seq, tetra_set, 20_000)
    gifs = gifs_attractor(seq, tetra_set, 16)
    for i in range(1, 5):
        a, b = to_adapted(sd, proj.points[i]), to_adapted(sd, gifs.points[i])
        left.clear()
        hausdorff(a, b)
        assert [rows for n, rows in left if n == len(b)] and all(rows < 0.05 * n for n, rows in left if n == len(b))


# ---------------------------------------------------------------------------
# `_nearest`: trees over the cells around the rows give the whole cloud's
# nearest distances


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_nearest_equals_a_whole_cloud_query(k, monkeypatch):
    import itertools

    from scipy.spatial import cKDTree

    from rauzy import fractal

    rounds = []
    inner = fractal._block_rows

    def spy(keys, tkeys, grid, reach):
        rows = inner(keys, tkeys, grid, reach)
        rounds.append((reach, rows is not None))
        return rows

    monkeypatch.setattr(fractal, "_block_rows", spy)
    rng = np.random.default_rng(60 + k)
    # a lattice patch of side 1/8 with its cell centres: each centre ties
    # with 2^k lattice rows, in exact arithmetic
    lattice = np.array(list(itertools.product(range(3), repeat=k))) * 0.125 + 2.0
    for _ in range(2):
        # clumps of target rows, many to a cell, a few lone ones and the patch
        centres = rng.random((int(rng.integers(3, 8)), k)) * 2
        clumps = centres[rng.integers(0, len(centres), 3000)] + rng.normal(scale=1e-3, size=(3000, k))
        target = np.vstack([clumps, rng.random((20, k)) * 2, lattice])
        lo, hi = fractal._box(target)
        extent = hi - lo
        # rows in the box, mostly many cells from a clump; on and just
        # outside its corners; far outside, clamped onto the ring; and the
        # lattice's cell centres
        corners = lo + extent * np.array(list(itertools.product((-0.01, 0.0, 1.0, 1.01), repeat=k)))
        far = rng.choice([-30.0, 40.0], size=(20, k)) * rng.random((20, k))
        query = np.vstack([lo + extent * rng.random((200, k)), corners[:60], far, lattice[: 2**k] + 0.0625])
        want = cKDTree(target).query(query)[0]
        plain = np.sqrt(((query[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        for cells in (4, 16, 64):
            grid = fractal._grid(lo, extent, extent.max() / cells, 1 << 22, 0.0)
            if grid is None:
                continue
            tkeys = grid.keys(target)
            # a few rows at a time, so that their blocks hold a small part of target
            for rows in np.array_split(np.arange(len(query)), len(query) // 8):
                pts = query[rows]
                dist, idx = fractal._nearest(pts, grid.keys(pts), target, tkeys, grid, 1)
                assert dist.tobytes() == want[rows].tobytes()
                assert np.array_equal(np.sqrt(((pts - target[idx]) ** 2).sum(axis=1)), plain[rows])
    # blocks over part of target, widened several times (at k = 4 and 5 a
    # block of reach 8 would span more than _CHUNK_ROWS cells)
    assert any(local for _, local in rounds) and max(reach for reach, local in rounds if local) >= (8 if k <= 3 else 4)
