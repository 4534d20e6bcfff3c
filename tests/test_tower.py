"""The limit-point tower and everything that reads from it: the limit word,
the telescoping peel and the all-prefix identity sweep.

The property tests draw same-matrix families: permuting the letters inside
each image word of a seed substitution keeps its incidence matrix, so any
mix of such permutations is a set of substitutions sharing one Pisot
matrix, the setting of the paper.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzy.adic import (
    DirectiveSequence,
    SubstitutionSet,
    limit_point_prefix,
    limit_tower,
    parse_sequence_spec,
)
from rauzy import fractal
from rauzy.core import Alphabet, DomainError, ResourceError, Substitution, abelianize
from rauzy.fractal import (
    gifs_attractor,
    norm_ball,
    prefix_bound_constant,
    project_prefixes,
    telescoped_counts,
    telescoping_decomposition,
    verify_all_prefix_identities,
)

CONST_1 = DirectiveSequence.periodic((), (0,))


def _draw_family(data, seed: Substitution) -> SubstitutionSet:
    count = data.draw(st.integers(1, 3), label="count")
    subs = [
        Substitution(
            seed.alphabet,
            tuple(bytes(data.draw(st.permutations(list(w)))) for w in seed.images),
            name=f"p{i}",
        )
        for i in range(count)
    ]
    sset = SubstitutionSet(subs)
    assert sset.shared_matrix == seed.incidence_matrix()
    return sset


# the seed sets of the generated families: d = 3, 4, 3 (not k-bonacci) and 5
FAMILIES = ["tribo", "tetra", "plastic", "penta"]


def _draw_case(data, which, request):
    sset = _draw_family(data, request.getfixturevalue(f"{which}_set")[0])
    seq = DirectiveSequence.random(data.draw(st.integers(0, 2**64 - 1), label="seq seed"), len(sset))
    chain_index = data.draw(st.integers(0, 3), label="chain index")
    return sset, seq, chain_index


@pytest.mark.parametrize("which", FAMILIES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_limit_prefixes_nest_on_generated_families(which, request, data):
    sset, seq, chain_index = _draw_case(data, which, request)
    n = data.draw(st.integers(1, 1500), label="n")
    m = data.draw(st.integers(n + 1, 3000), label="m")
    short = limit_point_prefix(seq, sset, n, chain_index)
    long = limit_point_prefix(seq, sset, m, chain_index)
    assert len(short) == n and len(long) == m
    assert long.startswith(short)


@pytest.mark.parametrize("which", FAMILIES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_tower_levels_on_generated_families(which, request, data):
    sset, seq, chain_index = _draw_case(data, which, request)
    min_len = data.draw(st.integers(1, 3000), label="min_len")
    chain, words = limit_tower(seq, sset, min_len, chain_index)
    depth = len(words) - 1
    assert len(chain) == depth + 1
    assert words[depth] == bytes([chain[depth]])
    assert len(words[0]) >= min_len
    for j in range(depth):
        sub = sset[seq[j]]
        # an independent image: concatenate the image words letter by letter
        assert words[j] == b"".join(sub.image(c) for c in words[j + 1])
        assert words[j][0] == chain[j]
    assert words[0][:min_len] == limit_point_prefix(seq, sset, min_len, chain_index)


@pytest.mark.parametrize("which", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_norm_ball_holds_on_generated_families(which, request, data):
    # a projected prefix and a GIFS level both lie within sum_j lam^j C by
    # theorem, so a norm past the radius is a bug
    sset, seq, chain_index = _draw_case(data, which, request)
    sd = sset.spectral()
    n = data.draw(st.integers(1, 3000), label="n")
    depth = data.draw(st.integers(0, 8), label="depth")
    gifs = gifs_attractor(seq, sset, depth)
    assert not gifs.meta["thinned"]
    for approx in (project_prefixes(seq, sset, n, chain_index=chain_index), gifs):
        norm, radius = norm_ball(sset, approx)
        assert radius == prefix_bound_constant(sset, sd) / (1 - sd.lam)
        assert norm <= radius


def _reference_peel(seq, sset, word: bytes, chain_index: int) -> list[bytes]:
    """The telescoping peel letter by letter, independent of the library's
    vectorized split: at each level, keep the longest run of whole images
    of the next level word that fits in what is left; the rest of the
    level's prefix is its part.  Parts come deepest level first."""
    _, words = limit_tower(seq, sset, len(word) + 1, chain_index)
    parts = []
    remaining = word
    for j in range(len(words) - 1):
        if not remaining:
            break
        sub = sset[seq[j]]
        consumed = used = 0
        for c in words[j + 1]:
            if consumed + len(sub.image(c)) > len(remaining):
                break
            consumed += len(sub.image(c))
            used += 1
        parts.append(remaining[consumed:])
        remaining = words[j + 1][:used]
    assert not remaining
    return parts[::-1]


@pytest.mark.parametrize("which", FAMILIES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_identity_sweep_agrees_with_peel_on_generated_families(which, request, data):
    sset, seq, chain_index = _draw_case(data, which, request)
    # short prefixes, and long ones whose peel spans at least 10 levels
    length = data.draw(st.integers(1, 3000) | st.integers(5000, 40_000), label="length")
    rep = verify_all_prefix_identities(seq, sset, length, chain_index)
    assert rep.all_exact
    assert rep.checked == length
    word = limit_point_prefix(seq, sset, length, chain_index)
    ts = data.draw(st.lists(st.integers(1, length), min_size=1, max_size=3), label="t")
    for t in [*ts, length]:
        parts = telescoping_decomposition(seq, sset, word[:t], chain_index)
        assert parts == _reference_peel(seq, sset, word[:t], chain_index)
        assert telescoped_counts(sset, parts) == abelianize(word[:t], sset.d)
    if length >= 5000:
        assert len(parts) >= 10


def test_short_and_long_prefixes_read_one_limit_point():
    # a generated 4-bonacci family where a letter the 32-level look-ahead
    # keeps at depth 0 dies deeper down: picking the chain at each tower's
    # own depth made the 1-letter prefix "a" while the long one starts "b"
    al = Alphabet("abcd")
    images = [("ba", "ca", "ad", "a"), ("ba", "ac", "ad", "a"), ("ba", "ac", "da", "a")]
    sset = SubstitutionSet([Substitution(al, tuple(map(al.word, im)), name=f"p{i}") for i, im in enumerate(images)])
    seq = DirectiveSequence.random(15033849, 3)
    long = limit_point_prefix(seq, sset, 1383)
    assert long.startswith(limit_point_prefix(seq, sset, 1))
    parts = telescoping_decomposition(seq, sset, long[:1])
    assert telescoped_counts(sset, parts) == abelianize(long[:1], 4)


# ---------------------------------------------------------------------------
# the guards live in the tower, so every reader gets them


def test_identity_sweep_refuses_oversized_tower(tribo_set, traced_peak):
    # 2^28 letters exceed the 2^27 byte cap; the tower refuses on lengths
    # alone, before any word or sweep array is allocated
    def refuse():
        with pytest.raises(ResourceError, match="byte budget"):
            verify_all_prefix_identities(CONST_1, tribo_set, 1 << 28)

    start = time.perf_counter()
    _, peak = traced_peak(refuse)
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def test_telescoping_finite_sequence_exhausts(tribo_set):
    seq = parse_sequence_spec("11", 2)
    word = limit_point_prefix(CONST_1, tribo_set, 100)
    with pytest.raises(DomainError, match="exhausted at depth 2"):
        telescoping_decomposition(seq, tribo_set, word)
    with pytest.raises(DomainError, match="exhausted at depth 2"):
        verify_all_prefix_identities(seq, tribo_set, 100)


def test_tower_rejects_nonpositive_length(tribo_set):
    with pytest.raises(ValueError):
        limit_tower(CONST_1, tribo_set, 0)


# ---------------------------------------------------------------------------
# the sweep still fails when the words disagree


def test_identity_sweep_reports_a_perturbed_vertex(tribo_set, monkeypatch):
    real = fractal.stepped_line

    def perturbed(word, d):
        line = real(word, d)
        line[len(word) // 3, 1] += 1
        return line

    assert verify_all_prefix_identities(CONST_1, tribo_set, 5000).all_exact
    monkeypatch.setattr(fractal, "stepped_line", perturbed)
    rep = verify_all_prefix_identities(CONST_1, tribo_set, 5000)
    assert not rep.all_exact
    assert rep.checked == 5000


@pytest.mark.parametrize("level, pos", [(0, 4000), (0, 1), (1, 7), (6, 2)])
def test_identity_sweep_catches_a_corrupted_level_word(tribo_set, monkeypatch, level, pos):
    real = fractal.limit_tower

    def corrupted(*args):
        chain, words = real(*args)
        word = bytearray(words[level])
        word[pos] = 1 + word[pos] % 3
        return chain, [*words[:level], bytes(word), *words[level + 1 :]]

    monkeypatch.setattr(fractal, "limit_tower", corrupted)
    with pytest.raises(AssertionError, match="split pivots disagree"):
        verify_all_prefix_identities(DirectiveSequence.random(3, 2), tribo_set, 5000)


# ---------------------------------------------------------------------------
# the sweep folds and compares R_0 a chunk at a time: the seams between
# chunks are checked like every other prefix

SEAM = fractal._CHUNK_ROWS
SEAM_LENGTH = 2 * SEAM + 1  # rows 0..2 SEAM + 1: two full chunks and one of two rows


@pytest.mark.parametrize("t", [0, 1, SEAM - 1, SEAM, SEAM + 1, SEAM_LENGTH])
def test_identity_sweep_catches_a_corrupted_count_at_a_chunk_seam(tribo_set, monkeypatch, t):
    real = fractal._peel
    seq = DirectiveSequence.random(3, 2)

    def corrupted(*args):
        levels = real(*args)
        sub, level_word, idx, rest = next(levels)
        rest = rest.copy()
        # the next offset in the same image: one letter more in P_0(t)
        rest[t] += 1
        yield sub, level_word, idx, rest
        yield from levels

    assert verify_all_prefix_identities(seq, tribo_set, SEAM_LENGTH).all_exact
    monkeypatch.setattr(fractal, "_peel", corrupted)
    rep = verify_all_prefix_identities(seq, tribo_set, SEAM_LENGTH)
    assert not rep.all_exact
    assert rep.checked == SEAM_LENGTH


@pytest.mark.parametrize("length", [SEAM - 1, SEAM, SEAM + 1, SEAM_LENGTH])
@pytest.mark.parametrize("which", ["tribo", "tetra"])
def test_identity_sweep_agrees_with_the_peel_across_chunk_seams(which, length, request):
    sset = request.getfixturevalue(f"{which}_set")
    seq = DirectiveSequence.random(5, len(sset))
    rep = verify_all_prefix_identities(seq, sset, length)
    assert rep.all_exact
    assert rep.checked == length
    word = limit_point_prefix(seq, sset, length)
    near_seams = {t for seam in (SEAM, 2 * SEAM) for t in (seam - 1, seam, seam + 1) if t <= length}
    for t in sorted(near_seams):
        parts = telescoping_decomposition(seq, sset, word[:t])
        assert telescoped_counts(sset, parts) == abelianize(word[:t], sset.d)


@pytest.mark.parametrize("which", ["tribo", "tetra"])
def test_identity_sweep_holds_under_64_bytes_a_prefix(which, request, traced_peak):
    # the tower's words, two int32 per position of every level and the two
    # largest levels' sums folded: about 46 (d = 3) and 54 (d = 4) bytes a
    # prefix at this length
    sset = request.getfixturevalue(f"{which}_set")
    n = 200_000
    rep, peak = traced_peak(lambda: verify_all_prefix_identities(DirectiveSequence.random(3, len(sset)), sset, n))
    assert rep.all_exact
    assert peak < 64 * n


def test_identity_sweep_lets_go_of_each_split_level(tribo_set, traced_peak):
    # the forward pass drops a level's int64 splitting before it splits the
    # next, so the 1M-prefix sweep peaks in the fold (35.9 MiB on tribo),
    # not at level 1 with the previous splitting still held (39.3 MiB)
    seq = DirectiveSequence.random(3, len(tribo_set))
    rep, peak = traced_peak(lambda: verify_all_prefix_identities(seq, tribo_set, 1_000_000))
    assert rep.all_exact
    assert peak <= 37 * 2**20
