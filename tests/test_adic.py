"""Directive sequences, limit points, balance, and recurrence."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzy.adic import (
    DirectiveSequence,
    SubstitutionSet,
    balances,
    factor_gap_check,
    first_letter_map,
    is_primitive_sequence,
    limit_letter_chains,
    limit_point_prefix,
    parse_sequence_spec,
    splitmix64_array,
    splitmix64_unit,
)
from rauzy.core import Alphabet, DomainError, ParseError, ResourceError, Substitution

AL3 = Alphabet("abc")


# ---------------------------------------------------------------------------
# the deterministic generator


def splitmix64(seed: int, n: int) -> int:
    """Oracle: the n-th splitmix64 output in Python ints, masked to 64 bits
    after each step."""
    mask = (1 << 64) - 1
    z = (seed + (n + 1) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def test_splitmix64_reference_vector():
    # published outputs of the reference implementation seeded with 0
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [splitmix64(0, n) for n in range(3)] == want
    assert [int(x) for x in splitmix64_array(0, 0, 3)] == want


def test_splitmix64_array_matches_scalar():
    arr = splitmix64_array(987, 3, 40)
    assert arr.dtype == np.uint64
    assert [int(x) for x in arr] == [splitmix64(987, 3 + i) for i in range(40)]


def test_splitmix64_unit_interval():
    vals = [splitmix64_unit(5, n) for n in range(200)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) > 190  # no obvious collisions
    # the top 53 bits of the oracle's word, scaled into [0, 1)
    assert vals == [(splitmix64(5, n) >> 11) / 2.0**53 for n in range(200)]


# ---------------------------------------------------------------------------
# directive sequence construction and parsing


def test_parse_explicit_and_periodic():
    s = parse_sequence_spec("121", 2)
    assert s.is_finite and [s[i] for i in range(3)] == [0, 1, 0]
    with pytest.raises(IndexError):
        s[3]
    p = parse_sequence_spec("12(21)", 2)
    assert not p.is_finite
    assert [p[i] for i in range(6)] == [0, 1, 1, 0, 1, 0]
    assert p.describe() == "12(21)"


def test_parse_random_and_weights():
    r = parse_sequence_spec("random:42", 3)
    assert not r.is_finite
    assert r.describe() == "random:42"
    assert [r[i] for i in range(5)] == [parse_sequence_spec("random:42", 3)[i] for i in range(5)]
    w = parse_sequence_spec("random:9:3,1", 2)
    head = [w[i] for i in range(2000)]
    # weight 3:1 should put the first substitution well clear of half
    assert 0.6 < head.count(0) / len(head) < 0.9


def test_parse_rejects_malformed_specs():
    for bad in ("", "0(1)", "3(1)", "(0)", "random", "random:x", "1x", "()"):
        with pytest.raises(ParseError):
            parse_sequence_spec(bad, 2)
    with pytest.raises(ParseError):
        parse_sequence_spec("(1)", 10)  # single digits cannot address 10 substitutions


def test_shift_is_an_offset_view():
    s = parse_sequence_spec("12(21)", 2)
    t = s.shift(3)
    assert [t[i] for i in range(4)] == [s[3 + i] for i in range(4)]
    assert t.shift(2)[0] == s[5]
    assert s.shift(0) is not None and s.shift(0)[0] == s[0]


def test_prefix_and_describe_roundtrip():
    s = parse_sequence_spec("random:7", 2)
    assert s.prefix(6) == [s[i] for i in range(6)]
    again = parse_sequence_spec(s.describe(), 2)
    assert again.prefix(6) == s.prefix(6)


def test_spliced_sequences():
    base = parse_sequence_spec("(1)", 2)
    tail = parse_sequence_spec("(2)", 2)
    h = DirectiveSequence.spliced(base, tail, 4)
    assert [h[i] for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_random_constructor_semantics():
    r = DirectiveSequence.random(3, 2)
    assert not r.is_finite
    assert all(v in (0, 1) for v in r.prefix(200))
    assert r.prefix(50) == parse_sequence_spec("random:3", 2).prefix(50)
    with pytest.raises(ValueError):
        DirectiveSequence.random(-1, 2)
    with pytest.raises(ValueError):
        DirectiveSequence.random(3, 0)
    with pytest.raises(ValueError):
        DirectiveSequence.random(3, 2, weights=(1.0,))
    with pytest.raises(ValueError):
        DirectiveSequence.random(3, 2, weights=(1.0, 0.0))


# ---------------------------------------------------------------------------
# first letters and primitivity along a sequence


def test_first_letter_map_oracles(tribo_set):
    assert first_letter_map(tribo_set[0]) == {1: 1, 2: 1, 3: 1}
    assert first_letter_map(tribo_set[1]) == {1: 1, 2: 3, 3: 1}


def test_primitive_sequence_shared_matrix(tribo_set):
    # the shared matrix becomes positive at its third power, so the
    # composition of three factors is the first strictly positive one
    seq = parse_sequence_spec("(1)", 2)
    assert is_primitive_sequence(seq, tribo_set) == 2


def test_primitive_sequence_sturmian(sturmian_set):
    assert is_primitive_sequence(parse_sequence_spec("(1)", 2), sturmian_set) is None
    # alternating: the product of the two triangular matrices is positive
    assert is_primitive_sequence(parse_sequence_spec("(12)", 2), sturmian_set) == 1


def test_primitive_sequence_positive_matrix(doubling_set):
    # with an already positive incidence matrix one factor is enough: k = 0
    seq = parse_sequence_spec("(1)", 1)
    assert is_primitive_sequence(seq, doubling_set) == 0


def _positive_after_by_exact_products(seq, sset, horizon=64):
    """Smallest k <= horizon with the exact integer product of the first
    k + 1 incidence matrices strictly positive, else None; a shared matrix
    is multiplied without reading the sequence."""
    prod = None
    for k in range(horizon + 1):
        if sset.shared_matrix is not None:
            m = sset.shared_matrix
        else:
            try:
                m = sset.matrices[seq[k]]
            except IndexError:
                return None
        prod = m if prod is None else prod @ m
        if all(x > 0 for row in prod.rows for x in row):
            return k
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_primitive_sequence_matches_exact_products(data):
    # shared sets permute the letters of one substitution's images, which
    # keeps its matrix; other sets draw every image.  Short images make
    # permutation-like matrices, so finite sequences often end first
    d = data.draw(st.integers(2, 6), label="d")
    count = data.draw(st.integers(1, 3), label="count")
    image = st.lists(st.integers(1, d), min_size=1, max_size=3)
    base = [data.draw(image) for _ in range(d)]
    if data.draw(st.booleans(), label="shared"):
        images = [[data.draw(st.permutations(w)) for w in base] for _ in range(count)]
    else:
        images = [base] + [[data.draw(image) for _ in range(d)] for _ in range(count - 1)]
    al = Alphabet("abcdef"[:d])
    sset = SubstitutionSet(Substitution(al, tuple(bytes(w) for w in ws), f"s{i}") for i, ws in enumerate(images))
    entry = st.integers(0, count - 1)
    kind = data.draw(st.sampled_from(["explicit", "periodic", "random"]), label="kind")
    if kind == "explicit":
        seq = DirectiveSequence.explicit(data.draw(st.lists(entry, max_size=8)))
    elif kind == "periodic":
        seq = DirectiveSequence.periodic(data.draw(st.lists(entry, max_size=3)), data.draw(st.lists(entry, min_size=1, max_size=3)))
    else:
        seq = DirectiveSequence.random(data.draw(st.integers(0, 2**64 - 1)), count)
    assert is_primitive_sequence(seq, sset) == _positive_after_by_exact_products(seq, sset)


def test_primitive_sequence_ends_with_a_finite_sequence(sturmian_set):
    # the two factors' product is positive; a sequence that ends after one
    # factor, or before any, gives None
    assert is_primitive_sequence(DirectiveSequence.explicit([0, 1]), sturmian_set) == 1
    assert is_primitive_sequence(DirectiveSequence.explicit([0]), sturmian_set) is None
    assert is_primitive_sequence(DirectiveSequence.explicit([]), sturmian_set) is None


# ---------------------------------------------------------------------------
# first-letter chains and limit points


def test_limit_letter_chains_constant_tribo(tribo_set):
    seq = parse_sequence_spec("(1)", 2)
    for depth in (0, 1, 4):
        chains = limit_letter_chains(seq, tribo_set, depth)
        assert chains == [(1,) * (depth + 1)]


def test_limit_letter_chains_constant_flipped(tribo_set):
    seq = parse_sequence_spec("(2)", 2)
    chains = limit_letter_chains(seq, tribo_set, 3)
    assert len(chains) == 1
    chain = chains[0]
    assert chain[0] == 1  # the limit word starts with the first letter
    # consistency: each stage is the image first letter of the next
    maps = [first_letter_map(tribo_set[seq[k]]) for k in range(3)]
    for k in range(3):
        assert chain[k] == maps[k][chain[k + 1]]


def test_limit_letter_chains_counts_doubling(doubling_set):
    # both letters are fixed points of the first-letter map, so two chains
    seq = parse_sequence_spec("(1)", 1)
    chains = limit_letter_chains(seq, doubling_set, 2)
    assert chains == [(1, 1, 1), (2, 2, 2)]
    assert len(chains) <= doubling_set.d


def test_limit_letter_chains_warns_when_not_primitive(sturmian_set):
    seq = parse_sequence_spec("(1)", 2)
    with pytest.warns(UserWarning, match="primitive"):
        limit_letter_chains(seq, sturmian_set, 2)


def test_limit_point_prefix_oracles(tribo_set):
    assert AL3.text(limit_point_prefix(parse_sequence_spec("(1)", 2), tribo_set, 7)) == "abacaba"
    assert AL3.text(limit_point_prefix(parse_sequence_spec("(2)", 2), tribo_set, 7)) == "abcaaab"
    assert AL3.text(limit_point_prefix(parse_sequence_spec("(12)", 2), tribo_set, 4)) == "abac"


def test_limit_point_prefixes_nest(tribo_set):
    seq = parse_sequence_spec("random:13", 2)
    long = limit_point_prefix(seq, tribo_set, 4000)
    for n in (1, 10, 100, 1000):
        assert long.startswith(limit_point_prefix(seq, tribo_set, n))
    assert len(long) == 4000


def test_limit_point_distinct_chains(doubling_set):
    seq = parse_sequence_spec("(1)", 1)
    w0 = limit_point_prefix(seq, doubling_set, 64, chain_index=0)
    w1 = limit_point_prefix(seq, doubling_set, 64, chain_index=1)
    assert w0[0] == 1 and w1[0] == 2
    assert w0 != w1
    # chain indices reduce modulo the number of chains
    assert limit_point_prefix(seq, doubling_set, 64, chain_index=2) == w0


def test_limit_point_stalls_on_degenerate_chain(sturmian_set):
    seq = parse_sequence_spec("(1)", 2)
    with pytest.warns(UserWarning, match="primitive"):
        with pytest.raises(ResourceError, match="stall"):
            limit_point_prefix(seq, sturmian_set, 50)


def test_limit_point_finite_sequence_exhausts(tribo_set):
    seq = parse_sequence_spec("11", 2)
    with pytest.raises(DomainError):
        limit_point_prefix(seq, tribo_set, 10_000)


def test_limit_point_growing_sturmian_chain(sturmian_set):
    # the constant second substitution grows linearly from letter 0
    seq = parse_sequence_spec("(2)", 2)
    with pytest.warns(UserWarning, match="primitive"):
        w = limit_point_prefix(seq, sturmian_set, 30)
    assert w[0] == 1 and set(w[1:]) == {2}


# ---------------------------------------------------------------------------
# balance and recurrence


def brute_balance(word, k, d):
    windows = [word[i : i + k] for i in range(len(word) - k + 1)]
    worst = 0
    for letter in range(1, d + 1):
        counts = [w.count(bytes([letter])) for w in windows]
        worst = max(worst, max(counts) - min(counts))
    return worst


def test_balance_spec_examples():
    # a word of period two is perfectly balanced on even windows
    assert balances(b"\x01\x02\x01\x02\x01\x02", [2], d=2)[0].c == 0
    assert balances(b"\x01\x01\x02\x02", [2], d=2)[0].c == 2
    word = b"\x01\x02\x03\x01"
    assert balances(word, [len(word)], d=3)[0].c == 0  # single window


def test_balance_per_letter_detail():
    rep = balances(b"\x01\x01\x02\x02", [2], d=2)[0]
    assert rep.per_letter == {1: 2, 2: 2}
    assert rep.k == 2


def test_balance_matches_brute_force():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randrange(2, 200)
        d = rng.randrange(2, 4)
        word = bytes(rng.randrange(1, d + 1) for _ in range(n))
        k = rng.randrange(1, n + 1)
        assert balances(word, [k], d=d)[0].c == brute_balance(word, k, d)


def test_balances_equal_balance_at_each_window_length():
    rng = random.Random(72)
    word = bytes(rng.randrange(1, 4) for _ in range(300))
    ks = [1, 2, 7, 7, 300]
    assert balances(word, ks, d=3) == [balances(word, [k], d=3)[0] for k in ks]
    assert balances(word, [], d=3) == []
    with pytest.raises(DomainError):
        balances(word, [1, 301], d=3)
    with pytest.raises(ValueError, match="byte 3 is not a letter in 1..2"):
        balances(b"\x01\x03", [1, 2], d=2)


def test_balance_domain():
    with pytest.raises(DomainError):
        balances(b"\x01\x02", [0], d=2)
    with pytest.raises(DomainError):
        balances(b"\x01\x02", [3], d=2)
    # a letter outside 1..d is refused, not wrapped around
    for word in (b"\x01\x00", b"\x01\x03"):
        with pytest.raises(ValueError, match=f"byte {word[1]} is not a letter in 1..2"):
            balances(word, [1], d=2)


def test_factor_gap_literal():
    # word ababab, factors of length 2 from the first half: ab and ba
    word = b"\x01\x02\x01\x02\x01\x02"
    rep = factor_gap_check(word, 2)
    assert rep.factor_count == 2
    assert rep.max_gap == 2
    assert rep.factor_len == 2


def test_factor_gap_detects_vanishing_factor():
    # 'b' occurs only once, at the start; its recurrence gap spans the word
    word = b"\x02" + b"\x01" * 19
    rep = factor_gap_check(word, 1)
    assert rep.max_gap == 20  # n_windows - last occurrence start
    assert rep.worst_factor == b"\x02"


def test_factor_gap_refuses_factors_over_the_byte_cap():
    # (n//2 - f + 1) * f bytes of first-half factors: 2^14 * 2^13 = 2^27 at
    # n = 49150 is the cap itself (the CLI test admits it), and two letters
    # more pass it, refused before any factor is kept
    with pytest.raises(ResourceError):
        factor_gap_check(b"\x01" * 49_152, 8192)


def test_factor_gap_bounded_for_primitive_limit_words(tribo_set):
    seq = parse_sequence_spec("(1)", 2)
    u = limit_point_prefix(seq, tribo_set, 5000)
    for flen in (1, 2, 3):
        rep = factor_gap_check(u, flen)
        assert rep.max_gap <= len(u) / 2
