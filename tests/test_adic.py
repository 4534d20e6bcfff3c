"""Directive sequences, limit points, balance, and recurrence."""

import random

import numpy as np
import pytest

from rauzy.adic import (
    DirectiveSequence,
    balance,
    balances,
    factor_gap_check,
    first_letter_map,
    is_primitive_sequence,
    limit_letter_chains,
    limit_point_prefix,
    parse_sequence_spec,
    splitmix64,
    splitmix64_array,
    splitmix64_unit,
)
from rauzy.core import Alphabet, DomainError, ParseError, ResourceError

AL3 = Alphabet("abc")


# ---------------------------------------------------------------------------
# the deterministic generator


def test_splitmix64_reference_vector():
    # published outputs of the reference implementation seeded with 0
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F


def test_splitmix64_array_matches_scalar():
    arr = splitmix64_array(987, 3, 40)
    assert arr.dtype == np.uint64
    assert [int(x) for x in arr] == [splitmix64(987, 3 + i) for i in range(40)]


def test_splitmix64_unit_interval():
    vals = [splitmix64_unit(5, n) for n in range(200)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) > 190  # no obvious collisions


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
    # horizon zero only inspects the single leading matrix
    assert is_primitive_sequence(parse_sequence_spec("(12)", 2), sturmian_set, horizon=0) is None


def test_primitive_sequence_positive_matrix(doubling_set):
    # with an already positive incidence matrix one factor is enough: k = 0
    seq = parse_sequence_spec("(1)", 1)
    assert is_primitive_sequence(seq, doubling_set) == 0


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
    assert balance(b"\x01\x02\x01\x02\x01\x02", 2).c == 0
    assert balance(b"\x01\x01\x02\x02", 2).c == 2
    word = b"\x01\x02\x03\x01"
    assert balance(word, len(word)).c == 0  # single window


def test_balance_per_letter_detail():
    rep = balance(b"\x01\x01\x02\x02", 2)
    assert rep.per_letter == {1: 2, 2: 2}
    assert rep.k == 2


def test_balance_matches_brute_force():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randrange(2, 200)
        d = rng.randrange(2, 4)
        word = bytes(rng.randrange(1, d + 1) for _ in range(n))
        k = rng.randrange(1, n + 1)
        assert balance(word, k, d=d).c == brute_balance(word, k, d)


def test_balances_equal_balance_at_each_window_length():
    rng = random.Random(72)
    word = bytes(rng.randrange(1, 4) for _ in range(300))
    ks = [1, 2, 7, 7, 300]
    assert balances(word, ks, d=3) == [balance(word, k, d=3) for k in ks]
    assert balances(word, []) == []
    with pytest.raises(DomainError):
        balances(word, [1, 301])
    with pytest.raises(ValueError, match="outside 1..d"):
        balances(b"\x01\x03", [1, 2], d=2)


def test_balance_domain():
    with pytest.raises(DomainError):
        balance(b"\x01\x02", 0)
    with pytest.raises(DomainError):
        balance(b"\x01\x02", 3)
    # a letter outside 1..d is refused, not wrapped around
    for word in (b"\x01\x00", b"\x01\x03"):
        with pytest.raises(ValueError, match="outside 1..d"):
            balance(word, 1, d=2)


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


def test_factor_gap_bounded_for_primitive_limit_words(tribo_set):
    seq = parse_sequence_spec("(1)", 2)
    u = limit_point_prefix(seq, tribo_set, 5000)
    for flen in (1, 2, 3):
        rep = factor_gap_check(u, flen)
        assert rep.max_gap <= len(u) / 2
