"""Alphabet, exact matrices, substitutions, and the file parser."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzy.core import (
    Alphabet,
    IntMatrix,
    MAX_PREFIX_ENTRIES,
    ParseError,
    ResourceError,
    Substitution,
    abelianize,
    as_letters,
    parse_substitution_set,
    primitivity_exponent,
    wielandt_bound,
)

TRIBO_M = IntMatrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])


def tribo():
    al = Alphabet("abc")
    return Substitution(al, (b"\x01\x02", b"\x01\x03", b"\x01"), "tribo")


# ---------------------------------------------------------------------------
# alphabet and words


def test_alphabet_default_symbols():
    assert Alphabet.default(3).symbols == "abc"
    assert Alphabet.default(12).symbols == "abcdefghijkl"


def test_alphabet_holds_at_most_255_symbols():
    # letters are byte values: a 256th letter would wrap onto the padding 0
    wide = "".join(chr(0x100 + i) for i in range(256))
    al = Alphabet(wide[:255])
    cyclic = Substitution(al, tuple(bytes([j % 255 + 1]) for j in range(1, 256)))
    assert all(sum(row) == 1 for row in cyclic.incidence_matrix().rows)
    with pytest.raises(ValueError, match="256 symbols"):
        Alphabet(wide)
    text = f"# wide\nalphabet: {wide}\n[sub s]\n"
    with pytest.raises(ParseError, match="line 2: alphabet has 256 symbols"):
        parse_substitution_set(text)


def test_alphabet_letter_char_roundtrip():
    al = Alphabet("abc")
    for i in (1, 2, 3):
        assert al.letter(al.char(i)) == i
    assert al.word("abca") == b"\x01\x02\x03\x01"
    assert al.text(b"\x01\x02\x03") == "abc"


def test_alphabet_rejects_duplicates_and_singletons():
    with pytest.raises(ValueError):
        Alphabet("aab")
    with pytest.raises(ValueError):
        Alphabet("a")


def test_alphabet_unknown_symbol():
    with pytest.raises(ValueError):
        Alphabet("abc").letter("z")


def test_validate_word():
    letters = as_letters(b"\x01\x03", 3)
    assert letters.dtype == np.uint8 and letters.tolist() == [1, 3]
    assert as_letters(b"", 3).size == 0
    # the message names the first byte outside 1..d
    with pytest.raises(ValueError, match="byte 0 is not a letter in 1..3"):
        as_letters(b"\x02\x00\x04", 3)
    with pytest.raises(ValueError, match="byte 4 is not a letter in 1..3"):
        as_letters(b"\x04\x00", 3)
    with pytest.raises(ValueError, match="byte 4 is not a letter in 1..3"):
        abelianize(b"\x01\x04", 3)


def test_abelianize_counts():
    assert abelianize(b"\x01\x02\x01\x03", 3) == (2, 1, 1)
    assert abelianize(b"", 3) == (0, 0, 0)
    assert abelianize(b"\x02\x02", 2) == (0, 2)


# ---------------------------------------------------------------------------
# exact integer matrices


def test_intmatrix_identity_and_matmul():
    ident = IntMatrix.identity(3)
    assert ident @ TRIBO_M == TRIBO_M
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a @ b == IntMatrix([[2, 1], [4, 3]])


def test_intmatrix_times_vec():
    assert TRIBO_M.times_vec((1, 0, 0)) == (1, 1, 0)
    assert TRIBO_M.times_vec((1, 1, 1)) == (3, 1, 1)


def test_intmatrix_det_oracles():
    assert TRIBO_M.det() == 1
    assert IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]).det() == -1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    rng = random.Random(11)
    for _ in range(50):
        a, b, c, d = (rng.randrange(-9, 10) for _ in range(4))
        assert IntMatrix([[a, b], [c, d]]).det() == a * d - b * c


def test_intmatrix_det_sarrus_fuzz():
    rng = random.Random(13)
    for _ in range(50):
        r = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
        sarrus = (
            r[0][0] * r[1][1] * r[2][2]
            + r[0][1] * r[1][2] * r[2][0]
            + r[0][2] * r[1][0] * r[2][1]
            - r[0][2] * r[1][1] * r[2][0]
            - r[0][0] * r[1][2] * r[2][1]
            - r[0][1] * r[1][0] * r[2][2]
        )
        assert IntMatrix(r).det() == sarrus


def test_intmatrix_immutable():
    with pytest.raises(AttributeError):
        TRIBO_M.rows = ()
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# substitutions


def test_substitution_apply_oracle():
    s = tribo()
    assert s.apply(b"\x01\x02\x03") == b"\x01\x02\x01\x03\x01"
    assert s.apply(b"") == b""
    assert s.image(3) == b"\x01"


def test_substitution_apply_rejects_non_letters():
    s = tribo()
    for bad in (0, 4, 255):
        with pytest.raises(ValueError, match=f"byte {bad} is not a letter in 1..3"):
            s.apply(bytes([1, 2, bad, 3]))


def test_substitution_incidence_matrix():
    assert tribo().incidence_matrix() == TRIBO_M


def test_substitution_rejects_erasing():
    al = Alphabet("ab")
    with pytest.raises(ValueError, match="erasing substitution"):
        Substitution(al, (b"\x01\x02", b""), "bad")


def test_substitution_refuses_an_oversized_splitting_table(traced_peak):
    # 62 letters and one 2000-letter image: (d+1)(L+1)d = 7,815,906 entries
    # of prefix_counts, 62 MB of int64, refused before anything is built
    al = Alphabet("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    images = (bytes([2] * 1999 + [1]),) + tuple(bytes([j % 62 + 1]) for j in range(2, 63))

    def build():
        with pytest.raises(ResourceError, match="image-splitting table"):
            Substitution(al, images)

    _, peak = traced_peak(build)
    assert peak < 1 << 20
    # at d = 2 the table has 6(L + 1) entries: L = 699049 is the longest
    # image under the cap
    fits = Substitution(Alphabet.default(2), (b"\x01" + b"\x02" * 699_048, b"\x01"))
    assert fits.prefix_counts.size == 6 * 699_050 <= MAX_PREFIX_ENTRIES
    with pytest.raises(ResourceError):
        Substitution(Alphabet.default(2), (b"\x01" + b"\x02" * 699_049, b"\x01"))


def test_substitution_morphism_fuzz():
    s = tribo()
    m = s.incidence_matrix()
    rng = random.Random(3)
    for _ in range(60):
        n1, n2 = rng.randrange(0, 100), rng.randrange(0, 100)
        u = bytes(rng.randrange(1, 4) for _ in range(n1))
        v = bytes(rng.randrange(1, 4) for _ in range(n2))
        assert s.apply(u + v) == s.apply(u) + s.apply(v)
        assert abelianize(s.apply(u), 3) == m.times_vec(abelianize(u, 3))


# ---------------------------------------------------------------------------
# primitivity


def test_primitivity_exponent_oracles():
    assert primitivity_exponent(TRIBO_M) == 3
    assert primitivity_exponent(IntMatrix.identity(2)) is None
    assert primitivity_exponent(IntMatrix([[1, 1], [1, 1]])) == 1
    # period-two permutation action never becomes positive
    assert primitivity_exponent(IntMatrix([[0, 1], [1, 0]])) is None


def _exponent_by_exact_powers(m: IntMatrix) -> int | None:
    """The smallest k up to the Wielandt bound with m^k positive, from
    exact integer powers."""
    power = m
    for k in range(1, wielandt_bound(m.n) + 1):
        if all(x > 0 for row in power.rows for x in row):
            return k
        power = power @ m
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_primitivity_exponent_matches_exact_powers(data):
    # sparse nonnegative matrices, so that exponents from 1 to the
    # Wielandt bound and non-primitive patterns all occur
    d = data.draw(st.integers(1, 6), label="d")
    entry = st.sampled_from([0, 0, 0, 1, 2, 7])
    m = IntMatrix(data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)))
    assert primitivity_exponent(m) == _exponent_by_exact_powers(m)


def test_wielandt_bound_is_the_default_horizon():
    assert wielandt_bound(3) == 5
    assert wielandt_bound(2) == 2
    # the quartic from the shared fixtures needs exponent 10 > wielandt_bound would
    # allow for d=3, so the bound must scale with d
    q = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert primitivity_exponent(q) == 10 <= wielandt_bound(4)


# ---------------------------------------------------------------------------
# the substitution file parser


def test_parse_full_file(tribo_set):
    assert len(tribo_set) == 2
    assert tribo_set.names() == ["tribo", "flipped"]
    assert tribo_set.shared_matrix == TRIBO_M


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_substitution_set("")
    with pytest.raises(ParseError, match="line 1"):
        parse_substitution_set("nonsense\n")
    # alphabet but no substitutions
    with pytest.raises(ParseError):
        parse_substitution_set("alphabet: ab\n")


def test_parse_error_unknown_letter():
    text = "alphabet: ab\n\n[sub s]\na -> ab\nb -> az\n"
    with pytest.raises(ParseError, match="line 5"):
        parse_substitution_set(text)


def test_parse_error_missing_letter():
    text = "alphabet: ab\n\n[sub s]\na -> ab\n"
    with pytest.raises(ParseError):
        parse_substitution_set(text)


def test_parse_error_duplicate_letter_rule():
    text = "alphabet: ab\n\n[sub s]\na -> ab\na -> ba\nb -> a\n"
    with pytest.raises(ParseError, match="line 5"):
        parse_substitution_set(text)


def test_parse_error_duplicate_block_name():
    text = "alphabet: ab\n\n[sub s]\na -> ab\nb -> a\n\n[sub s]\na -> ab\nb -> a\n"
    with pytest.raises(ParseError):
        parse_substitution_set(text)


def test_parse_error_rule_before_block():
    text = "alphabet: ab\na -> ab\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_substitution_set(text)
