"""Characteristic polynomials, Perron data, the stable projection, and the
adapted norm."""

import random
import warnings

import numpy as np
import pytest
from scipy.linalg import null_space

from rauzy.adic import SubstitutionSet
from rauzy.core import DomainError, IndeterminateError, IntMatrix, parse_substitution_set
from rauzy.spectral import (
    CharPoly,
    _eigen_transform,
    _window_transform,
    adapted_norm,
    adapted_norms,
    char_poly,
    gamma_generators,
    is_irreducible_charpoly,
    perron_data,
    project,
    require_unimodular_pisot,
    to_adapted,
)

TRIBO_M = IntMatrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
QUARTIC_M = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
FIB_M = IntMatrix([[1, 1], [1, 0]])


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_oracles():
    assert char_poly(TRIBO_M).coeffs == (-1, -1, -1, 1)
    assert char_poly(QUARTIC_M).coeffs == (-1, -1, 0, 0, 1)
    assert char_poly(FIB_M).coeffs == (-1, -1, 1)
    assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)


def test_char_poly_str():
    assert str(char_poly(TRIBO_M)) == "x^3 - x^2 - x - 1"
    assert str(char_poly(QUARTIC_M)) == "x^4 - x - 1"


def test_cayley_hamilton_fuzz():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(2, 5)
        m = IntMatrix([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)])
        p = char_poly(m)
        zero = p.eval_matrix(m)
        assert all(x == 0 for row in zero.rows for x in row)


def test_char_poly_det_consistency():
    # p(0) = det(-M) = (-1)^d det(M), exactly
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(2, 5)
        m = IntMatrix([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)])
        assert char_poly(m).coeffs[0] == (-1) ** n * m.det()


def test_charpoly_eval_and_derivative():
    p = CharPoly((-1, -1, -1, 1))
    assert p.eval_int(2) == 8 - 4 - 2 - 1
    assert p(1.0) == pytest.approx(-2.0)
    h = 1e-7
    x = 1.7
    assert p.derivative_at(x) == pytest.approx((p(x + h) - p(x - h)) / (2 * h), rel=1e-5)


def test_charpoly_requires_monic():
    with pytest.raises(ValueError):
        CharPoly((1, 2))
    with pytest.raises(ValueError):
        CharPoly((5,))


# ---------------------------------------------------------------------------
# Perron data


def bisect_dominant_root(poly, lo, hi, iters=200):
    """Independent root oracle: plain bisection on the sign change."""
    flo = poly(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = poly(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def test_beta_against_bisection_oracle(tribo_sd):
    poly = char_poly(TRIBO_M)
    ref = bisect_dominant_root(poly, 1.0, 2.0)
    assert abs(tribo_sd.beta - ref) <= 1e-12
    assert abs(tribo_sd.beta - 1.8392867552141612) <= 1e-12
    assert abs(poly(tribo_sd.beta)) <= 1e-9


def test_perron_vectors(tribo_sd):
    mf = np.asarray(TRIBO_M.rows, dtype=float)
    u, v, beta = tribo_sd.u, tribo_sd.v, tribo_sd.beta
    assert np.all(u > 0)
    assert u.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(mf @ u - beta * u, np.inf) <= 1e-12 * beta
    assert np.linalg.norm(v @ mf - beta * v, np.inf) <= 1e-10 * beta
    assert float(v @ u) == pytest.approx(1.0, abs=1e-12)


def test_stable_moduli_match_inverse_sqrt_of_beta(tribo_sd):
    # the two secondary roots are complex conjugates of modulus beta^(-1/2)
    # because the product of all three roots is det = 1
    expected = tribo_sd.beta ** -0.5
    assert len(tribo_sd.stable_moduli) == 2
    for mod in tribo_sd.stable_moduli:
        assert abs(mod - expected) <= 1e-9


def test_fibonacci_golden_ratio():
    sd = perron_data(FIB_M)
    assert sd.beta == pytest.approx((1 + 5**0.5) / 2, abs=1e-13)
    assert sd.stable_moduli[0] == pytest.approx((5**0.5 - 1) / 2, abs=1e-10)
    assert sd.lam is not None and sd.lam < 1


def test_perron_data_rejects_non_primitive():
    with pytest.raises(DomainError):
        perron_data(IntMatrix.identity(3))


def test_non_pisot_quartic_reports_without_norm():
    sd = perron_data(QUARTIC_M)
    assert sd.lam is None
    assert sd.norm_transform is None
    assert sd.stable_moduli[0] > 1
    with pytest.raises(DomainError):
        adapted_norm(sd, np.zeros(3))
    with pytest.raises(DomainError):
        to_adapted(sd, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# the stable projection


def test_projection_kills_the_perron_direction(tribo_sd):
    y = project(tribo_sd, tribo_sd.u)
    assert np.linalg.norm(y) <= 1e-12


def test_projection_invariant_under_perron_shift(tribo_sd):
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = rng.integers(-50, 51, size=3).astype(float)
        t = float(rng.uniform(-100, 100))
        lhs = project(tribo_sd, x + t * tribo_sd.u)
        rhs = project(tribo_sd, x)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_projection_commutes_with_matrix(tribo_sd):
    rng = np.random.default_rng(17)
    mf = np.asarray(TRIBO_M.rows, dtype=float)
    xs = rng.integers(-100, 101, size=(1000, 3)).astype(float)
    lhs = xs @ mf.T @ tribo_sd.proj_coords.T
    rhs = xs @ tribo_sd.proj_coords.T @ tribo_sd.m_s.T
    assert float(np.abs(lhs - rhs).max()) <= 1e-9


def test_projection_batch_matches_single(tribo_sd):
    rng = np.random.default_rng(23)
    xs = rng.normal(size=(10, 3))
    batch = project(tribo_sd, xs)
    for i in range(10):
        assert np.allclose(batch[i], project(tribo_sd, xs[i]), atol=1e-14)


TETRA_TEXT = """\
alphabet: abcd

[sub tetra]
a -> ab
b -> ac
c -> ad
d -> a
"""


@pytest.mark.parametrize("which", ["tribo", "tetra"])
def test_projection_bit_equal_to_scipy_null_space(which, tribo_set):
    # the stable basis comes from numpy's SVD; scipy.linalg.null_space is
    # the reference it must match bit for bit
    sset = tribo_set if which == "tribo" else SubstitutionSet(parse_substitution_set(TETRA_TEXT))
    sd = sset.spectral()
    basis = null_space(sd.v.reshape(1, -1))
    proj = np.linalg.inv(np.column_stack([basis, sd.u]))[: sd.d - 1, :]
    assert sd.stable_basis.tobytes() == basis.tobytes()
    assert sd.proj_coords.tobytes() == proj.tobytes()


# ---------------------------------------------------------------------------
# the adapted norm


def test_adapted_norm_contracts(tribo_sd):
    rng = np.random.default_rng(29)
    ys = rng.normal(size=(10_000, 2))
    before = adapted_norms(tribo_sd, ys)
    after = adapted_norms(tribo_sd, ys @ tribo_sd.m_s.T)
    ratio = float((after / before).max())
    assert ratio <= tribo_sd.lam * (1 + 1e-12)
    assert tribo_sd.lam <= 0.74


def test_window_transform_contracts_a_defective_block():
    # a 2x2 Jordan block: no eigenbasis, so the averaged quadratic form is the norm
    m_s = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert _eigen_transform(m_s) is None
    t = _window_transform(m_s, 0.5)
    ratio = float(np.linalg.norm(t @ m_s @ np.linalg.inv(t), 2))
    assert 0.5 <= ratio < 1.0
    rng = np.random.default_rng(31)
    ys = rng.normal(size=(1000, 2))
    norms = np.linalg.norm(ys @ t.T, axis=1)
    mapped = np.linalg.norm(ys @ m_s.T @ t.T, axis=1)
    assert (mapped <= ratio * norms * (1 + 1e-12)).all()


def test_adapted_norm_axioms(tribo_sd):
    rng = np.random.default_rng(41)
    assert adapted_norm(tribo_sd, np.zeros(2)) == 0.0
    for _ in range(50):
        y = rng.normal(size=2)
        z = rng.normal(size=2)
        c = float(rng.uniform(-5, 5))
        assert adapted_norm(tribo_sd, c * y) == pytest.approx(
            abs(c) * adapted_norm(tribo_sd, y), rel=1e-12
        )
        assert adapted_norm(tribo_sd, y + z) <= (
            adapted_norm(tribo_sd, y) + adapted_norm(tribo_sd, z) + 1e-12
        )


def test_to_adapted_preserves_the_norm(tribo_sd):
    rng = np.random.default_rng(43)
    ys = rng.normal(size=(100, 2))
    mapped = to_adapted(tribo_sd, ys)
    for i in range(100):
        assert np.linalg.norm(mapped[i]) == pytest.approx(
            adapted_norm(tribo_sd, ys[i]), rel=1e-12
        )


# ---------------------------------------------------------------------------
# classification


def test_pisot_verdicts():
    for m in (TRIBO_M, FIB_M):
        sd = perron_data(m)
        assert sd.pisot is True and sd.pisot_doubt is None
    sd = perron_data(QUARTIC_M)
    assert sd.pisot is False and sd.pisot_doubt is None
    sd = perron_data(IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))  # roots 2, -1, -1
    assert sd.pisot is None and "unit circle" in sd.pisot_doubt
    sd = perron_data(IntMatrix([[1, 1], [1, 1]]))  # roots 2, 0
    assert sd.pisot is None and "zero" in sd.pisot_doubt


def test_require_unimodular_pisot():
    require_unimodular_pisot(perron_data(TRIBO_M))
    with pytest.raises(DomainError, match="Pisot"):
        require_unimodular_pisot(perron_data(QUARTIC_M))
    with pytest.raises(DomainError, match="unimodular"):
        require_unimodular_pisot(perron_data(IntMatrix([[3, 1], [1, 1]])))  # Pisot, det 2
    # (x^2 - x - 1)(x + 1): unimodular, with a root on the unit circle
    with pytest.raises(IndeterminateError, match="unit circle"):
        require_unimodular_pisot(perron_data(IntMatrix([[0, 2, 1], [1, 0, 0], [0, 1, 0]])))
    with pytest.raises(DomainError, match="primitive"):
        perron_data(IntMatrix.identity(3))


def test_irreducibility_low_degrees():
    assert is_irreducible_charpoly(char_poly(TRIBO_M)) is True
    assert is_irreducible_charpoly(char_poly(FIB_M)) is True
    assert is_irreducible_charpoly(char_poly(QUARTIC_M)) is True
    # (x-1)(x+1) and (x-1)^2
    assert is_irreducible_charpoly(CharPoly((-1, 0, 1))) is False
    assert is_irreducible_charpoly(CharPoly((1, -2, 1))) is False


def test_irreducibility_degree_four_factor_pairs():
    # (x^2 - x - 1)^2 = x^4 - 2x^3 - x^2 + 2x + 1: no rational root, but a
    # quadratic factorization the divisor enumeration must find
    assert is_irreducible_charpoly(CharPoly((1, 2, -1, -2, 1))) is False
    # (x^2 + x + 1)(x^2 - x - 1) = x^4 - x^2 - 2x - 1
    assert is_irreducible_charpoly(CharPoly((-1, -2, -1, 0, 1))) is False
    # (x - 2)(x^3 - x - 1) = x^4 - 2x^3 - x^2 + x + 2: rational root 2
    assert is_irreducible_charpoly(CharPoly((2, 1, -1, -2, 1))) is False
    # cyclotomic x^4 + x^3 + x^2 + x + 1 is irreducible
    assert is_irreducible_charpoly(CharPoly((1, 1, 1, 1, 1))) is True
    with pytest.raises(DomainError):
        is_irreducible_charpoly(CharPoly((1, 0, 0, 0, 0, 1)))


def test_irreducibility_flags_quadratic_products():
    # any product of two monic integer quadratics must come back reducible
    rng = random.Random(53)
    for _ in range(40):
        p = [rng.randrange(-4, 5), rng.randrange(-4, 5)]  # x^2 + p1 x + p0
        q = [rng.randrange(-4, 5), rng.randrange(-4, 5)]
        prod = (
            p[0] * q[0],
            p[0] * q[1] + p[1] * q[0],
            p[0] + q[0] + p[1] * q[1],
            p[1] + q[1],
            1,
        )
        if prod[0] == 0:
            continue
        assert is_irreducible_charpoly(CharPoly(prod)) is False


# ---------------------------------------------------------------------------
# the projected lattice


def test_gamma_generators_are_projected_differences(tribo_sd):
    gamma = gamma_generators(tribo_sd)
    assert gamma.generators.shape == (2, 2)
    assert abs(gamma.det) > 1e-12
    for i in range(2):
        e = np.zeros(3)
        e[i] = 1.0
        e[2] -= 1.0
        expected = project(tribo_sd, e)
        assert np.allclose(gamma.generators[i], expected, atol=1e-12)


def test_gamma_reduce_differs_by_lattice_vector(tribo_sd):
    gamma = gamma_generators(tribo_sd)
    rng = np.random.default_rng(59)
    pts = rng.uniform(-20, 20, size=(200, 2))
    reduced = gamma.reduce(pts)
    # the difference must be an integer combination of the generators
    coeffs = (pts - reduced) @ np.linalg.inv(gamma.generators)
    assert np.abs(coeffs - np.round(coeffs)).max() <= 1e-8
    # and the reduced representative lies in a bounded cell
    norm_bound = np.abs(gamma.generators).sum()
    assert np.abs(reduced).max() <= norm_bound


def _k_bonacci(k):
    # incidence matrix of a -> ab, b -> ac, ..., (k-th letter) -> a
    return IntMatrix([[1] * k] + [[int(j == i) for j in range(k)] for i in range(k - 1)])


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_gamma_generators_silent_for_unimodular_pisot(k):
    m = _k_bonacci(k)
    require_unimodular_pisot(perron_data(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = gamma_generators(perron_data(m))
    assert gamma.generators.shape == (k - 1, k - 1)
    assert abs(gamma.det) > 1e-12


def test_gamma_generators_still_warns_for_reducible_non_unimodular():
    # (x - 1)(x - 3): primitive, not unimodular, and reducible
    m = IntMatrix([[2, 1], [1, 2]])
    with pytest.raises(DomainError):
        require_unimodular_pisot(perron_data(m))
    with pytest.warns(UserWarning, match="reducible"):
        gamma_generators(perron_data(m))
