"""Perron eigendata, the stable-space projection, and a norm adapted to it.

For a primitive integer matrix M with Perron root beta, the stable space is
the kernel of the left Perron eigenvector v.  Points of Z^d are projected to
that space along the right eigenvector u and read off in a fixed basis, so
downstream code works in R^(d-1).  The restriction M_s of M to the stable
space is encoded in the same basis, and a linear change of coordinates T is
chosen so that the Euclidean norm of T@y contracts by a factor close to the
largest stable eigenvalue modulus under y -> M_s@y.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    IndeterminateError,
    IntMatrix,
    ResourceError,
    primitivity_exponent,
)

# letters above which perron_data refuses: char_poly takes O(d^4) Python-int
# operations, seconds at d = 100
MAX_SPECTRAL_LETTERS = 64
# eigenvector tolerance; power-iteration steps; terms of the averaged form,
# and the least ratio it aims at, so that theta^(-2 _WINDOW) stays finite
_TOL = 1e-12
_MAX_ITER = 50_000
_WINDOW = 64
_MIN_THETA = 0.01


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial; coeffs[k] is the coefficient of x^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2 or self.coeffs[-1] != 1:
            raise ValueError("expected a monic polynomial of degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """p(x) by Horner's rule, exactly for an int x; the accumulator
        starts at x * 0, so it takes x's type (float, complex or int)."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: IntMatrix) -> IntMatrix:
        """p(M), exactly; the zero matrix when p is the characteristic
        polynomial of M."""
        acc = IntMatrix([[0] * m.n] * m.n)
        for c in reversed(self.coeffs):
            acc = _plus_identity(acc @ m, c)
        return acc

    def derivative_at(self, x: float) -> float:
        acc = 0.0
        for k in range(self.degree, 0, -1):
            acc = acc * x + k * self.coeffs[k]
        return acc

    def descending(self) -> list[int]:
        return list(reversed(self.coeffs))

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "" if abs(c) == 1 and k > 0 else str(abs(c))
            var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            body = f"{term}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def _plus_identity(m: IntMatrix, c: int) -> IntMatrix:
    """m + c I, exactly."""
    return IntMatrix([[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.rows)])


def char_poly(m: IntMatrix) -> CharPoly:
    """Characteristic polynomial det(xI - M) by the Faddeev-LeVerrier
    recurrence, exactly over the integers."""
    n = m.n
    # Invariant: entering step k >= 2, prod == A @ N_{k-1}; then
    # N_k = A @ N_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(A @ N_k) / k.
    desc = [1]
    prod = m  # A @ N_1 with N_1 = I
    for k in range(1, n + 1):
        if k > 1:
            prod = m @ _plus_identity(prod, desc[k - 1])
        tr = sum(prod.rows[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier division not exact")
        desc.append(-(tr // k))
    return CharPoly(tuple(reversed(desc)))


def _deflate(desc: list[int], root: float) -> np.ndarray:
    """Synthetic division of a descending-coefficient polynomial by (x - root)."""
    out = [float(desc[0])]
    for c in desc[1:-1]:
        out.append(c + out[-1] * root)
    return np.asarray(out)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Everything spectral the rest of the package needs, computed once."""

    d: int
    char: CharPoly
    det: int
    primitivity_exp: int
    beta: float
    u: np.ndarray  # right Perron eigenvector, positive, sum 1
    v: np.ndarray  # left Perron eigenvector, v @ u == 1
    stable_basis: np.ndarray  # d x (d-1), orthonormal columns spanning ker v
    proj_coords: np.ndarray  # (d-1) x d: x -> coordinates of the projection of x
    m_s: np.ndarray  # (d-1) x (d-1): M restricted to the stable space
    stable_moduli: tuple[float, ...]  # |eigenvalue| for the non-Perron roots, descending
    norm_transform: np.ndarray | None  # T: adapted norm is ||T @ y||_2; None if no contraction
    lam: float | None  # measured operator norm of T M_s T^-1, the contraction ratio
    pisot: bool | None  # None when the moduli sit too close to 1 or 0 to decide
    pisot_doubt: str | None  # why pisot is None


def _power_iterate(a: np.ndarray) -> np.ndarray:
    x = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(_MAX_ITER):
        y = a @ x
        s = np.abs(y).sum()
        if s == 0.0:
            raise ConvergenceError("power iteration collapsed to zero")
        y /= s
        if np.max(np.abs(y - x)) < _TOL:
            return y
        x = y
    raise ConvergenceError("power iteration did not converge")


def _eigen_transform(m_s: np.ndarray) -> np.ndarray | None:
    """Change of basis built from (realified) eigenvectors of m_s, or None
    when m_s is too close to defective for this to be trustworthy."""
    vals, vecs = np.linalg.eig(m_s)
    n = m_s.shape[0]
    cols = []
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i]:
            continue
        if abs(vals[i].imag) < 1e-12:
            cols.append(vecs[:, i].real)
            used[i] = True
        else:
            # pair with the conjugate eigenvalue; its eigenvector is conj(v)
            partner = None
            for j in range(i + 1, n):
                if not used[j] and abs(vals[j] - vals[i].conjugate()) < 1e-8 * (1 + abs(vals[i])):
                    partner = j
                    break
            if partner is None:
                return None
            cols.append(vecs[:, i].real)
            cols.append(vecs[:, i].imag)
            used[i] = True
            used[partner] = True
    w = np.column_stack(cols)
    if w.shape != (n, n) or np.linalg.cond(w) > 1e8:
        return None
    return np.linalg.inv(w)


def _window_transform(m_s: np.ndarray, target: float) -> np.ndarray:
    """Averaged quadratic form sum_k theta^(-2k) ||M_s^k y||^2; its Cholesky
    factor defines a norm whose contraction ratio approaches theta from above
    as the window grows.  Used when the eigenbasis is ill conditioned, as
    for a nilpotent M_s (target 0), where the ratio is about _MIN_THETA."""
    theta = max(target, _MIN_THETA) * (1.0 + 1e-3)
    n = m_s.shape[0]
    q = np.zeros((n, n))
    p = np.eye(n)
    scale = 1.0
    for _ in range(_WINDOW + 1):
        q += scale * (p.T @ p)
        p = p @ m_s
        scale /= theta * theta
    q = 0.5 * (q + q.T)
    lchol = np.linalg.cholesky(q)
    return lchol.T


def _inverse_polish(a: np.ndarray, beta: float, x: np.ndarray) -> np.ndarray:
    """Inverse iteration with a refined shift.  Power iteration only reaches
    the requested tolerance (about 1e-13 here); the leftover eigen-residual
    would be amplified linearly by the length of a projected word, so the
    vector is pushed down to machine precision.  Keeps the best iterate by
    measured residual, so a breakdown of the near-singular solve is harmless.
    """
    best = x / np.linalg.norm(x)
    best_res = float(np.linalg.norm(a @ best - beta * best, np.inf))
    cur = best
    for _ in range(3):
        y = _shifted_solve(a, beta, cur)
        if y is None:
            break
        norm = float(np.linalg.norm(y))
        if not np.isfinite(norm) or norm == 0.0:
            break
        cur = y / norm
        if cur.sum() < 0:
            cur = -cur
        res = float(np.linalg.norm(a @ cur - beta * cur, np.inf))
        if res < best_res:
            best, best_res = cur, res
    return best


def _shifted_solve(a: np.ndarray, beta: float, rhs: np.ndarray) -> np.ndarray | None:
    """The solution y of (a - beta I) y = rhs, or None.  When beta is exact
    to the last bit, a - beta I is singular in floating point; the shift an
    ulp above beta is then solved in its place, which is inverse iteration
    all the same."""
    for shift in (beta, np.nextafter(beta, np.inf)):
        try:
            return np.linalg.solve(a - shift * np.eye(a.shape[0]), rhs)
        except np.linalg.LinAlgError:
            pass
    return None


def perron_data(m: IntMatrix) -> SpectralData:
    """Compute eigendata, stable projection, and adapted norm for a primitive
    integer matrix.  Raises ResourceError above MAX_SPECTRAL_LETTERS letters,
    DomainError when m is not primitive and ConvergenceError when the
    numerics cannot reach tolerance."""
    d = m.n
    if d > MAX_SPECTRAL_LETTERS:
        raise ResourceError(f"{d} letters exceed the cap of {MAX_SPECTRAL_LETTERS} for spectral work")
    exp = primitivity_exponent(m)
    if exp is None:
        raise DomainError("matrix is not primitive; no power is strictly positive")
    poly = char_poly(m)
    mf = np.asarray(m.rows, dtype=float)
    me = np.linalg.matrix_power(mf, exp)

    x = _power_iterate(me)
    beta = float(x @ (mf @ x)) / float(x @ x)
    # Newton polish against the exact characteristic polynomial.
    for _ in range(60):
        fv = poly(beta)
        dv = poly.derivative_at(beta)
        if dv == 0.0:
            break
        step = fv / dv
        beta -= step
        if abs(step) <= 1e-16 * max(1.0, abs(beta)):
            break
    if not np.isfinite(beta) or beta <= 0 or abs(poly(beta)) > 1e-6:
        raise ConvergenceError("failed to refine the dominant eigenvalue")

    x = _inverse_polish(mf, beta, x)
    u = x / x.sum()
    if np.min(u) <= 0:
        raise ConvergenceError("right eigenvector is not strictly positive")
    if float(np.linalg.norm(mf @ u - beta * u, np.inf)) > _TOL * beta:
        raise ConvergenceError("Perron residual did not reach tolerance")
    y = _power_iterate(me.T)
    y = _inverse_polish(mf.T, beta, y)
    v = y / float(y @ u)

    # orthonormal basis of v's kernel: the trailing right singular vectors
    basis = np.linalg.svd(v.reshape(1, -1))[2][1:].T
    frame = np.column_stack([basis, u])
    proj = np.linalg.inv(frame)[: d - 1, :]
    m_s = proj @ mf @ basis
    drift = np.max(np.abs(proj @ mf - m_s @ proj))
    if drift > 1e-9:
        raise ConvergenceError(f"projection does not intertwine the matrix (defect {drift:.3e})")

    rest = np.roots(_deflate(poly.descending(), beta)) if d > 1 else np.array([])
    moduli = tuple(sorted((float(abs(r)) for r in rest), reverse=True))
    target = moduli[0] if moduli else 0.0

    t: np.ndarray | None
    lam: float | None
    if target < 1.0 - 1e-9:
        t = _eigen_transform(m_s)
        if t is None:
            t = _window_transform(m_s, target)
        conj = t @ m_s @ np.linalg.inv(t)
        lam = float(np.linalg.norm(conj, 2))
        if not lam < 1.0 - 1e-9:
            raise ConvergenceError(f"adapted norm is not contracting (ratio {lam:.6f})")
    else:
        # The non-Perron part is not a contraction (the matrix is not Pisot),
        # so no adapted norm exists.  Spectral facts are still reported.
        t = None
        lam = None

    pisot, doubt = _pisot_verdict(beta, moduli)
    return SpectralData(
        d=d,
        char=poly,
        det=m.det(),
        primitivity_exp=exp,
        beta=beta,
        u=u,
        v=v,
        stable_basis=basis,
        proj_coords=proj,
        m_s=m_s,
        stable_moduli=moduli,
        norm_transform=t,
        lam=lam,
        pisot=pisot,
        pisot_doubt=doubt,
    )


def _pisot_verdict(beta: float, moduli: tuple[float, ...]) -> tuple[bool | None, str | None]:
    """(True, None) when beta > 1 and every other eigenvalue lies strictly
    inside the unit circle, (False, None) when one lies outside it, and
    (None, reason) when a modulus is within 1e-9 of 1 (or of 0, where the
    answer would be resting on noise)."""
    tol = 1e-9
    if beta <= 1.0 + tol:
        return None, "dominant eigenvalue is not clearly outside the unit circle"
    if any(x >= 1.0 + tol for x in moduli):
        return False, None
    if any(abs(x - 1.0) <= tol for x in moduli):
        return None, "an eigenvalue modulus is numerically on the unit circle"
    if any(x <= tol for x in moduli):
        return None, "an eigenvalue modulus is numerically zero"
    return True, None


def require_unimodular_pisot(sd: SpectralData) -> None:
    """Raise DomainError unless the matrix has determinant +-1 and is Pisot
    (IndeterminateError when the Pisot verdict is undecided)."""
    if sd.det not in (1, -1):
        raise DomainError(f"matrix is not unimodular (det {sd.det})")
    if sd.pisot is None:
        raise IndeterminateError(sd.pisot_doubt)
    if not sd.pisot:
        raise DomainError("matrix is not Pisot: some secondary eigenvalue has modulus >= 1")


def charpoly_irreducible(poly: CharPoly, sd: SpectralData | None) -> bool | None:
    """Whether the characteristic polynomial poly is irreducible over Q:
    True or False, or None when unchecked (degree above 4 and no spectral
    data saying unimodular Pisot).

    A unimodular Pisot matrix needs no factor search.  A monic integer
    factor of its characteristic polynomial without the Perron root has all
    its roots inside the circle, so its constant term, their product up to
    sign, is an integer of modulus below 1, that is 0; yet it divides
    det = +-1.  No such factor exists, at any degree.  Any other polynomial
    goes to `is_irreducible_charpoly` up to degree 4.
    """
    if sd is not None and sd.pisot and sd.det in (1, -1):
        return True
    if poly.degree > 4:
        return None
    return is_irreducible_charpoly(poly)


def is_irreducible_charpoly(poly: CharPoly) -> bool:
    """Irreducibility over Q for monic integer polynomials of degree <= 4.

    Degree 2 and 3 reduce to the integer root test; degree 4 additionally
    rules out quadratic factor pairs by enumerating factorizations of the
    constant term.  Raises DomainError beyond degree 4.
    """
    n = poly.degree
    if n > 4:
        raise DomainError("irreducibility test implemented for degree <= 4 only")
    if n == 1:
        return True
    a0 = poly.coeffs[0]
    if a0 == 0:
        return False
    divisors = [k for k in range(1, abs(a0) + 1) if a0 % k == 0]
    for r in divisors:
        if poly(r) == 0 or poly(-r) == 0:
            return False
    if n <= 3:
        return True
    # x^4 + a3 x^3 + a2 x^2 + a1 x + a0 = (x^2 + p x + q)(x^2 + r x + s):
    # then q s = a0, p + r = a3, p r = a2 - q - s, p s + q r = a1.  With no
    # linear factor left, enumerate signed divisor pairs (q, s) and solve the
    # quadratic for p.
    a1, a2, a3 = poly.coeffs[1], poly.coeffs[2], poly.coeffs[3]
    for q in [e for k in divisors for e in (k, -k)]:
        s = a0 // q
        disc = a3 * a3 - 4 * (a2 - q - s)
        if disc < 0:
            continue
        root = int(np.sqrt(float(disc)))
        while root * root < disc:
            root += 1
        while root * root > disc:
            root -= 1
        if root < 0 or root * root != disc:
            continue
        for sign in (1, -1):
            if (a3 - sign * root) % 2 != 0:
                continue
            p = (a3 - sign * root) // 2
            r = a3 - p
            if p * s + q * r == a1:
                return False
    return True


# ---------------------------------------------------------------------------
# projection and adapted norm


def project(sd: SpectralData, x) -> np.ndarray:
    """Stable-space coordinates of a point of R^d (or a batch, shape (n, d))."""
    arr = np.asarray(x, dtype=float)
    return arr @ sd.proj_coords.T


def _transform(sd: SpectralData) -> np.ndarray:
    if sd.norm_transform is None:
        raise DomainError("no adapted norm: the non-Perron part is not a contraction")
    return sd.norm_transform


def adapted_norm(sd: SpectralData, y) -> float:
    """Norm in which y -> M_s @ y contracts by sd.lam."""
    return float(np.linalg.norm(_transform(sd) @ np.asarray(y, dtype=float)))


def adapted_norms(sd: SpectralData, ys: np.ndarray) -> np.ndarray:
    """Row-wise adapted norms for a batch of shape (n, d-1).  The rows in
    the adapted frame are squared in place and summed, the operations and
    order of np.linalg.norm(axis=1), so the call holds one (n, d-1) array
    beside its input rather than three."""
    y = np.asarray(ys, dtype=float) @ _transform(sd).T
    np.multiply(y, y, out=y)
    return np.sqrt(np.add.reduce(y, axis=1))


def to_adapted(sd: SpectralData, ys: np.ndarray) -> np.ndarray:
    """Map stable-space coordinates into the frame where the adapted norm is
    the Euclidean one; distances there are adapted-norm distances."""
    return np.asarray(ys, dtype=float) @ _transform(sd).T


@dataclass(frozen=True, eq=False)
class GammaLattice:
    """Projected lattice of integer vectors with zero coordinate sum.

    generators[i] is the projection of e_(i+1) - e_d; these span the image
    because any zero-sum integer vector is an integer combination of the
    e_i - e_d.
    """

    generators: np.ndarray  # (d-1) x (d-1), row i = project(e_{i+1} - e_d)
    det: float

    def reduce(self, ys: np.ndarray) -> np.ndarray:
        """Translate points into the fundamental parallelepiped rooted at 0."""
        basis = self.generators.T
        coeffs = np.linalg.solve(basis, np.asarray(ys, dtype=float).T)
        return (np.asarray(ys, dtype=float).T - basis @ np.floor(coeffs)).T


def gamma_generators(sd: SpectralData) -> GammaLattice:
    """Generators of the projected zero-sum lattice.  Warns when the rank
    guarantee (irreducible characteristic polynomial) is not confirmed."""
    irreducible = charpoly_irreducible(sd.char, sd)
    if irreducible is None:
        warnings.warn("irreducibility unchecked for degree > 4", stacklevel=2)
    elif not irreducible:
        warnings.warn(
            "characteristic polynomial is reducible; projected lattice may not have full rank",
            stacklevel=2,
        )
    d = sd.d
    diffs = np.zeros((d - 1, d))
    for i in range(d - 1):
        diffs[i, i] = 1.0
        diffs[i, d - 1] = -1.0
    gens = project(sd, diffs)
    det = float(np.linalg.det(gens))
    if abs(det) < 1e-12:
        warnings.warn("projected lattice generators are numerically singular", stacklevel=2)
    return GammaLattice(generators=gens, det=det)
