"""Irreducible SL(2,R) -> SL(n,R) lifts, Schottky generator pairs, and the
closed-form Cartan directions that a one-parameter deformation family of a
Fuchsian representation produces.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .freegroup import AffineRepresentation, evaluate_conjugacy_reps
from .numkernel import DEFAULT_TOL


class NotUnimodular(ValueError):
    pass


class DegenerateParameters(ValueError):
    pass


class OutOfRange(ValueError):
    pass


def _binomial_weights(n: int) -> np.ndarray:
    d = n - 1
    return np.array([math.sqrt(math.comb(d, i)) for i in range(n)])


def sym_rep(n: int, a, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Action of a in SL(2,R) on degree-(n-1) homogeneous polynomials in the
    binomially normalized monomial basis, so orthogonal inputs map to
    orthogonal outputs and diag(l, 1/l) maps to diag(l^(n-1), ..., l^(1-n)).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if abs(np.linalg.det(a) - 1.0) > tol:
        raise NotUnimodular(f"det = {np.linalg.det(a):.12g}")
    d = n - 1
    p, q, r, s = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    weights = _binomial_weights(n)
    out = np.zeros((n, n))
    for i in range(n):
        # basis vector i is w_i x^(d-i) y^i; the substitution x -> p x + r y,
        # y -> q x + s y expands into coefficients indexed by the y-degree.
        first = np.array([math.comb(d - i, t) * p ** (d - i - t) * r ** t
                          for t in range(d - i + 1)])
        second = np.array([math.comb(i, t) * q ** (i - t) * s ** t
                           for t in range(i + 1)])
        coeffs = np.convolve(first, second)
        out[:, i] = coeffs * weights[i] / weights
    return out


def sym_rep_lie(n: int, x) -> np.ndarray:
    """Derivative of sym_rep at the identity: tridiagonal image of a traceless
    2x2 matrix [[p, q], [r, -p]]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    d = n - 1
    p = 0.5 * (x[0, 0] - x[1, 1])
    q, r = x[0, 1], x[1, 0]
    out = np.zeros((n, n))
    for i in range(n):
        out[i, i] = p * (d - 2 * i)
        if i + 1 <= d:
            out[i + 1, i] = r * math.sqrt((d - i) * (i + 1))
        if i - 1 >= 0:
            out[i - 1, i] = q * math.sqrt(i * (d - i + 1))
    return out


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def schottky_generators(lam: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Hyperbolic pair (diag(lam, 1/lam), conjugate by a rotation) whose
    translation axes in the hyperbolic plane meet at angle theta.

    The conjugating matrix is the rotation by theta/2: a rotation matrix acts
    on the plane of axes with doubled angle, so theta = pi/2 gives the
    classical perpendicular-axes configuration (and a ping-pong pair for
    lam >= 3), rather than the degenerate b = a^{-1}.
    """
    if not lam > 1.0 + 1e-3:
        raise DegenerateParameters(f"need lam > 1.001, got {lam}")
    if not 0.0 < theta <= math.pi / 2:
        raise DegenerateParameters(f"need 0 < theta <= pi/2, got {theta}")
    a = np.diag([lam, 1.0 / lam])
    rot = rotation(theta / 2.0)
    b = rot @ a @ rot.T
    return a, b


def ping_pong_certificate(a, b, max_length: int = 8) -> bool:
    """Sampled freeness certificate: every reduced word of length <= max_length
    in the pair evaluates to a matrix of trace magnitude > 2.  Trace is a class
    function and each such word is conjugate to a conjugacy representative no
    longer than itself, so checking the representatives is exact.

    A float64 product g_1...g_L of 2x2 matrices is off by at most
    1.01 (2L) eps |g_1|_F...|g_L|_F in Frobenius norm, and its trace by sqrt(2)
    times that, so a representative certifies only when its |trace| clears 2
    by that much; there is no refusal of products beyond float64.  A pair
    outside SL(2,R) raises ValueError, a generator too ill-conditioned to
    invert raises Singular.
    """
    rep = AffineRepresentation(2, 2, [a, b], [np.zeros((2, 2))] * 2)
    norms = {letter: float(np.linalg.norm(triple[0])) for letter, triple in rep._letters.items()}
    eps = float(np.finfo(float).eps)
    for words, g, _, _ in evaluate_conjugacy_reps(rep, max_length):
        length = len(words[0])
        rounding = np.array([1.01 * (2 * length) * eps * math.sqrt(2)
                             * math.prod(norms[letter] for letter in word.letters)
                             for word in words])
        if not np.all(np.abs(np.trace(g, axis1=1, axis2=2)) > 2.0 + rounding):
            return False
    return True


def lw_direction_exact(n: int, k: int) -> list[Fraction]:
    """Exact Cartan direction of the k-th coordinate deformation family:

        X_{k,p} = (p-1)! (n-p)! / (2^(k-2) (n-k)!)
                  * sum_j C(n-k, p-j) C(k-1, j-1)^2 (-1)^(j+k+1)

    with j running over max(1, k+p-n) .. min(k, p), evaluated for p = 1..n in
    integer arithmetic.  The result is an exact zero-sum vector.
    """
    if not 2 <= k <= n:
        raise OutOfRange(f"need 2 <= k <= n, got k={k}, n={n}")
    out = []
    pref_den = Fraction(2) ** (k - 2) * math.factorial(n - k)
    for p in range(1, n + 1):
        total = 0
        for j in range(max(1, k + p - n), min(k, p) + 1):
            total += (math.comb(n - k, p - j) * math.comb(k - 1, j - 1) ** 2
                      * (-1) ** (j + k + 1))
        out.append(Fraction(math.factorial(p - 1) * math.factorial(n - p), 1)
                   / pref_den * total)
    return out


def lw_direction(n: int, k: int) -> np.ndarray:
    return np.array([float(v) for v in lw_direction_exact(n, k)])


def lift_representation(n: int, rho_2, u_2):
    """Lift SL(2) generator data (rho_i, u_i) through the irreducible
    representation: linear parts via sym_rep, translation parts via its
    derivative at the identity."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got n={n}")
    rho = [sym_rep(n, g) for g in rho_2]
    u = [sym_rep_lie(n, y) for y in u_2]
    return rho, u
