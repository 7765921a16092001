"""Shared numerical kernel: eigendecompositions of loxodromic matrices,
singular values, matrix exponentials and guarded linear solves.

All other modules route their linear algebra through this file so that the
tolerance policy lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Tolerance policy.  Overridable per call; these are the library-wide defaults.
DEFAULT_TOL = 1e-9          # generic relative comparisons (transversality, det, trace)
MODULUS_GAP_TOL = 1e-9      # minimal relative gap between eigenvalue moduli
REALNESS_TOL = 1e-8         # |Im lambda| <= REALNESS_TOL * |lambda| counts as real
CONDITION_LIMIT = 1e12      # linear solves refuse anything worse than this
# Word products refuse |g| |g^{-1}| (Frobenius) from here on: float64 can no
# longer tell g from a singular matrix, and its small eigenvalues are noise.
PRODUCT_CONDITION_LIMIT = 1.0 / np.finfo(float).eps


class NumericalDegeneracy(Exception):
    """Base for failures where the input sits too close to a degenerate locus."""


class Singular(NumericalDegeneracy):
    pass


class ComplexSpectrum(NumericalDegeneracy):
    pass


class ModulusCollision(NumericalDegeneracy):
    pass


@dataclass(frozen=True)
class LoxodromicData:
    """Real eigenvalues sorted by decreasing modulus and the matching frame.

    frame columns are unit-scale eigenvectors canonicalized (largest-magnitude
    entry positive) and the whole frame rescaled so det(frame) = 1.
    gap is the smallest relative modulus gap min_i(|l_i|/|l_{i+1}| - 1).
    """

    eigenvalues: np.ndarray
    frame: np.ndarray
    gap: float


def _as_square(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    return g


def eigen_loxodromic(g, *, gap_tol: float = MODULUS_GAP_TOL,
                     real_tol: float = REALNESS_TOL) -> LoxodromicData:
    """Eigendecomposition of a real-split proximal matrix.

    Raises ComplexSpectrum when an eigenvalue has a relative imaginary part
    above real_tol, ModulusCollision when two moduli are closer than gap_tol
    in relative terms, Singular when g is not invertible.  Output is a pure
    function of the input bytes: ties in the sign canonicalization are broken
    by the first index attaining the maximal magnitude.
    """
    g = _as_square(g)
    n = g.shape[0]
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix contains non-finite entries")
    if abs(np.linalg.det(g)) < np.finfo(float).tiny * 1e4:
        raise Singular("matrix is numerically singular")

    values, vectors = np.linalg.eig(g)

    moduli = np.abs(values)
    order = np.argsort(-moduli, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    moduli = moduli[order]

    # Modulus collisions first: a conjugate pair always collides, so this
    # check also catches "almost real" pairs before the realness test does.
    gap = np.inf
    for i in range(n - 1):
        if moduli[i + 1] == 0.0:
            raise Singular("zero eigenvalue modulus")
        rel = moduli[i] / moduli[i + 1] - 1.0
        gap = min(gap, rel)
        if rel <= gap_tol:
            raise ModulusCollision(
                f"eigenvalue moduli {moduli[i]:.6g} and {moduli[i+1]:.6g} "
                f"collide (relative gap {rel:.3g})")

    scale = np.max(moduli)
    if np.any(np.abs(values.imag) > real_tol * np.maximum(moduli, scale * 1e-300)):
        raise ComplexSpectrum("matrix has a genuinely complex eigenvalue")

    lam = values.real.copy()
    frame = vectors.real.copy()

    # Canonicalize: unit columns, largest-magnitude entry positive.
    for j in range(n):
        col = frame[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            raise Singular("degenerate eigenvector")
        col = col / norm
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            col = -col
        frame[:, j] = col

    d = np.linalg.det(frame)
    if abs(d) < 1e-300:
        raise Singular("eigenvector frame is numerically singular")
    frame = frame * abs(d) ** (-1.0 / n)
    if d < 0:
        frame[:, -1] = -frame[:, -1]

    return LoxodromicData(eigenvalues=lam, frame=frame, gap=float(gap))


def singular_values(g) -> np.ndarray:
    """Singular values of g in decreasing order; raises Singular if g is not invertible."""
    g = _as_square(g)
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= np.finfo(float).tiny * 1e4:
        raise Singular("matrix is numerically singular")
    return sv


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring via scipy); raises
    NumericalDegeneracy when the result overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(_as_square(x))
    if not np.all(np.isfinite(out)):
        raise NumericalDegeneracy("matrix exponential is not finite")
    return out


def solve(a, b, *, condition_limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Guarded linear solve a @ x = b using partial-pivot elimination."""
    a = _as_square(a)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > condition_limit:
        raise Singular(f"condition number {cond:.3g} exceeds {condition_limit:.3g}")
    return np.linalg.solve(a, np.asarray(b, dtype=float))


def inverse(a, *, condition_limit: float = CONDITION_LIMIT) -> np.ndarray:
    return solve(a, np.eye(a.shape[0]), condition_limit=condition_limit)


def adjoint(g, y) -> np.ndarray:
    """Adjoint action g y g^{-1} without forming an explicit inverse."""
    g = _as_square(g)
    return solve(g.T, (g @ np.asarray(y, dtype=float)).T).T


def is_unimodular(g, *, tol: float = DEFAULT_TOL) -> bool:
    g = _as_square(g)
    return abs(np.linalg.det(g) - 1.0) <= tol * g.shape[0]


def is_traceless(y, *, tol: float = DEFAULT_TOL) -> bool:
    y = _as_square(y)
    return abs(np.trace(y)) <= tol * (1.0 + np.linalg.norm(y))
