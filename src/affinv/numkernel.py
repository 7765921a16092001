"""Shared numerical kernel: eigendecompositions of loxodromic matrices, singular
values, matrix exponentials, guarded linear solves and nearest points of hulls.

All other modules route their linear algebra through this file so that the
tolerance policy lives in exactly one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance policy: a tolerance some caller sets takes a keyword; the others are constants.
DEFAULT_TOL = 1e-9          # generic relative comparisons (transversality, det, trace)
MODULUS_GAP_TOL = 1e-9      # minimal relative gap between eigenvalue moduli
CONDITION_LIMIT = 1e12      # linear solves refuse anything worse than this
# Word products refuse |g| |g^{-1}| (Frobenius) from here on: float64 can no
# longer tell g from a singular matrix, and its small eigenvalues are noise.
PRODUCT_CONDITION_LIMIT = 1.0 / np.finfo(float).eps
NEAREST_POINT_TOL = 1e-12   # stopping rule of nearest_point, relative to the largest |p|^2
NEAREST_POINT_MAX_STEPS = 1000  # nearest_point gives up after this many corral updates
_TINY = np.finfo(float).tiny * 1e4  # determinants and singular values below this count as zero


class NumericalDegeneracy(Exception):
    """Base for failures where the input sits too close to a degenerate locus."""


class Singular(NumericalDegeneracy):
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


def _reject(reasons: list, bad: np.ndarray, make) -> None:
    """reasons[i] = make(i) for every i with a flag set in row i of bad that
    has no reason yet, so that the first check a matrix fails names it."""
    if np.count_nonzero(bad):  # much cheaper than bad.any() on small arrays
        for i in np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)).tolist():
            if reasons[i] is None:
                reasons[i] = make(i)


def _usable(stack: np.ndarray, reasons: list) -> np.ndarray:
    """The stack with every rejected matrix replaced by the identity, so that
    one bad matrix cannot make a stacked LAPACK call fail for all."""
    bad = [i for i, reason in enumerate(reasons) if reason is not None]
    if not bad:
        return stack
    stack = stack.copy()
    stack[bad] = np.eye(stack.shape[-1])
    return stack


def eigen_loxodromic_stack(g, reasons: list | None = None) -> tuple[LoxodromicData, list]:
    """eigen_loxodromic on a stack of finite matrices, shape (N, n, n).

    Returns a LoxodromicData whose fields carry a leading batch axis, and a
    list whose entry i is None when matrix i is loxodromic and otherwise the
    exception eigen_loxodromic raises for it; the fields of such a matrix
    are meaningless.  Entries already set in the reasons passed in are kept
    and their matrices skipped.  Checks run in eigen_loxodromic's order:
    determinant; per modulus index, a zero modulus before a collision; a
    degenerate eigenvector before a singular frame.
    """
    g = np.asarray(g, dtype=float)
    count, n = g.shape[0], g.shape[-1]
    reasons = [None] * count if reasons is None else list(reasons)
    rows = np.arange(count)[:, None]
    # Rows of rejected matrices may divide by zero; their results are unused.
    with np.errstate(divide="ignore", invalid="ignore"):
        _reject(reasons, np.abs(np.linalg.det(_usable(g, reasons))) < _TINY,
                lambda i: Singular("matrix is numerically singular"))

        values, vectors = np.linalg.eig(_usable(g, reasons))
        moduli = np.abs(values)
        order = np.argsort(-moduli, axis=1, kind="stable")
        moduli = moduli[rows, order]
        values = values[rows, order]
        cols = np.swapaxes(vectors, 1, 2)[rows, order]  # cols[i, j]: column j of frame i

        # A complex conjugate pair has equal moduli, so it always collides:
        # past this check every spectrum is real.
        rel = moduli[:, :-1] / moduli[:, 1:] - 1.0
        zero = moduli[:, 1:] == 0.0
        hit = zero | (rel <= MODULUS_GAP_TOL)

        def collision(i):
            j = int(np.argmax(hit[i]))
            if zero[i, j]:
                return Singular("zero eigenvalue modulus")
            return ModulusCollision(f"eigenvalue moduli {moduli[i, j]:.6g} and "
                                    f"{moduli[i, j + 1]:.6g} collide (relative gap {rel[i, j]:.3g})")

        _reject(reasons, hit, collision)

        if np.iscomplexobj(values):
            values, cols = values.real, cols.real

        # Canonicalize: unit columns, largest-magnitude entry positive.  The
        # columns are contiguous so that vecdot rounds as the unit-stride
        # BLAS dot behind np.linalg.norm does.
        cols = np.ascontiguousarray(cols)
        norms = np.sqrt(np.vecdot(cols, cols))
        _reject(reasons, norms == 0.0,
                lambda i: Singular("degenerate eigenvector"))
        cols /= norms[..., None]
        pivots = cols[rows, np.arange(n), np.abs(cols).argmax(axis=2)]
        cols *= np.sign(pivots)[..., None]  # pivots of unit columns are nonzero
        frame = np.ascontiguousarray(np.swapaxes(cols, 1, 2))

        d = np.linalg.det(_usable(frame, reasons))
        _reject(reasons, np.abs(d) < 1e-300,
                lambda i: Singular("eigenvector frame is numerically singular"))
        # Rescale to det 1, the last column taking the sign of d.  A scalar
        # pow per matrix, as numpy's vectorized pow rounds differently.
        scales = []
        for x, reason in zip(d.tolist(), reasons):
            scale = abs(x) ** (-1.0 / n) if reason is None else 1.0
            scales.append([scale] * (n - 1) + [math.copysign(scale, x)])
        frame *= np.array(scales)[:, None, :]

        gap = np.minimum.reduce(rel, axis=1, initial=np.inf)
    return LoxodromicData(eigenvalues=np.ascontiguousarray(values), frame=frame,
                          gap=gap), reasons


def eigen_loxodromic(g) -> LoxodromicData:
    """Eigendecomposition of a real-split proximal matrix: the batch of one
    of eigen_loxodromic_stack.

    Raises ModulusCollision when two moduli are closer than MODULUS_GAP_TOL
    in relative terms, which covers a complex conjugate pair (equal moduli),
    and Singular when g is not invertible.  Output is a pure function of the
    input bytes: ties in the sign canonicalization are broken by the first
    index attaining the maximal magnitude.
    """
    g = _as_square(g)
    if not np.isfinite(g).all():
        raise ValueError("matrix contains non-finite entries")
    lox, reasons = eigen_loxodromic_stack(g[None])
    if reasons[0] is not None:
        raise reasons[0]
    return LoxodromicData(eigenvalues=lox.eigenvalues[0], frame=lox.frame[0],
                          gap=float(lox.gap[0]))


def singular_values(g) -> np.ndarray:
    """Singular values of g in decreasing order, of each matrix of a stack
    (..., n, n) along the last axis; raises Singular if one is not invertible."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {g.shape}")
    sv = np.linalg.svd(g, compute_uv=False)
    if np.any(sv[..., -1] <= _TINY):
        raise Singular("matrix is numerically singular")
    return sv


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring via scipy); raises
    NumericalDegeneracy when the result overflows float64."""
    import scipy.linalg  # here, not at module level: importing it doubles the CLI start-up

    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(_as_square(x))
    if not np.all(np.isfinite(out)):
        raise NumericalDegeneracy("matrix exponential is not finite")
    return out


def solve_stack(a, b, reasons: list | None = None, *,
                condition_limit: float = CONDITION_LIMIT) -> tuple[np.ndarray, list]:
    """Guarded solves a[i] @ x[i] = b[i] on stacks a (N, n, n), b (N, n, m).

    Returns x and a list whose entry i is None, or Singular when the 2-norm
    condition number of a[i] is not finite or exceeds condition_limit (a
    finite number); such x[i] are meaningless.  Entries already set in the
    reasons passed in are kept.
    """
    reasons = [None] * len(a) if reasons is None else list(reasons)
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.linalg.svd(_usable(a, reasons), compute_uv=False)
        cond = sv[:, 0] / sv[:, -1]  # as np.linalg.cond, which reads 0/0 as inf

    def singular(i):
        value = np.inf if np.isnan(cond[i]) else cond[i]
        return Singular(f"condition number {value:.3g} exceeds {condition_limit:.3g}")

    _reject(reasons, ~(cond <= condition_limit), singular)  # NaN and inf fail too
    return np.linalg.solve(_usable(a, reasons), b), reasons


def solve(a, b, *, condition_limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Guarded linear solve a @ x = b using partial-pivot elimination: the
    batch of one of solve_stack."""
    a = _as_square(a)
    x, reasons = solve_stack(a[None], np.asarray(b, dtype=float)[None],
                             condition_limit=condition_limit)
    if reasons[0] is not None:
        raise reasons[0]
    return x[0]


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


def nearest_point(points) -> np.ndarray:
    """The point of the convex hull of the rows of points (N, d) nearest 0, by
    Wolfe's algorithm (Math. Programming 1976) on the points scaled to unit
    largest norm, stopped at x.x - min_j x.p_j <= NEAREST_POINT_TOL; its affine
    steps use unguarded least squares, as a guarded solve can cycle on repeats.
    A stop at x.x <= NEAREST_POINT_TOL returns exact zeros: 0 lies in the hull
    up to rounding, and x is the direction of a rounding residue."""
    p = np.asarray(points, dtype=float)
    scale = math.sqrt(np.max(np.vecdot(p, p)))
    if scale == 0.0:
        return np.zeros(p.shape[1])
    p = p / scale
    corral, weights = [int(np.argmin(np.vecdot(p, p)))], np.ones(1)
    for _ in range(NEAREST_POINT_MAX_STEPS):
        q = p[corral]
        t = np.linalg.lstsq((q[1:] - q[0]).T, -q[0], rcond=None)[0]
        affine = np.concatenate([[1.0 - t.sum()], t])  # the affine hull's nearest point
        if np.all(affine > 0.0):
            x = affine @ q
            j = int(np.argmin(p @ x))
            if x @ (x - p[j]) <= NEAREST_POINT_TOL or j in corral:
                return x * scale if x @ x > NEAREST_POINT_TOL else np.zeros(p.shape[1])
            corral, weights = corral + [j], np.append(affine, 0.0)
        else:  # move towards affine until a weight reaches 0, and drop that point
            out = np.flatnonzero(affine <= 0.0)
            ratios = weights[out] / np.maximum(weights[out] - affine[out], _TINY)
            weights += ratios.min() * (affine - weights)
            weights[out[np.argmin(ratios)]] = 0.0
            corral, weights = [i for i, w in zip(corral, weights) if w > 0.0], weights[weights > 0.0]
    raise NumericalDegeneracy(f"nearest_point did not stop in {NEAREST_POINT_MAX_STEPS} steps")
