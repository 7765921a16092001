"""Jordan and Cartan projections, full flags, transverse frames and the
neutral / co-neutral maps attached to a transverse flag pair.

Cartan vectors are zero-sum numpy arrays of length n (coordinates on the
diagonal subalgebra of sl(n,R)).  Flags are stored as frames: column j of the
frame spans the new direction of the j-dimensional subspace, so the flag's
p-dimensional piece is the span of the first p columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, LoxodromicData, Singular


class NotTransverse(numkernel.NumericalDegeneracy):
    pass


def jordan_projection(g) -> np.ndarray:
    """Sorted log eigenvalue moduli (decreasing).  Requires pairwise distinct
    moduli; a complex conjugate pair collides and is rejected the same way."""
    return np.log(np.abs(numkernel.eigen_loxodromic(g).eigenvalues))


def cartan_projection(g) -> np.ndarray:
    """Sorted log singular values (decreasing), of each matrix of a stack
    (..., n, n) along the last axis."""
    return np.log(numkernel.singular_values(g))


def omega0(x) -> np.ndarray:
    """The longest Weyl element on the Cartan of sl(n): coordinate reversal."""
    return np.asarray(x, dtype=float)[::-1].copy()


@dataclass(frozen=True)
class Flag:
    """Full flag given by a frame; prefix spans are the flag subspaces."""

    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise ValueError(f"flag frame must be square, got {frame.shape}")
        object.__setattr__(self, "frame", frame)

    @property
    def n(self) -> int:
        return self.frame.shape[0]


def standard_flag(n: int) -> Flag:
    return Flag(np.eye(n))


def reversed_flag(n: int) -> Flag:
    return Flag(np.eye(n)[:, ::-1])


def _orthonormal_frame(flag: Flag) -> np.ndarray:
    """QR-orthonormalized frame adapted to the same flag (R has positive diagonal)."""
    q, r = np.linalg.qr(flag.frame)
    signs = np.sign(np.diag(r))
    if np.any(signs == 0):
        raise Singular("flag frame is not invertible")
    return q * signs


def flag_distance(f: Flag, g: Flag) -> float:
    """Max over p of the gap between the p-dimensional pieces (projector norm)."""
    qf = _orthonormal_frame(f)
    qg = _orthonormal_frame(g)
    worst = 0.0
    for p in range(1, f.n):
        pf = qf[:, :p] @ qf[:, :p].T
        pg = qg[:, :p] @ qg[:, :p].T
        worst = max(worst, np.linalg.norm(pf - pg, 2))
    return worst


def flags_of(lox: LoxodromicData) -> tuple[Flag, Flag]:
    """Attracting and repelling flags of a loxodromic matrix."""
    return Flag(lox.frame), Flag(lox.frame[:, ::-1])


def _flag_pairs(frames, pairs, z=None, *, tol: float):
    """Factor the flag pairs (frames[i], frames[j]), (i, j) in pairs, at once.

    Each frame gets unit columns, each column divided by its largest |entry|
    first: no column scale overflows, and a power of two moves no bit.  With
    fu, gu the frames of a pair and J the order reversal, one guarded solve
    gives fu^-1 gu (and fu^-1 z fu), and the unpivoted LU factorization
    L U = J fu^-1 gu makes fu m, m = J L J, adapted to both flags.  The mixed
    minors |det[F^p, G^(n-p)]|, p = n..0, are |det fu| times the running
    products of U's pivots: NotTransverse when one is at most tol.  The
    co-neutral map of z is the diagonal of m^-1 (fu^-1 z fu) m; m is unit
    upper triangular, so its solve needs no guard.

    Returns the frames fu m with unit columns (K, n, n), column p spanning
    F^p intersect G^(n-p+1), and the co-neutral maps of the z[k] under pair k
    (K, n), or None when z is None.
    """
    frames = np.array(frames, dtype=float)
    big = np.maximum.reduce(np.abs(frames), axis=1, keepdims=True)
    if np.count_nonzero(big) < big.size:
        i, j = next(p for p in pairs if not big[list(p)].all())
        raise NotTransverse(f"flags {i} and {j} are not transverse: a frame has a zero column")
    unit = frames / big
    unit /= np.sqrt(np.vecdot(unit, unit, axis=1))[:, None]
    fu, gu = unit[np.array(pairs).T]
    n = frames.shape[-1]
    x, reasons = numkernel.solve_stack(fu, gu if z is None else np.concatenate([gu, z @ fu], axis=2))
    a = x[:, ::-1, :n]  # J fu^-1 gu; the columns past n hold fu^-1 z fu
    m = np.eye(n)[None].repeat(len(fu), axis=0)
    lower = m[:, ::-1, ::-1]  # L, so that m = J L J
    with np.errstate(divide="ignore", invalid="ignore"):  # past a zero pivot, nothing is used
        for k in range(n - 1):  # Doolittle: row k of a is now row k of U
            lower[:, k + 1:, k] = a[:, k + 1:, k] / a[:, k, k, None]
            a[:, k + 1:, k + 1:] -= lower[:, k + 1:, k, None] * a[:, k, None, k + 1:]
        minors = np.multiply.accumulate(np.abs(np.concatenate(
            [np.linalg.det(fu)[:, None], np.diagonal(a, axis1=1, axis2=2)], axis=1)), axis=1)
    if np.count_nonzero(minors <= tol) or reasons.count(None) < len(reasons):
        for k, (i, j) in enumerate(pairs):  # a pair's checks in order: p = n, the solve, p < n
            if reasons[k] is not None and minors[k, 0] > tol:
                raise reasons[k]
            bad = np.flatnonzero(minors[k] <= tol)
            if len(bad):
                raise NotTransverse(f"flags {i} and {j} are not transverse: "
                                    f"minor p = {n - bad[0]} is {minors[k, bad[0]]:.3g}")
    h = fu @ m
    h /= np.sqrt(np.vecdot(h, h, axis=1))[:, None]
    co = None if z is None else np.diagonal(np.linalg.solve(m, x[:, :, n:] @ m), axis1=1, axis2=2)
    return h, co


def is_transverse(f: Flag, g: Flag, *, tol: float = DEFAULT_TOL) -> bool:
    """Whether F^p + G^(n-p) = R^n for every p = 0..n: each mixed minor,
    measured with unit columns, exceeds tol.  p = 0 and p = n ask that both
    frames be invertible, so a singular frame is never transverse."""
    try:
        _flag_pairs([f.frame, g.frame], [(0, 1)], tol=tol)
    except numkernel.NumericalDegeneracy:
        return False
    return True


def transverse_frame(f: Flag, g: Flag, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The det-1 frame h whose column p spans F^p intersect G^(n-p+1).

    h carries the standard pair (standard flag, reversed standard flag) to
    (F, G); it is unique up to a diagonal matrix, and this realization is
    deterministic (fixed sign and scale convention).
    """
    h = _flag_pairs([f.frame, g.frame], [(0, 1)], tol=tol)[0][0]
    n = f.n
    h *= np.sign(h[np.abs(h).argmax(axis=0), np.arange(n)])
    d = np.linalg.det(h)
    if abs(d) < tol:
        raise NotTransverse("transverse frame is numerically singular")
    h = h * abs(d) ** (-1.0 / n)
    if d < 0:
        h[:, -1] = -h[:, -1]
    return h


def co_neutral(f_i: Flag, f_j: Flag, z, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Co-neutral map of the transverse pair (F_i, F_j) applied to traceless z:
    the diagonal part of z in the transverse frame (or any rescaling of it).
    Kills the nilpotent pieces attached to F_i (upper) and F_j (lower).
    Linear in z; swapping the pair reverses the result, since the frame of
    (F_j, F_i) is that of (F_i, F_j) with its columns reversed and rescaled."""
    z = np.asarray(z, dtype=float)[None]
    return _flag_pairs([f_i.frame, f_j.frame], [(0, 1)], z, tol=tol)[1][0].copy()


def neutral(f_i: Flag, f_j: Flag, y0, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Neutral map: embed a Cartan vector back along the transverse pair."""
    h = _flag_pairs([f_i.frame, f_j.frame], [(0, 1)], tol=tol)[0][0]
    return numkernel.adjoint(h, np.diag(np.asarray(y0, dtype=float)))


def borel_residual(f: Flag, z) -> float:
    """Distance of z from the Borel subalgebra of the flag: norm of the
    strictly lower part of z in an adapted orthonormal frame."""
    q = _orthonormal_frame(f)
    w = q.T @ np.asarray(z, dtype=float) @ q
    return float(np.linalg.norm(np.tril(w, -1)))


def nilpotent_residual(f: Flag, z) -> float:
    """Distance of z from the nilradical (strictly upper part) of the flag's
    Borel: norm of the lower-plus-diagonal part in an adapted frame."""
    q = _orthonormal_frame(f)
    w = q.T @ np.asarray(z, dtype=float) @ q
    return float(np.linalg.norm(np.tril(w, 0)))
