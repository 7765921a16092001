"""Margulis invariants and affine cross / triple ratios for the affine group
SL(n,R) x sl(n,R) acting on sl(n,R) by X -> g X g^{-1} + Y.

An affine parabolic space is a point of sl(n,R) plus the Borel subalgebra of
a full flag; the cross ratio of four pairwise transverse such spaces is a
Cartan vector, computed from co-neutral maps of the six flag pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cartan, numkernel
from .cartan import Flag, NotTransverse
from .numkernel import LoxodromicData, eigen_loxodromic


def margulis_invariant(g, y, *, lox: LoxodromicData | None = None) -> np.ndarray:
    """Diagonal part of y in the canonical eigenframe of loxodromic g.

    Invariant under conjugation of the pair and under adding a coboundary
    v - g v g^{-1} to y.
    """
    if lox is None:
        lox = eigen_loxodromic(np.asarray(g, dtype=float))
    w = numkernel.solve(lox.frame, np.asarray(y, dtype=float) @ lox.frame)
    return np.diag(w).copy()


def invariant_affine_point(g, y, *, lox: LoxodromicData | None = None) -> np.ndarray:
    """The point X with g X g^{-1} + y - X in the centralizer line of g, i.e.
    the base point of the unique invariant affine subspace of the pair (g,y).

    Closed form in the eigenframe: off-diagonal entries w_ij / (1 - l_i/l_j),
    zero diagonal.
    """
    g = np.asarray(g, dtype=float)
    if lox is None:
        lox = eigen_loxodromic(g)
    h = lox.frame
    lam = lox.eigenvalues
    w = numkernel.solve(h, np.asarray(y, dtype=float) @ h)
    n = g.shape[0]
    x = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                x[i, j] = w[i, j] / (1.0 - lam[i] / lam[j])
    return h @ x @ np.linalg.inv(h)


@dataclass(frozen=True)
class AffineParabolic:
    """Affine parabolic space: base point + Borel subalgebra of a flag."""

    flag: Flag
    base: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        if base.shape != (self.flag.n, self.flag.n):
            raise ValueError("base point shape does not match the flag")
        object.__setattr__(self, "base", base)


def membership_residual(space: AffineParabolic, x) -> float:
    """How far x is from the affine space (Borel residual of x - base)."""
    return cartan.borel_residual(space.flag, np.asarray(x, dtype=float) - space.base)


def apply_affine(pair, space: AffineParabolic) -> AffineParabolic:
    """Push an affine parabolic space forward by an affine pair (g, y)."""
    g, y = pair
    g = np.asarray(g, dtype=float)
    new_frame = g @ space.flag.frame
    new_base = numkernel.adjoint(g, space.base) + np.asarray(y, dtype=float)
    return AffineParabolic(Flag(new_frame), new_base)


def affine_fixed_parabolics(g, y) -> tuple[AffineParabolic, AffineParabolic]:
    """The attracting and repelling affine parabolic spaces of the pair (g,y);
    both pass through the invariant affine point."""
    lox = eigen_loxodromic(np.asarray(g, dtype=float))
    x = invariant_affine_point(g, y, lox=lox)
    f_plus, f_minus = cartan.flags_of(lox)
    return AffineParabolic(f_plus, x), AffineParabolic(f_minus, x)


def affine_normal_form(g, y):
    """Conjugate (g,y) into the model pair (m exp(diag(jd)), diag(margulis)).

    Returns ((h, x), signs, margulis): the conjugating affine pair, the
    eigenvalue signs m, and the Margulis invariant, so that
    (h,x)^{-1} (g,y) (h,x) has diagonal linear part signs*exp(jordan) and
    diagonal translation part.
    """
    g = np.asarray(g, dtype=float)
    lox = eigen_loxodromic(g)
    x = invariant_affine_point(g, y, lox=lox)
    m = margulis_invariant(g, y, lox=lox)
    signs = np.sign(lox.eigenvalues)
    return (lox.frame, x), signs, m


def _check_pairwise_transverse(spaces, tol: float):
    for a in range(len(spaces)):
        for b in range(a + 1, len(spaces)):
            if not cartan.is_transverse(spaces[a].flag, spaces[b].flag, tol=tol):
                raise NotTransverse(f"flags {a} and {b} are not transverse")


def cross_ratio(a1: AffineParabolic, a2: AffineParabolic, a3: AffineParabolic,
                a4: AffineParabolic, *, tol: float = numkernel.DEFAULT_TOL) -> np.ndarray:
    """Affine cross ratio beta(A1,A2,A3,A4) of four pairwise transverse
    affine parabolic spaces, as a Cartan vector.

    Evaluated through co-neutral maps of the four mixed flag pairs applied to
    the base points; the value does not depend on the choice of base point
    inside each space.
    """
    spaces = (a1, a2, a3, a4)
    _check_pairwise_transverse(spaces, tol)
    f = [s.flag for s in spaces]
    x = [s.base for s in spaces]

    def nu_star(i: int, j: int, z) -> np.ndarray:
        return cartan.co_neutral(f[i], f[j], z, tol=tol)

    beta = (nu_star(0, 3, x[0]) - nu_star(0, 2, x[0])) \
        + (nu_star(1, 2, x[1]) - nu_star(1, 3, x[1])) \
        - (nu_star(1, 2, x[2]) - nu_star(0, 2, x[2])) \
        - (nu_star(0, 3, x[3]) - nu_star(1, 3, x[3]))
    return beta


def triple_ratio(a2: AffineParabolic, a3: AffineParabolic, a4: AffineParabolic,
                 *, tol: float = numkernel.DEFAULT_TOL) -> np.ndarray:
    """Affine triple ratio delta(A2,A3,A4): cyclically invariant, reverses
    sign under a transposition, and is fixed by the longest Weyl element."""
    spaces = (a2, a3, a4)
    _check_pairwise_transverse(spaces, tol)
    f = [s.flag for s in spaces]
    x = [s.base for s in spaces]

    def nu_star(i: int, j: int, z) -> np.ndarray:
        return cartan.co_neutral(f[i], f[j], z, tol=tol)

    delta = nu_star(0, 1, x[0] - x[1]) + nu_star(1, 0, x[0] - x[1]) \
        + nu_star(1, 2, x[1] - x[2]) + nu_star(2, 1, x[1] - x[2]) \
        + nu_star(2, 0, x[2] - x[0]) + nu_star(0, 2, x[2] - x[0])
    return delta
