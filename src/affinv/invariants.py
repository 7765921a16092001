"""Margulis invariants and affine cross / triple ratios for the affine group
SL(n,R) x sl(n,R) acting on sl(n,R) by X -> g X g^{-1} + Y.

An affine parabolic space is a point of sl(n,R) plus the Borel subalgebra of
a full flag; the cross ratio of four pairwise transverse such spaces is a
Cartan vector, computed from co-neutral maps of the four mixed flag pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cartan, numkernel
from .cartan import Flag
from .numkernel import LoxodromicData, eigen_loxodromic


def margulis_invariant_stack(frame, y, reasons: list | None = None) -> tuple[np.ndarray, list]:
    """Margulis invariants of a stack: row i is the diagonal of y[i] in the
    canonical eigenframe frame[i] (from eigen_loxodromic_stack).  Returns the
    (N, n) invariants and the reasons of numkernel.solve_stack: an
    eigenframe too ill-conditioned to solve against gets Singular, and its
    row is meaningless."""
    frame = np.asarray(frame, dtype=float)
    w, reasons = numkernel.solve_stack(frame, np.asarray(y, dtype=float) @ frame, reasons)
    return np.diagonal(w, axis1=1, axis2=2).copy(), reasons


def margulis_invariant(g, y, *, lox: LoxodromicData | None = None) -> np.ndarray:
    """Diagonal part of y in the canonical eigenframe of loxodromic g: the
    batch of one of margulis_invariant_stack.

    Invariant under conjugation of the pair and under adding a coboundary
    v - g v g^{-1} to y.
    """
    if lox is None:
        lox = eigen_loxodromic(np.asarray(g, dtype=float))
    m, reasons = margulis_invariant_stack(lox.frame[None], np.asarray(y, dtype=float)[None])
    if reasons[0] is not None:
        raise reasons[0]
    return m[0]


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
    off = ~np.eye(len(lam), dtype=bool)
    x = np.zeros_like(w)
    x[off] = w[off] / (1.0 - (lam[:, None] / lam)[off])
    return numkernel.adjoint(h, x)


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


def _co_neutral_maps(spaces, pairs, tol: float) -> np.ndarray:
    """Co-neutral maps nu*_ij(x_i - x_j) of the flag pairs (i, j) of the
    spaces, all from one stacked factorization (cartan._flag_pairs)."""
    x = [s.base for s in spaces]
    z = np.array([x[i] - x[j] for i, j in pairs])
    return cartan._flag_pairs([s.flag.frame for s in spaces], pairs, z, tol=tol)[1]


def cross_ratio(a1: AffineParabolic, a2: AffineParabolic, a3: AffineParabolic,
                a4: AffineParabolic, *, tol: float = numkernel.DEFAULT_TOL) -> np.ndarray:
    """Affine cross ratio beta(A1,A2,A3,A4) of four pairwise transverse
    affine parabolic spaces, as a Cartan vector.

    Evaluated through co-neutral maps of the four mixed flag pairs applied to
    base point differences; the value does not depend on the choice of base
    point inside each space.  The pairs (A1,A2) and (A3,A4) are factored with
    the mixed ones, so a NotTransverse names whichever pair fails first.
    """
    c = _co_neutral_maps((a1, a2, a3, a4), ((0, 1), (2, 3), (0, 3), (0, 2), (1, 2), (1, 3)), tol)
    return c[2] - c[3] + c[4] - c[5]


def triple_ratio(a2: AffineParabolic, a3: AffineParabolic, a4: AffineParabolic,
                 *, tol: float = numkernel.DEFAULT_TOL) -> np.ndarray:
    """Affine triple ratio delta(A2,A3,A4): cyclically invariant, reverses
    sign under a transposition, and is fixed by the longest Weyl element.

    Sum over the cyclic pairs (i,j) of nu*_ij(x_i - x_j) + nu*_ji(x_i - x_j),
    where the second term is the first reversed.
    """
    c = _co_neutral_maps((a2, a3, a4), ((0, 1), (1, 2), (2, 0)), tol)
    return (c + c[:, ::-1]).sum(axis=0)
