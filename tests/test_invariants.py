"""Margulis invariants, invariant affine points, cross and triple ratios."""

import warnings

import numpy as np
import pytest

from affinv import cartan, numkernel
from affinv.cartan import Flag, NotTransverse, is_transverse, neutral, omega0
from affinv.freegroup import affine_inv, affine_mul, affine_pow
from affinv.invariants import (AffineParabolic, affine_fixed_parabolics,
                               affine_normal_form, apply_affine, cross_ratio,
                               invariant_affine_point, margulis_invariant,
                               membership_residual, triple_ratio)
from affinv.numkernel import eigen_loxodromic
from helpers import frame, loxodromic, traceless, unimodular


def random_parabolic(n, rng, skew=0.8):
    return AffineParabolic(Flag(frame(n, rng, skew)), traceless(n, rng))


def transverse_tuple(n, rng, count):
    """count mutually transverse affine parabolic spaces, resampled on demand."""
    while True:
        spaces = [random_parabolic(n, rng) for _ in range(count)]
        flags = [s.flag for s in spaces]
        if all(is_transverse(a, b) for i, a in enumerate(flags)
               for b in flags[i + 1:]):
            return spaces


def test_margulis_diagonal_case():
    g = np.diag([3.0, 1.0, 1.0 / 3.0])
    y = traceless(3, np.random.default_rng(0))
    np.testing.assert_allclose(margulis_invariant(g, y), np.diag(y),
                               rtol=0, atol=1e-12)


def test_margulis_conjugation_and_coboundary_invariance():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(2, 5))
        g = loxodromic(n, rng, signs=True)
        y = traceless(n, rng)
        m = margulis_invariant(g, y)
        q, w = unimodular(n, rng), traceless(n, rng)
        gc, yc = affine_mul(affine_mul((q, w), (g, y)), affine_inv((q, w)))
        np.testing.assert_allclose(margulis_invariant(gc, yc), m,
                                   rtol=0, atol=1e-8 * (1 + np.linalg.norm(m)))
        v = traceless(n, rng)
        shifted = y + v - numkernel.adjoint(g, v)
        np.testing.assert_allclose(margulis_invariant(g, shifted), m,
                                   rtol=0, atol=1e-8 * (1 + np.linalg.norm(m)))


def test_margulis_powers_and_inverse():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        pair = (loxodromic(n, rng, signs=True), traceless(n, rng))
        m = margulis_invariant(*pair)
        for k in (2, 3, 5):
            np.testing.assert_allclose(margulis_invariant(*affine_pow(pair, k)),
                                       k * m, rtol=0,
                                       atol=1e-8 * (1 + k * np.linalg.norm(m)))
        np.testing.assert_allclose(margulis_invariant(*affine_inv(pair)),
                                   -omega0(m), rtol=0,
                                   atol=1e-8 * (1 + np.linalg.norm(m)))


def adjoint_matrix(g):
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    return np.kron(g, np.linalg.inv(g).T)


def frame_diag_part(g, x):
    lox = eigen_loxodromic(g)
    h = lox.frame
    hinv = np.linalg.inv(h)
    return h @ np.diag(np.diag(hinv @ x @ h)) @ hinv


def test_invariant_affine_point_fixed_up_to_neutral():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        g = loxodromic(n, rng)
        y = traceless(n, rng)
        x = invariant_affine_point(g, y)
        m = margulis_invariant(g, y)
        f_plus, f_minus = cartan.flags_of(eigen_loxodromic(g))
        drift = numkernel.adjoint(g, x) + y - x
        np.testing.assert_allclose(drift, neutral(f_plus, f_minus, m),
                                   rtol=0, atol=1e-8)
        # gauge: no neutral component in the point itself
        assert np.linalg.norm(frame_diag_part(g, x)) < 1e-8


def test_invariant_affine_point_against_kron_structure():
    # independent route through the vectorized operator Ad(g) - id: the
    # drift must span exactly its kernel directions and the rest of y must
    # be reachable, otherwise no invariant point with this gauge can exist
    rng = np.random.default_rng(4)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        g = loxodromic(n, rng)
        y = traceless(n, rng)
        x = invariant_affine_point(g, y)
        k = adjoint_matrix(g) - np.eye(n * n)
        sv = np.linalg.svd(k, compute_uv=False)
        assert np.sum(sv < 1e-9) == n  # centralizer of a regular element
        drift = numkernel.adjoint(g, x) + y - x
        assert np.linalg.norm(k @ drift.flatten()) < 1e-8
        best = np.linalg.lstsq(k, (y - drift).flatten(), rcond=None)[0]
        np.testing.assert_allclose(k @ best, (y - drift).flatten(),
                                   rtol=0, atol=1e-8)


def test_fixed_parabolics_are_invariant():
    rng = np.random.default_rng(5)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        pair = (loxodromic(n, rng), traceless(n, rng))
        a_plus, a_minus = affine_fixed_parabolics(*pair)
        for space in (a_plus, a_minus):
            assert membership_residual(space, space.base) < 1e-12
            moved = apply_affine(pair, space)
            assert cartan.flag_distance(moved.flag, space.flag) < 1e-8
            assert membership_residual(space, moved.base) < 1e-8


def test_affine_normal_form_roundtrip():
    rng = np.random.default_rng(6)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        pair = (loxodromic(n, rng, signs=True), traceless(n, rng))
        (h, x), signs, m = affine_normal_form(*pair)
        conj = affine_mul(affine_mul(affine_inv((h, x)), pair), (h, x))
        jd = cartan.jordan_projection(pair[0])
        np.testing.assert_allclose(conj[0], np.diag(signs * np.exp(jd)),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(conj[1], np.diag(m), rtol=0, atol=1e-8)


def test_cross_ratio_requires_transversality():
    rng = np.random.default_rng(7)
    spaces = transverse_tuple(3, rng, 3)
    with pytest.raises(NotTransverse):
        cross_ratio(spaces[0], spaces[1], spaces[2], spaces[2])


def degenerate_pair(spaces, i, j):
    """Copy of spaces with space j moved onto the flag of space i."""
    out = list(spaces)
    out[j] = AffineParabolic(spaces[i].flag, spaces[j].base)
    return out


@pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
def test_cross_ratio_checks_every_pair(i, j):
    spaces = transverse_tuple(3, np.random.default_rng(17), 4)
    cross_ratio(*spaces)
    with pytest.raises(NotTransverse, match=rf"flags ({i} and {j}|{j} and {i}) are not"):
        cross_ratio(*degenerate_pair(spaces, i, j))


@pytest.mark.parametrize("i,j", [(0, 1), (1, 2), (0, 2)])
def test_triple_ratio_checks_every_pair(i, j):
    spaces = transverse_tuple(3, np.random.default_rng(18), 3)
    triple_ratio(*spaces)
    with pytest.raises(NotTransverse, match=rf"flags ({i} and {j}|{j} and {i}) are not"):
        triple_ratio(*degenerate_pair(spaces, i, j))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_cross_ratio_names_the_pair_of_a_zero_column(k):
    spaces = transverse_tuple(3, np.random.default_rng(19), 4)
    zeroed = spaces[k].flag.frame.copy()
    zeroed[:, 1] = 0.0
    spaces[k] = AffineParabolic(Flag(zeroed), spaces[k].base)
    pair = "0 and 1" if k < 2 else "2 and 3"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotTransverse, match=f"flags {pair} are not"):
            cross_ratio(*spaces)


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600, 2.0 ** -1000],
                         ids=["2^600", "2^-600", "2^-1000"])
def test_cross_ratio_does_not_depend_on_column_scale(scale):
    # a rescaled frame is the same flag: dividing each column by its largest
    # |entry| first makes the bytes independent of a power-of-two scale
    rng = np.random.default_rng(20)
    for n in (2, 3, 4):
        spaces = transverse_tuple(n, rng, 4)
        beta = cross_ratio(*spaces)
        for k in range(4):
            frames = (spaces[k].flag.frame * scale, spaces[k].flag.frame.copy())
            frames[1][:, n - 1] *= scale
            for scaled_frame in frames:
                scaled = list(spaces)
                scaled[k] = AffineParabolic(Flag(scaled_frame), spaces[k].base)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert cross_ratio(*scaled).tobytes() == beta.tobytes()


def test_one_guarded_solve_per_call(monkeypatch):
    calls = []
    solve_stack = numkernel.solve_stack

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_stack(*args, **kwargs)

    monkeypatch.setattr(numkernel, "solve_stack", counted)
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        spaces = transverse_tuple(n, rng, 4)
        for call in (lambda: cartan.co_neutral(spaces[0].flag, spaces[1].flag, traceless(n, rng)),
                     lambda: cross_ratio(*spaces),
                     lambda: triple_ratio(*spaces[:3])):
            calls.clear()
            call()
            assert len(calls) == 1


def test_cross_ratio_base_point_independence():
    # moving a base point inside its own space leaves beta unchanged
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        spaces = transverse_tuple(n, rng, 4)
        beta = cross_ratio(*spaces)
        shifted = []
        for s in spaces:
            h = s.flag.frame
            drift = h @ np.triu(rng.standard_normal((n, n))) @ np.linalg.inv(h)
            drift -= np.trace(drift) / n * np.eye(n)
            shifted.append(AffineParabolic(s.flag, s.base + drift))
        np.testing.assert_allclose(cross_ratio(*shifted), beta, rtol=0,
                                   atol=1e-7 * (1 + np.linalg.norm(beta)))


def test_cross_ratio_affine_invariance_and_symmetries():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        s = transverse_tuple(n, rng, 4)
        beta = cross_ratio(*s)
        scale = 1 + np.linalg.norm(beta)
        pair = (unimodular(n, rng), traceless(n, rng))
        moved = [apply_affine(pair, sp) for sp in s]
        np.testing.assert_allclose(cross_ratio(*moved), beta, rtol=0,
                                   atol=1e-7 * scale)
        np.testing.assert_allclose(cross_ratio(s[1], s[0], s[3], s[2]), beta,
                                   rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(cross_ratio(s[2], s[3], s[0], s[1]),
                                   -omega0(beta), rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(cross_ratio(s[3], s[2], s[1], s[0]),
                                   -omega0(beta), rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(cross_ratio(s[0], s[1], s[3], s[2]), -beta,
                                   rtol=0, atol=1e-8 * scale)


def test_cross_ratio_cocycle_in_middle_arguments():
    # splitting through a fifth transverse space is additive
    rng = np.random.default_rng(10)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        s = transverse_tuple(n, rng, 5)
        a1, a2, a3, a4, astar = s
        lhs = cross_ratio(a1, astar, a3, a4) + cross_ratio(astar, a2, a3, a4)
        beta = cross_ratio(a1, a2, a3, a4)
        np.testing.assert_allclose(lhs, beta, rtol=0,
                                   atol=1e-8 * (1 + np.linalg.norm(beta)))


def test_triple_ratio_symmetries_and_decomposition():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        s = transverse_tuple(n, rng, 4)
        a2, a3, a4, astar = s
        delta = triple_ratio(a2, a3, a4)
        scale = 1 + np.linalg.norm(delta)
        np.testing.assert_allclose(triple_ratio(a3, a4, a2), delta, rtol=0,
                                   atol=1e-8 * scale)
        np.testing.assert_allclose(triple_ratio(a4, a2, a3), delta, rtol=0,
                                   atol=1e-8 * scale)
        np.testing.assert_allclose(triple_ratio(a3, a2, a4), -delta, rtol=0,
                                   atol=1e-8 * scale)
        np.testing.assert_allclose(omega0(delta), delta, rtol=0,
                                   atol=1e-8 * scale)
        pair = (unimodular(n, rng), traceless(n, rng))
        moved = [apply_affine(pair, sp) for sp in (a2, a3, a4)]
        np.testing.assert_allclose(triple_ratio(*moved), delta, rtol=0,
                                   atol=1e-7 * scale)
        total = (cross_ratio(astar, a2, a3, a4)
                 + cross_ratio(astar, a3, a4, a2)
                 + cross_ratio(astar, a4, a2, a3))
        np.testing.assert_allclose(total, delta, rtol=0, atol=1e-8 * scale)


def test_cross_ratio_on_fixed_spaces_recovers_margulis():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        g = loxodromic(n, rng)
        y = traceless(n, rng)
        m = margulis_invariant(g, y)
        a_plus, a_minus = affine_fixed_parabolics(g, y)
        while True:
            a = random_parabolic(n, rng)
            try:
                beta = cross_ratio(a_plus, a_minus, apply_affine((g, y), a), a)
                break
            except NotTransverse:
                continue
        m_inv = margulis_invariant(*affine_inv((g, y)))
        scale = 1 + np.linalg.norm(m)
        np.testing.assert_allclose(beta, m + m_inv, rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(beta, m - omega0(m), rtol=0, atol=1e-8 * scale)
