"""Symmetric powers of SL(2), Schottky pairs, highest-root directions."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from affinv import cartan, fuchsian
from affinv.fuchsian import (DegenerateParameters, NotUnimodular, OutOfRange,
                             lift_representation, lw_direction,
                             lw_direction_exact, ping_pong_certificate,
                             rotation, schottky_generators, sym_rep,
                             sym_rep_lie)
from affinv.numkernel import Singular, matrix_exp
from helpers import LN3, traceless


def random_sl2(rng):
    a = rng.standard_normal((2, 2))
    d = np.linalg.det(a)
    if d < 0:
        a[:, 0] = -a[:, 0]
        d = -d
    return a / np.sqrt(d)


def weighted_monomials(n, x, y):
    d = n - 1
    return np.array([comb(d, i) ** 0.5 * x ** (d - i) * y ** i
                     for i in range(n)])


def test_sym_rep_is_polynomial_substitution():
    # pointwise oracle: applying the matrix to the weighted monomial vector
    # is substitution of the transformed coordinates
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        a = random_sl2(rng)
        p = sym_rep(n, a)
        x, y = rng.standard_normal(2)
        xt, yt = a @ np.array([x, y])
        np.testing.assert_allclose(p @ weighted_monomials(n, x, y),
                                   weighted_monomials(n, xt, yt),
                                   rtol=1e-9, atol=1e-9)


def test_sym_rep_is_a_homomorphism():
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(2, 7))
        a, b = random_sl2(rng), random_sl2(rng)
        np.testing.assert_allclose(sym_rep(n, a @ b), sym_rep(n, a) @ sym_rep(n, b),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(sym_rep(n, np.eye(2)), np.eye(n),
                                   rtol=0, atol=1e-14)
        assert abs(np.linalg.det(sym_rep(n, a)) - 1.0) < 1e-8


def test_sym_rep_respects_rotations():
    # binomial weights make the image of SO(2) orthogonal
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        q = sym_rep(n, rotation(float(rng.uniform(0, 2 * np.pi))))
        np.testing.assert_allclose(q @ q.T, np.eye(n), rtol=0, atol=1e-10)


def test_sym_rep_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        sym_rep(3, 2 * np.eye(2))


def test_sym_rep_lie_is_the_derivative():
    rng = np.random.default_rng(3)
    for trial in range(15):
        n = int(rng.integers(2, 7))
        x = traceless(2, rng)
        t = 1e-6
        fd = (sym_rep(n, matrix_exp(t * x)) - sym_rep(n, matrix_exp(-t * x))) / (2 * t)
        np.testing.assert_allclose(sym_rep_lie(n, x), fd, rtol=0, atol=1e-7)
        assert abs(np.trace(sym_rep_lie(n, x))) < 1e-10


def test_sym_rep_lie_preserves_brackets():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        x, y = traceless(2, rng), traceless(2, rng)
        lhs = sym_rep_lie(n, x @ y - y @ x)
        a, b = sym_rep_lie(n, x), sym_rep_lie(n, y)
        np.testing.assert_allclose(lhs, a @ b - b @ a, rtol=0, atol=1e-9)


def test_sym_rep_lie_tridiagonal_form():
    x = np.array([[0.7, 1.3], [-0.4, -0.7]])
    out = sym_rep_lie(3, x)
    p, q, r = 0.7, 1.3, -0.4
    expected = np.array([
        [2 * p, np.sqrt(2) * q, 0.0],
        [np.sqrt(2) * r, 0.0, np.sqrt(2) * q],
        [0.0, np.sqrt(2) * r, -2 * p]])
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_sym_rep_lie_diagonal_weights():
    # diag(1,-1) maps to the weight string (d, d-2, ..., -d)
    for n in (2, 3, 4, 5, 8):
        d = n - 1
        out = sym_rep_lie(n, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.diag(np.arange(d, -d - 1, -2, dtype=float)),
                                   rtol=0, atol=1e-12)


def test_schottky_generators_exact_values():
    a, b = schottky_generators(3.0, np.pi / 2)
    np.testing.assert_allclose(a, np.diag([3.0, 1.0 / 3.0]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(b, np.array([[5.0, 4.0], [4.0, 5.0]]) / 3.0,
                               rtol=0, atol=1e-12)
    for g in (a, b):
        assert abs(np.linalg.det(g) - 1.0) < 1e-12
    # axes meet at the requested angle: fixed directions of b are the
    # quarter rotation of those of a
    np.testing.assert_allclose(np.linalg.eigvalsh(b), [1.0 / 3.0, 3.0],
                               rtol=1e-12)


def test_schottky_generators_degenerate_parameters():
    with pytest.raises(DegenerateParameters):
        schottky_generators(1.0, np.pi / 2)
    with pytest.raises(DegenerateParameters):
        schottky_generators(3.0, 0.0)
    with pytest.raises(DegenerateParameters):
        schottky_generators(3.0, 2.0)


def test_ping_pong_certificate():
    a, b = schottky_generators(3.0, np.pi / 2)
    assert ping_pong_certificate(a, b, max_length=8)
    # an abelian pair cannot play ping pong
    assert not ping_pong_certificate(np.diag([3.0, 1.0 / 3.0]),
                                     np.diag([2.0, 0.5]), max_length=4)


def test_ping_pong_certificate_refuses_unusable_pairs():
    _, b = schottky_generators(3.0, np.pi / 2)
    with pytest.raises(ValueError, match="unimodular"):
        ping_pong_certificate(np.diag([2.0, 1.0]), b, max_length=4)
    with pytest.raises(Singular):
        ping_pong_certificate(np.diag([1e9, 1e-9]), b, max_length=4)


@pytest.mark.parametrize("lam", [10.0, 20.0])
def test_ping_pong_certificate_strongly_hyperbolic_pairs(lam):
    # words of length 8 are far past float64's condition limit here, but
    # their traces (about lam^8) clear 2 by far more than their rounding
    assert ping_pong_certificate(*schottky_generators(lam, np.pi / 2), max_length=8)


def test_lw_direction_exact_values():
    assert lw_direction_exact(2, 2) == [Fraction(1), Fraction(-1)]
    assert lw_direction_exact(3, 2) == [Fraction(2), Fraction(0), Fraction(-2)]
    assert lw_direction_exact(3, 3) == [Fraction(-1), Fraction(2), Fraction(-1)]


def test_lw_direction_zero_sum_and_parity():
    for n in range(2, 9):
        for k in range(2, n + 1):
            v = lw_direction_exact(n, k)
            assert sum(v) == 0  # exact rational arithmetic
            sgn = (-1) ** (k + 1)
            assert list(reversed(v)) == [sgn * q for q in v]


def test_lw_direction_float_wrapper():
    np.testing.assert_allclose(lw_direction(3, 2), [2.0, 0.0, -2.0],
                               rtol=0, atol=0)


def test_lw_direction_out_of_range():
    for n, k in ((3, 1), (3, 4), (2, 0)):
        with pytest.raises(OutOfRange):
            lw_direction_exact(n, k)


def test_lift_representation_rejects_dimension_below_two():
    a, b = schottky_generators(3.0, np.pi / 2)
    for n in (1, 0, -2):
        with pytest.raises(OutOfRange):
            lift_representation(n, [a, b], [np.zeros((2, 2))] * 2)


def test_lift_representation_jordan_projection():
    a, b = schottky_generators(3.0, np.pi / 2)
    rho, u = lift_representation(3, [a, b], [np.log(3.0) * np.diag([1.0, -1.0]),
                                             np.zeros((2, 2))])
    np.testing.assert_allclose(cartan.jordan_projection(rho[0]),
                               [2 * LN3, 0.0, -2 * LN3], rtol=0, atol=1e-10)
    np.testing.assert_allclose(cartan.jordan_projection(rho[1]),
                               [2 * LN3, 0.0, -2 * LN3], rtol=0, atol=1e-10)
    # lifted translation part of a diagonal direction is the weight string
    np.testing.assert_allclose(u[0], LN3 * np.diag([2.0, 0.0, -2.0]),
                               rtol=0, atol=1e-12)
