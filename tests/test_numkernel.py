"""Eigen/singular kernels against slow independent oracles."""

import warnings

import numpy as np
import pytest

from affinv import numkernel
from affinv.numkernel import (ModulusCollision, Singular,
                              eigen_loxodromic, eigen_loxodromic_stack,
                              matrix_exp, singular_values)
from helpers import (frame, ill_conditioned_eigenframe_pair, loxodromic,
                     nnls_nearest_point, random_point_sets, traceless, unimodular)


def charpoly_coeffs(a):
    """Faddeev-LeVerrier recursion; no eigensolver involved."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def expm_series(a, terms=40):
    out = np.eye(a.shape[0])
    for k in range(terms, 0, -1):
        out = np.eye(a.shape[0]) + a @ out / k
    return out


def test_eigenvalues_match_charpoly_roots():
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        g = loxodromic(n, rng, signs=True)
        lox = eigen_loxodromic(g)
        roots = np.roots(charpoly_coeffs(g))
        roots = roots[np.argsort(-np.abs(roots))]
        assert np.max(np.abs(roots.imag)) < 1e-8
        np.testing.assert_allclose(lox.eigenvalues, roots.real,
                                   rtol=1e-8, atol=1e-10)


def test_eigen_loxodromic_reconstructs_and_normalizes():
    rng = np.random.default_rng(2)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        g = loxodromic(n, rng)
        lox = eigen_loxodromic(g)
        h = lox.frame
        np.testing.assert_allclose(h @ np.diag(lox.eigenvalues) @ np.linalg.inv(h),
                                   g, rtol=0, atol=1e-9)
        assert abs(np.linalg.det(h) - 1.0) < 1e-9
        # moduli strictly decreasing, gap field consistent
        mods = np.abs(lox.eigenvalues)
        assert np.all(np.diff(mods) < 0)
        np.testing.assert_allclose(lox.gap, np.min(mods[:-1] / mods[1:] - 1),
                                   rtol=1e-12)


def test_eigen_loxodromic_diagonal_case():
    lox = eigen_loxodromic(np.diag([0.5, 1.0, 2.0]))
    np.testing.assert_allclose(lox.eigenvalues, [2.0, 1.0, 0.5], rtol=0, atol=0)
    # frame columns are signed standard basis vectors in modulus order
    np.testing.assert_allclose(np.abs(lox.frame),
                               np.eye(3)[:, ::-1], rtol=0, atol=1e-15)


def test_eigen_loxodromic_deterministic():
    rng = np.random.default_rng(3)
    g = loxodromic(4, rng)
    a = eigen_loxodromic(g)
    b = eigen_loxodromic(g.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.frame, b.frame)


def test_modulus_collision_raises():
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    with pytest.raises(ModulusCollision):
        eigen_loxodromic(rot)
    with pytest.raises(ModulusCollision):
        eigen_loxodromic(np.diag([2.0, -2.0]))  # distinct eigenvalues, equal moduli
    with pytest.raises(ModulusCollision):
        eigen_loxodromic(np.eye(3))


def test_singular_solve_and_inverse():
    bad = np.diag([1.0, 1e-13])
    with pytest.raises(Singular):
        numkernel.solve(bad, np.eye(2))
    with pytest.raises(Singular):
        numkernel.inverse(bad)
    rng = np.random.default_rng(4)
    g = unimodular(3, rng)
    np.testing.assert_allclose(numkernel.inverse(g) @ g, np.eye(3),
                               rtol=0, atol=1e-10)


def test_singular_values_against_gram_eigh():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        g = rng.standard_normal((n, n))
        sv = singular_values(g)
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(g.T @ g), 0.0))[::-1]
        np.testing.assert_allclose(sv, oracle, rtol=1e-10, atol=1e-10)
        assert np.all(np.diff(sv) <= 0)


def test_matrix_exp_against_series():
    rng = np.random.default_rng(6)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        a = traceless(n, rng, norm=float(rng.uniform(0.1, 2.0)))
        np.testing.assert_allclose(matrix_exp(a), expm_series(a),
                                   rtol=1e-12, atol=1e-12)


def test_matrix_exp_refuses_overflow():
    with pytest.raises(numkernel.NumericalDegeneracy):
        matrix_exp(np.diag([800.0, -800.0]))


def test_adjoint_is_conjugation():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        g = unimodular(n, rng)
        y = traceless(n, rng)
        np.testing.assert_allclose(numkernel.adjoint(g, y),
                                   g @ y @ np.linalg.inv(g),
                                   rtol=0, atol=1e-10)
        assert abs(np.trace(numkernel.adjoint(g, y))) < 1e-10


def test_unimodular_traceless_predicates():
    assert numkernel.is_unimodular(np.eye(3))
    assert not numkernel.is_unimodular(2 * np.eye(3))
    assert numkernel.is_traceless(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert not numkernel.is_traceless(np.eye(2))
    # tolerance is honored
    near = np.diag([1.0 + 5e-7, 1.0])
    assert not numkernel.is_unimodular(near, tol=1e-9)
    assert numkernel.is_unimodular(near, tol=1e-5)


def mixed_stack():
    """Loxodromic matrices among a rotation (complex spectrum), equal moduli,
    a singular matrix, a zero eigenvalue and an eigenframe of condition
    number 2e12, all 3x3."""
    rng = np.random.default_rng(8)

    def embed(m2):
        out = np.eye(3) * 5.0
        out[:2, :2] = m2
        return out

    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    ill, _ = ill_conditioned_eigenframe_pair()
    return np.array([loxodromic(3, rng), embed(rot), np.diag([2.0, -2.0, 0.25]),
                     loxodromic(3, rng, signs=True), np.zeros((3, 3)),
                     np.diag([2.0, 0.5, 1e-320]), embed(ill), loxodromic(3, rng)])


def test_eigen_loxodromic_stack_is_the_batch_of_one():
    # a conjugate pair always collides, so no spectrum is left complex
    stack = mixed_stack()
    lox, reasons = eigen_loxodromic_stack(stack)
    kinds = []
    for i, g in enumerate(stack):
        try:
            one = eigen_loxodromic(g)
        except numkernel.NumericalDegeneracy as exc:
            assert type(reasons[i]) is type(exc) and str(reasons[i]) == str(exc)
            kinds.append(type(exc))
            continue
        assert reasons[i] is None
        kinds.append(None)
        assert np.array_equal(lox.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(lox.frame[i], one.frame)
        assert lox.gap[i] == one.gap
    expected = [None, ModulusCollision, ModulusCollision, None, Singular, Singular,
                None, None]
    assert kinds == expected
    # a matrix rejected before the call is not decomposed, so it cannot make
    # the stacked LAPACK call fail for all
    poisoned = np.concatenate([stack, np.full((1, 3, 3), np.inf)])
    _, kept = eigen_loxodromic_stack(poisoned, [None] * len(stack) + [Singular("kept")])
    assert [type(r) if r else None for r in kept[:-1]] == expected
    assert str(kept[-1]) == "kept"


def test_solve_stack_is_the_batch_of_one():
    stack = mixed_stack()
    eigenframes = eigen_loxodromic_stack(stack)[0].frame
    frames = np.concatenate([eigenframes[[0, 3, 6]], np.zeros((1, 3, 3))])
    rhs = np.random.default_rng(9).standard_normal((4, 3, 3))
    prior = [None, Singular("kept"), None, None]
    x, reasons = numkernel.solve_stack(frames, rhs, prior)
    assert str(reasons[1]) == "kept"
    for i in (0, 2, 3):
        try:
            one = numkernel.solve(frames[i], rhs[i])
        except Singular as exc:
            assert str(reasons[i]) == str(exc)
            continue
        assert reasons[i] is None and np.array_equal(x[i], one)
    assert reasons[0] is None
    assert "condition number 2e+12" in str(reasons[2])
    assert "condition number inf" in str(reasons[3])


def test_nearest_point_against_the_nnls_reference():
    rng = np.random.default_rng(12)
    for points in random_point_sets(rng, 1500):
        p = numkernel.nearest_point(points)
        ref = nnls_nearest_point(points)
        scale = np.max(np.linalg.norm(points, axis=1))
        # certificate: every hull point y has y.p >= min_j x_j.p, so that
        # |y| >= |p| - (p.p - min_j x_j.p) / |p|
        assert p @ p - np.min(points @ p) <= 1e-9 * scale ** 2
        assert np.linalg.norm(p) <= np.linalg.norm(ref) + 1e-9 * scale
        assert np.linalg.norm(p - ref) <= 1e-6 * scale


def test_nearest_point_is_zero_when_the_hull_holds_zero():
    # exact zeros: a stop at x.x <= NEAREST_POINT_TOL leaves no rounding residue
    rng = np.random.default_rng(13)
    for points in random_point_sets(rng, 500):
        centered = points - points.mean(axis=0)  # the centroid 0 is in the hull
        with_zero = np.vstack([points, np.zeros(points.shape[1])])
        for cloud in (centered, with_zero):
            assert numkernel.nearest_point(cloud).tobytes() == np.zeros(points.shape[1]).tobytes()
    # 0 outside the hull by more than the tolerance keeps its point
    assert numkernel.nearest_point(np.array([[1e-5, 1.0], [1e-5, -1.0]])).tolist() == [1e-5, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert numkernel.nearest_point(np.zeros((4, 3))).tobytes() == np.zeros(3).tobytes()


def test_nearest_point_raises_instead_of_running_past_its_step_cap(monkeypatch):
    # the nearest point (1, 0) is on an edge: the walk adds a point and stops
    triangle = np.array([[1.0, -1.0], [2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(numkernel.nearest_point(triangle), [1.0, 0.0], rtol=0, atol=1e-15)
    monkeypatch.setattr(numkernel, "NEAREST_POINT_MAX_STEPS", 1)
    with pytest.raises(numkernel.NumericalDegeneracy, match="did not stop"):
        numkernel.nearest_point(triangle)
