"""Shared deterministic generators for the test suite.

Every generator takes an explicit numpy Generator so tests stay
reproducible.  The skew and gap bands were tuned so that random
loxodromic samples stay well conditioned at the tolerances the
tests assert; widening them makes eigenframe conditioning eat into
the error budgets.
"""

import os

import mpmath
import numpy as np

from affinv import cli, fuchsian, numkernel
from affinv.freegroup import AffineRepresentation, _letter_table

LN3 = np.log(3.0)


def haar_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def traceless(n, rng, norm=1.0):
    y = rng.standard_normal((n, n))
    y -= np.trace(y) / n * np.eye(n)
    return norm * y / np.linalg.norm(y)


def frame(n, rng, skew=0.15):
    # Haar rotation times a mild non-orthogonal distortion
    return haar_orthogonal(n, rng) @ numkernel.matrix_exp(traceless(n, rng, skew))


def unimodular(n, rng, scale=1.0):
    return numkernel.matrix_exp(traceless(n, rng, scale))


def loxodromic(n, rng, *, skew=0.15, gap_lo=0.5, gap_hi=0.9, signs=False):
    """Real matrix with distinct eigenvalue moduli and det +-1 -> det 1.

    Consecutive log-moduli gaps are drawn from [gap_lo, gap_hi]; with
    signs=True eigenvalues may be negative (moduli still distinct).
    """
    gaps = rng.uniform(gap_lo, gap_hi, size=n - 1)
    lam = np.concatenate([[0.0], -np.cumsum(gaps)])
    lam -= lam.mean()
    vals = np.exp(lam)
    if signs:
        flips = rng.integers(0, 2, size=n).astype(bool)
        if flips.sum() % 2 == 1:
            flips[int(rng.integers(0, n))] ^= True  # keep det positive
        vals = np.where(flips, -vals, vals)
    h = frame(n, rng, skew)
    return h @ np.diag(vals) @ np.linalg.inv(h)


def schottky_pair(lam=3.0):
    return fuchsian.schottky_generators(lam, np.pi / 2)


def derivative_cocycle_rep():
    """The n=2 Schottky pair with u(g) = log g on the generators."""
    a, b = schottky_pair()
    u = [np.diag([LN3, -LN3]), LN3 * np.array([[0.0, 1.0], [1.0, 0.0]])]
    return AffineRepresentation(2, 2, [a, b], u)


def coboundary_rep(seed=7, norm=0.1):
    """u(g) = v - Ad(g)v: trivial in cohomology, Margulis spectrum 0."""
    a, b = schottky_pair()
    rng = np.random.default_rng(seed)
    v = traceless(2, rng, norm)
    u = [v - numkernel.adjoint(g, v) for g in (a, b)]
    return AffineRepresentation(2, 2, [a, b], u), v


def small_cocycle_rep(seed=42, norm=0.1):
    a, b = schottky_pair()
    rng = np.random.default_rng(seed)
    return AffineRepresentation(2, 2, [a, b],
                                [traceless(2, rng, norm), traceless(2, rng, norm)])


def lifted_schottky_rep(n=3, seed=11, norm=0.1):
    """Symmetric-power lift of the Schottky pair with a random cocycle."""
    a, b = schottky_pair()
    rho = [fuchsian.sym_rep(n, g) for g in (a, b)]
    rng = np.random.default_rng(seed)
    return AffineRepresentation(n, 2, rho, [traceless(n, rng, norm),
                                            traceless(n, rng, norm)])


def ill_conditioned_eigenframe_pair():
    """a = P diag(1+1e-5, 1/(1+1e-5)) P^{-1} with eigenvector columns of P
    1e-12 apart (eigenframe condition number about 2e12), and b = diag(2, 1/2)."""
    p = np.array([[1.0, np.cos(1e-12)], [0.0, np.sin(1e-12)]])
    d = 1.0 + 1e-5
    return p @ np.diag([d, 1.0 / d]) @ np.linalg.inv(p), np.diag([2.0, 0.5])


def mp_letter_table(rep):
    """The letter triples (g, g^{-1}, Y) of rep in mpmath, at the working
    precision, as the power-word experiments form them."""
    gens = []
    for g, y in zip(rep.rho, rep.u):
        g = mpmath.matrix(g.tolist())
        gens.append((g, g ** -1, mpmath.matrix(y.tolist())))
    return _letter_table(gens)


def schottky_fixture_rep():
    """The representation of fixtures/schottky_n2.json."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "schottky_n2.json")
    return cli.load_rep(path, numkernel.DEFAULT_TOL)


def nnls_nearest_point(points):
    """The point of the convex hull of the rows of points nearest 0, by
    scipy's NNLS: with u >= 0 minimizing |P^T u|^2 + (sum u - 1)^2, that point
    is P^T u / sum u (the reference for numkernel.nearest_point)."""
    from scipy.optimize import nnls

    points = np.asarray(points, dtype=float)
    u, _ = nnls(np.vstack([points.T, np.ones(len(points))]),
                np.append(np.zeros(points.shape[1]), 1.0), maxiter=50 * len(points))
    return points.T @ u / u.sum()


def random_point_sets(rng, count):
    """Point sets (N, d), d = 1..5, at scales 1e-8..1e6: generic clouds,
    clouds with repeated points, collinear points, coordinates rounded to
    one digit (ties), and single points, in turn."""
    for i in range(count):
        d, m = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        points = rng.standard_normal((m, d)) + 2.0 * rng.standard_normal(d)
        kind = i % 5
        if kind == 1:
            points = np.vstack([points, points[rng.integers(0, m, size=m)]])
        elif kind == 2:
            points = np.outer(rng.standard_normal(m), rng.standard_normal(d)) \
                + rng.standard_normal(d) * rng.integers(0, 2)
        elif kind == 3:
            points = np.round(points, 1)
        elif kind == 4:
            points = points[:1]
        yield points * 10.0 ** rng.uniform(-8, 6)
