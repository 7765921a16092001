"""Jordan/Cartan projections, flags, transverse frames, neutral maps."""

import numpy as np
import pytest

from affinv import cartan
from affinv.cartan import (Flag, NotTransverse, co_neutral, cartan_projection,
                           flag_distance, flags_of, is_transverse,
                           jordan_projection, neutral, omega0, reversed_flag,
                           standard_flag, transverse_frame)
from affinv.numkernel import DEFAULT_TOL, eigen_loxodromic
from helpers import frame, loxodromic, traceless, unimodular


def zero_sum(n, rng):
    v = rng.standard_normal(n)
    return v - v.mean()


def orthogonal_iteration_flag(g, iterations=80):
    """Independent route to the attracting flag: QR-iterate a full frame."""
    q = np.linalg.qr(np.eye(g.shape[0]))[0]
    for _ in range(iterations):
        q, r = np.linalg.qr(g @ q)
        q = q * np.sign(np.diag(r))
    return Flag(q)


def test_jordan_projection_values():
    jd = jordan_projection(np.diag([4.0, 0.5, 0.25]))
    np.testing.assert_allclose(jd, np.log([4.0, 0.5, 0.25]), rtol=1e-14)
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        g = loxodromic(n, rng, signs=True)
        jd = jordan_projection(g)
        assert abs(jd.sum()) < 1e-9  # det +-1
        np.testing.assert_allclose(jordan_projection(np.linalg.matrix_power(g, 3)),
                                   3 * jd, rtol=0, atol=1e-8)
        np.testing.assert_allclose(jordan_projection(np.linalg.inv(g)),
                                   -omega0(jd), rtol=0, atol=1e-8)


def test_cartan_projection_basics():
    rng = np.random.default_rng(1)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        g = unimodular(n, rng)
        kap = cartan_projection(g)
        assert np.all(np.diff(kap) <= 1e-12)
        np.testing.assert_allclose(cartan_projection(np.linalg.inv(g)),
                                   -omega0(kap), rtol=0, atol=1e-8)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        np.testing.assert_allclose(cartan_projection(q @ g), kap, rtol=0, atol=1e-9)
    # symmetric positive case: kappa equals jordan
    g = np.diag([3.0, 1.0, 1.0 / 3.0])
    np.testing.assert_allclose(cartan_projection(g), jordan_projection(g),
                               rtol=0, atol=1e-12)


def test_omega0():
    np.testing.assert_allclose(omega0(np.array([1.0, 2.0, 3.0])), [3.0, 2.0, 1.0])
    rng = np.random.default_rng(2)
    v = zero_sum(5, rng)
    np.testing.assert_allclose(omega0(omega0(v)), v, rtol=0, atol=0)


def test_flags_of_matches_orthogonal_iteration():
    rng = np.random.default_rng(3)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        g = loxodromic(n, rng)
        f_plus, f_minus = flags_of(eigen_loxodromic(g))
        assert flag_distance(f_plus, orthogonal_iteration_flag(g)) < 1e-9
        assert flag_distance(f_minus,
                             orthogonal_iteration_flag(np.linalg.inv(g))) < 1e-9


def test_flag_distance_properties():
    rng = np.random.default_rng(4)
    f = Flag(frame(3, rng))
    assert flag_distance(f, f) < 1e-14
    # frame rescaling does not move the flag
    g = Flag(f.frame @ np.diag([2.0, -1.0, 0.5]))
    assert flag_distance(f, g) < 1e-12
    assert flag_distance(standard_flag(3), reversed_flag(3)) > 0.5


def test_transversality_matches_rank_oracle():
    rng = np.random.default_rng(5)
    agree = 0
    for trial in range(40):
        n = int(rng.integers(2, 5))
        f, g = Flag(frame(n, rng, skew=1.0)), Flag(frame(n, rng, skew=1.0))
        expected = all(
            np.linalg.matrix_rank(np.hstack([f.frame[:, :p], g.frame[:, :n - p]]),
                                  tol=1e-10) == n
            for p in range(1, n))
        assert is_transverse(f, g) == expected
        agree += expected
    assert agree > 30  # random flags are almost always transverse
    # engineered failures
    f = standard_flag(3)
    assert not is_transverse(f, f)
    shared_line = Flag(np.array([[1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0],
                                 [0.0, 1.0, 0.0]]))
    assert not is_transverse(f, shared_line)
    # a singular frame is never transverse, even where the mixed minors of
    # p = 1..n-1 are far from zero
    singular = Flag(np.array([[1.0, 2.0, 3.0],
                              [2.0, 4.0, 6.0],
                              [0.0, 1.0, 1.0]]))
    generic = Flag(np.eye(3)[:, [0, 2, 1]])
    for pair in ((singular, generic), (generic, singular)):
        assert is_transverse(*pair) is False
        with pytest.raises(NotTransverse):
            transverse_frame(*pair)


def test_transverse_frame_membership_and_determinism():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        f, g = Flag(frame(n, rng)), Flag(frame(n, rng))
        if not is_transverse(f, g):
            continue
        h = transverse_frame(f, g)
        assert abs(np.linalg.det(h) - 1.0) < 1e-9
        for p in range(1, n + 1):
            col = h[:, p - 1]
            # col lies in F^p: projection onto the orthogonal complement dies
            qf = np.linalg.qr(f.frame[:, :p])[0]
            assert np.linalg.norm(col - qf @ (qf.T @ col)) < 1e-9 * np.linalg.norm(col)
            qg = np.linalg.qr(g.frame[:, :n - p + 1])[0]
            assert np.linalg.norm(col - qg @ (qg.T @ col)) < 1e-9 * np.linalg.norm(col)
        h2 = transverse_frame(Flag(f.frame.copy()), Flag(g.frame.copy()))
        assert np.array_equal(h, h2)


def test_transverse_frame_spans_match_projector_oracle():
    # independent construction: intersect F^p with G^{n-p+1} via projectors
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        f, g = Flag(frame(n, rng)), Flag(frame(n, rng))
        if not is_transverse(f, g):
            continue
        h = transverse_frame(f, g)
        for p in range(1, n + 1):
            qf = np.linalg.qr(f.frame[:, :p])[0]
            qg = np.linalg.qr(g.frame[:, :n - p + 1])[0]
            pf, pg = qf @ qf.T, qg @ qg.T
            vals, vecs = np.linalg.eigh(pf @ pg @ pf)
            line = vecs[:, -1]  # eigenvalue 1 direction spans the intersection
            assert vals[-1] > 1.0 - 1e-9
            cosine = abs(line @ h[:, p - 1]) / np.linalg.norm(h[:, p - 1])
            assert abs(cosine - 1.0) < 1e-8


def test_transverse_frame_rejects_degenerate_pairs():
    f = standard_flag(3)
    with pytest.raises(NotTransverse):
        transverse_frame(f, f)


def test_neutral_conetral_roundtrip_and_kernel():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        f, g = Flag(frame(n, rng)), Flag(frame(n, rng))
        if not is_transverse(f, g):
            continue
        y0 = zero_sum(n, rng)
        z = neutral(f, g, y0)
        np.testing.assert_allclose(co_neutral(f, g, z), y0, rtol=0, atol=1e-10)
        # image lies in both Borel subalgebras
        assert cartan.borel_residual(f, z) < 1e-9
        assert cartan.borel_residual(g, z) < 1e-9
        # kernel: strict triangulars of the pair in its transverse frame
        h = transverse_frame(f, g)
        upper = np.triu(rng.standard_normal((n, n)), 1)
        lower = np.tril(rng.standard_normal((n, n)), -1)
        killed = h @ (upper + lower) @ np.linalg.inv(h)
        np.testing.assert_allclose(co_neutral(f, g, killed), np.zeros(n),
                                   rtol=0, atol=1e-9)


def test_co_neutral_swap_reverses():
    # the frame of (G, F) is the frame of (F, G) reversed and rescaled
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(40):
        n = 2 + trial % 4
        f, g = Flag(frame(n, rng, 0.8)), Flag(frame(n, rng, 0.8))
        if not is_transverse(f, g):
            continue
        z = traceless(n, rng)
        c = co_neutral(f, g, z)
        np.testing.assert_allclose(co_neutral(g, f, z), c[::-1], rtol=0,
                                   atol=1e-9 * (1 + np.linalg.norm(c)))
        checked += 1
    assert checked >= 30


def test_flag_pairs_stack_is_bytewise_the_batch_of_one():
    # K pairs over four frames in one factorization give the bytes of K
    # separate co_neutral calls
    rng = np.random.default_rng(22)
    compared = 0
    for trial in range(300):
        n, count = 2 + trial % 4, 1 + trial % 7
        frames = [frame(n, rng, 0.8) for _ in range(4)]
        pairs = [tuple(int(v) for v in rng.choice(4, 2, replace=False)) for _ in range(count)]
        z = np.array([traceless(n, rng) for _ in range(count)])
        try:
            stacked = cartan._flag_pairs(frames, pairs, z, tol=DEFAULT_TOL)[1]
        except NotTransverse:
            continue
        for k, (i, j) in enumerate(pairs):
            one = co_neutral(Flag(frames[i]), Flag(frames[j]), z[k])
            assert one.tobytes() == stacked[k].tobytes()
        compared += 1
    assert compared >= 250


def test_co_neutral_on_model_flags():
    # standard/reversed pair: the maps reduce to plain diagonal extraction
    n = 4
    rng = np.random.default_rng(9)
    z = traceless(n, rng)
    np.testing.assert_allclose(co_neutral(standard_flag(n), reversed_flag(n), z),
                               np.diag(z), rtol=0, atol=1e-12)
    y0 = zero_sum(n, rng)
    np.testing.assert_allclose(neutral(standard_flag(n), reversed_flag(n), y0),
                               np.diag(y0), rtol=0, atol=1e-12)


def triple_of_transverse_flags(n, rng):
    while True:
        flags = [Flag(frame(n, rng)) for _ in range(3)]
        if all(is_transverse(a, b)
               for i, a in enumerate(flags) for b in flags[i + 1:]):
            return flags


def pi_pair(f, g, z):
    """Projection onto V_f cap V_g along the strict triangulars of the pair."""
    return neutral(f, g, co_neutral(f, g, z))


def test_co_neutral_operator_identities():
    # nu*_{ij} = nu*_{ik} pi_{ij} = nu*_{kj} pi_{ij}; nu_{ij} = pi_{ij} nu_{ik}
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        fi, fj, fk = triple_of_transverse_flags(n, rng)
        z = traceless(n, rng)
        base = co_neutral(fi, fj, z)
        projected = pi_pair(fi, fj, z)
        np.testing.assert_allclose(co_neutral(fi, fk, projected), base,
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(co_neutral(fk, fj, projected), base,
                                   rtol=0, atol=1e-8)
        y0 = zero_sum(n, rng)
        np.testing.assert_allclose(pi_pair(fi, fj, neutral(fi, fk, y0)),
                                   neutral(fi, fj, y0), rtol=0, atol=1e-8)
        np.testing.assert_allclose(pi_pair(fi, fj, neutral(fk, fj, y0)),
                                   neutral(fi, fj, y0), rtol=0, atol=1e-8)


def test_neutral_differences_are_nilpotent():
    # nu_Y(i,k) - nu_Y(i,j) lands in the nilpotent radical of flag i,
    # nu_Y(k,j) - nu_Y(i,j) in the nilpotent radical of flag j
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        fi, fj, fk = triple_of_transverse_flags(n, rng)
        y0 = zero_sum(n, rng)
        d1 = neutral(fi, fk, y0) - neutral(fi, fj, y0)
        assert cartan.nilpotent_residual(fi, d1) < 1e-8
        d2 = neutral(fk, fj, y0) - neutral(fi, fj, y0)
        assert cartan.nilpotent_residual(fj, d2) < 1e-8


def test_residual_helpers():
    f = standard_flag(3)
    upper = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    assert cartan.borel_residual(f, upper) < 1e-14
    assert cartan.nilpotent_residual(f, upper) < 1e-14
    diag = np.diag([1.0, 0.0, -1.0])
    assert cartan.borel_residual(f, diag) < 1e-14
    assert cartan.nilpotent_residual(f, diag) > 0.5
    lower = upper.T
    assert cartan.borel_residual(f, lower) > 0.5
