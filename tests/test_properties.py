"""Property tests of the Margulis invariant identities that the power-word
experiments rely on: M(g^k) = k M(g) and M(g^-1) = -omega0 M(g), in float64
and through the mpmath path; and of the symmetries and the cocycle identity
of the affine cross ratio.  hypothesis is an optional test-time tool; the
module is skipped without it."""

import itertools
import math
import os

import mpmath
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from affinv import cartan, cli, numkernel, spectra  # noqa: E402
from affinv.cartan import Flag, is_transverse, omega0  # noqa: E402
from affinv.freegroup import _inv, _pow, _product, enumerate_conjugacy_reps, eval_affine  # noqa: E402
from affinv.invariants import AffineParabolic, cross_ratio, margulis_invariant  # noqa: E402
from helpers import frame, lifted_schottky_rep, mp_letter_table, traceless  # noqa: E402

REPS = {
    "schottky_n2": cli.load_rep(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                                             "schottky_n2.json"), numkernel.DEFAULT_TOL),
    "lift3": lifted_schottky_rep(3),
}
WORDS = list(enumerate_conjugacy_reps(2, 3))
# float64 products up to this Cartan spread (k_1 - k_n, a condition number up
# to about e^18) keep the identity errors on these words below 3e-3 of the
# tolerance.  Past it they grow fast: a^8 on the n=3 lift (spread 35) misses
# 8 M(a) by 1.6e-3 (1 + |M(a)|) 8.
MAX_SPREAD = 18.0
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def budget(m, k=1):
    """The acceptance identity tolerance 1e-8 (1 + |M|), times the power; M is
    a Margulis invariant or a cross ratio."""
    return 1e-8 * (1 + np.linalg.norm(m)) * k


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(REPS)), word=st.sampled_from(WORDS), data=st.data())
def test_float64_margulis_of_powers_and_inverses(name, word, data):
    rep = REPS[name]
    g, y = eval_affine(rep, word)
    m = margulis_invariant(g, y)
    spread = np.ptp(cartan.cartan_projection(g))
    k = data.draw(st.integers(1, max(1, min(8, int(MAX_SPREAD // spread)))), label="k")
    assert np.max(np.abs(margulis_invariant(*eval_affine(rep, word ** k)) - k * m)) \
        <= budget(m, k)
    assert np.max(np.abs(margulis_invariant(*eval_affine(rep, word.inverse())) + omega0(m))) \
        <= budget(m)


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(REPS)), word=st.sampled_from(WORDS),
       k=st.integers(1, 64))
def test_mp_margulis_of_powers_and_inverses(name, word, k):
    rep = REPS[name]
    spread = k * np.ptp(cartan.cartan_projection(eval_affine(rep, word)[0]))
    with mpmath.workdps(40 + math.ceil(spread / math.log(10))):
        t = _product(mp_letter_table(rep), word.letters)
        m = spectra._mp_margulis(t)
        m_k = spectra._mp_margulis(_pow(t, k))
        m_inv = spectra._mp_margulis(_inv(t))
    assert np.max(np.abs(m_k - k * m)) <= budget(m, k)
    assert np.max(np.abs(m_inv + omega0(m))) <= budget(m)


@st.composite
def transverse_spaces(draw):
    """Five affine parabolic spaces of sl(n), n = 2..4, whose flags are
    pairwise transverse with a margin: every mixed minor of unit columns
    above 1e-3, as criterion 1 asks, so that conditioning stays out of the
    tolerance."""
    n = draw(st.integers(2, 4), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    spaces = [AffineParabolic(Flag(frame(n, rng, 0.8)), traceless(n, rng)) for _ in range(5)]
    assume(all(is_transverse(a.flag, b.flag, tol=1e-3)
               for a, b in itertools.combinations(spaces, 2)))
    return spaces


@PROPERTY_SETTINGS
@given(spaces=transverse_spaces())
def test_cross_ratio_is_fixed_by_swapping_within_both_pairs(spaces):
    a1, a2, a3, a4, _ = spaces
    beta = cross_ratio(a1, a2, a3, a4)
    assert np.max(np.abs(cross_ratio(a2, a1, a4, a3) - beta)) <= budget(beta)


@PROPERTY_SETTINGS
@given(spaces=transverse_spaces())
def test_cross_ratio_changes_sign_when_the_last_two_swap(spaces):
    a1, a2, a3, a4, _ = spaces
    beta = cross_ratio(a1, a2, a3, a4)
    assert np.max(np.abs(cross_ratio(a1, a2, a4, a3) + beta)) <= budget(beta)


@PROPERTY_SETTINGS
@given(spaces=transverse_spaces())
def test_cross_ratio_cocycle(spaces):
    a1, a2, a3, a4, astar = spaces
    beta = cross_ratio(a1, a2, a3, a4)
    split = cross_ratio(a1, astar, a3, a4) + cross_ratio(astar, a2, a3, a4)
    assert np.max(np.abs(split - beta)) <= budget(beta)
