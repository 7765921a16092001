"""Spectrum sampling, properness diagnostics, limit and convexity probes."""

import io

import mpmath
import numpy as np
import pytest

from affinv import fuchsian, spectra
from affinv.cartan import NotTransverse, omega0
from affinv.freegroup import (AffineRepresentation, Word,
                              enumerate_conjugacy_reps, eval_affine)
from affinv.invariants import margulis_invariant
from affinv.numkernel import ModulusCollision
from affinv.spectra import (EmptySampleSet, anosov_gap_probe, convexity_probe,
                            derivative_experiment, limit_formula_experiment,
                            properness_diagnostic, sample_spectrum,
                            write_spectrum_csv)
from helpers import (LN3, coboundary_rep, derivative_cocycle_rep,
                     lifted_schottky_rep, loxodromic, schottky_pair,
                     small_cocycle_rep, traceless)


def diag_rep():
    y = np.array([[0.25, 0.5, 0.0], [0.0, -0.125, 1.0], [0.5, 0.0, -0.125]])
    return AffineRepresentation(3, 1, [np.diag([2.0, 1.0, 0.5])], [y])


def rotation_rep():
    return AffineRepresentation(2, 1, [fuchsian.rotation(0.5)],
                                [np.zeros((2, 2))])


def test_sample_spectrum_covers_all_conjugacy_reps():
    rep = derivative_cocycle_rep()
    for L in (2, 3):
        samples = sample_spectrum(rep, L)
        reps = list(enumerate_conjugacy_reps(2, L))
        assert [s.word for s in samples] == reps
        assert all(s.length == len(s.word) for s in samples)


def test_sample_spectrum_powers_of_one_generator():
    samples = sample_spectrum(diag_rep(), 3)
    by_word = {str(s.word): s for s in samples}
    m1 = by_word["a"].margulis
    np.testing.assert_allclose(m1, [0.25, -0.125, -0.125], rtol=0, atol=1e-12)
    for k in (2, 3):
        np.testing.assert_allclose(by_word["a" * k].margulis, k * m1,
                                   rtol=0, atol=1e-10)
    np.testing.assert_allclose(by_word["A"].margulis, -omega0(m1),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(by_word["a"].jordan,
                               [np.log(2.0), 0.0, -np.log(2.0)],
                               rtol=0, atol=1e-12)


def test_sample_spectrum_marks_degenerate_words():
    samples = sample_spectrum(rotation_rep(), 3)
    assert {s.status for s in samples} == {"skipped"}
    assert {s.reason for s in samples} == {"modulus-collision"}
    with pytest.raises(EmptySampleSet):
        properness_diagnostic(samples)


def test_spectrum_csv_golden():
    samples = sample_spectrum(diag_rep(), 2)
    buf = io.StringIO()
    write_spectrum_csv(samples, 3, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "word,length,jd_1,jd_2,jd_3,m_1,m_2,m_3,status"
    assert lines[1] == ("a,1,0.69314718055994529,0,-0.69314718055994529,"
                        "0.25,-0.125,-0.125,ok")
    assert len(lines) == 5


def test_spectrum_csv_skipped_rows_have_empty_cells():
    samples = sample_spectrum(rotation_rep(), 1)
    buf = io.StringIO()
    write_spectrum_csv(samples, 2, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "a,1,,,,,skipped(modulus-collision)"


def test_properness_verdicts_on_reference_fixtures():
    rep = derivative_cocycle_rep()
    report = properness_diagnostic(sample_spectrum(rep, 5))
    assert report.verdict == "PROPER_CANDIDATE"
    assert report.margin > 1e-2
    assert report.skipped_count == 0

    rep_c, v = coboundary_rep()
    report_c = properness_diagnostic(sample_spectrum(rep_c, 5))
    assert report_c.verdict == "NONPROPER_SIGNATURE"


def test_limit_formula_on_schottky_pair():
    rep = small_cocycle_rep()
    rows = limit_formula_experiment(rep, Word.from_string("a"),
                                    Word.from_string("b"), max_power=16)
    assert [r.power for r in rows] == [1, 2, 4, 8, 16]
    gaps = [r.gap for r in rows]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-6
    # the target never changes across rows
    for r in rows[1:]:
        np.testing.assert_allclose(r.beta_target, rows[0].beta_target,
                                   rtol=0, atol=0)


def test_limit_formula_rejects_shared_axes():
    rep = small_cocycle_rep()
    with pytest.raises(NotTransverse):
        limit_formula_experiment(rep, Word.from_string("a"),
                                 Word.from_string("a"), max_power=2)


def test_limit_formula_converges_on_the_n4_lift():
    # the product a^64 b^64 spans up to about 370 decimal orders at n=4
    rep = lifted_schottky_rep(4)
    rows = limit_formula_experiment(rep, Word.from_string("a"),
                                    Word.from_string("b"), max_power=64)
    assert [r.power for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    assert rows[-1].gap <= 1e-6 * (1 + np.linalg.norm(rows[-1].beta_target))


def test_mp_margulis_rejects_colliding_moduli():
    with mpmath.workdps(30):
        with pytest.raises(ModulusCollision):
            spectra._mp_margulis((-mpmath.eye(2), mpmath.zeros(2)))


def test_limit_formula_zero_cocycle():
    a, b = schottky_pair()
    rep = AffineRepresentation(2, 2, [a, b],
                               [np.zeros((2, 2)), np.zeros((2, 2))])
    rows = limit_formula_experiment(rep, Word.from_string("a"),
                                    Word.from_string("b"), max_power=4)
    for r in rows:
        np.testing.assert_allclose(r.defect, np.zeros(2), rtol=0, atol=1e-10)
        np.testing.assert_allclose(r.beta_target, np.zeros(2), rtol=0, atol=1e-10)


def test_convexity_probe_gap_shrinks():
    rep = small_cocycle_rep()
    rows = convexity_probe(rep, Word.from_string("a"), Word.from_string("b"),
                           1, 2, max_power=8)
    gaps = [r.gap for r in rows]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    scale = 1 + np.linalg.norm(rows[-1].target)
    assert gaps[-1] <= 1e-2 * scale


def test_convexity_probe_reduces_to_limit_normalization():
    # p = q = 1: the normalized invariant is the limit-formula defect plus
    # the linear term, divided by the word-length proxy
    rep = small_cocycle_rep()
    gamma, eta = Word.from_string("a"), Word.from_string("b")
    crows = convexity_probe(rep, gamma, eta, 1, 1, max_power=4)
    lrows = limit_formula_experiment(rep, gamma, eta, max_power=4)
    m_g = margulis_invariant(*eval_affine(rep, gamma))
    m_h = margulis_invariant(*eval_affine(rep, eta))
    for crow, lrow in zip(crows, lrows):
        n = crow.power
        expected = (lrow.defect + n * (m_g + m_h)) / (2 * n)
        np.testing.assert_allclose(crow.normalized, expected, rtol=0, atol=1e-9)


def test_convexity_probe_zero_cocycle():
    a, b = schottky_pair()
    rep = AffineRepresentation(2, 2, [a, b],
                               [np.zeros((2, 2)), np.zeros((2, 2))])
    rows = convexity_probe(rep, Word.from_string("a"), Word.from_string("b"),
                           2, 1, max_power=4)
    for r in rows:
        np.testing.assert_allclose(r.normalized, np.zeros(2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(r.target, np.zeros(2), rtol=0, atol=1e-12)


def test_derivative_experiment_trivial_cases():
    g = np.diag([3.0, 1.0, 1.0 / 3.0])
    x = np.diag([0.5, -0.2, -0.3])
    probe = derivative_experiment(g, x)
    np.testing.assert_allclose(probe.finite_difference, [0.5, -0.2, -0.3],
                               rtol=0, atol=1e-9)
    assert probe.error < 1e-9
    # strictly upper direction does not move the spectrum
    nil = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    probe = derivative_experiment(g, nil)
    np.testing.assert_allclose(probe.finite_difference, np.zeros(3),
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(probe.margulis, np.zeros(3), rtol=0, atol=1e-12)


def test_derivative_experiment_second_order():
    rng = np.random.default_rng(13)
    g = loxodromic(3, rng)
    x = traceless(3, rng)
    coarse = derivative_experiment(g, x, t=1e-3)
    fine = derivative_experiment(g, x, t=5e-4)
    assert fine.error < coarse.error
    assert 3.0 < coarse.error / fine.error < 5.0  # central difference is O(t^2)


def test_anosov_gap_probe_frozen_values():
    rep = lifted_schottky_rep()
    report = anosov_gap_probe(rep, 6)
    np.testing.assert_allclose(report.floor, 1.5287034428829334, rtol=1e-9)
    assert str(report.argmin) == "abaBAb"
    assert len(report.per_root_floor) == rep.n - 1
    short = anosov_gap_probe(rep, 4)
    np.testing.assert_allclose(short.floor, 1.5543680319409003, rtol=1e-9)
    assert str(short.argmin) == "abAB"


def test_anosov_gap_probe_degenerate_reps():
    rep_id = AffineRepresentation(2, 1, [np.eye(2)], [np.zeros((2, 2))])
    assert anosov_gap_probe(rep_id, 3).floor == 0.0
    rep_uni = AffineRepresentation(2, 1, [np.array([[1.0, 1.0], [0.0, 1.0]])],
                                   [np.zeros((2, 2))])
    floors = [anosov_gap_probe(rep_uni, L).floor for L in (1, 2, 3, 4)]
    assert all(f2 < f1 for f1, f2 in zip(floors, floors[1:]))
    np.testing.assert_allclose(floors[0], 0.962424, atol=1e-6)
