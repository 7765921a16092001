"""Spectrum sampling, properness diagnostics, limit and convexity probes."""

import dataclasses
import functools
import io
import math
import warnings

import mpmath
import numpy as np
import pytest

from affinv import cartan, fuchsian, numkernel, spectra
from affinv.cartan import NotTransverse, omega0
from affinv.freegroup import (AffineRepresentation, Word, _mul, _pow, _product,
                              cyclic_reduce, enumerate_conjugacy_reps, eval_affine)
from affinv.invariants import margulis_invariant
from affinv.numkernel import (ComplexSpectrum, ModulusCollision,
                              NumericalDegeneracy, Singular)
from affinv.spectra import (EmptySampleSet, SpectrumSample, anosov_gap_probe,
                            convexity_probe, derivative_experiment,
                            limit_formula_experiment, properness_diagnostic,
                            sample_spectrum, write_spectrum_csv)
from helpers import (LN3, coboundary_rep, derivative_cocycle_rep,
                     lifted_schottky_rep, loxodromic, mp_letter_table, nnls_nearest_point,
                     schottky_fixture_rep, schottky_pair, small_cocycle_rep,
                     traceless)


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


def test_sample_spectrum_skips_products_beyond_float64():
    # at lam = 60 every word of length 5 is past the float64 limit; the
    # shorter words must still be sampled
    a, b = fuchsian.schottky_generators(60.0, np.pi / 2)
    rep = AffineRepresentation(2, 2, [a, b], [np.diag([0.3, -0.3]),
                                              np.array([[0.0, 0.2], [0.2, 0.0]])])
    samples = sample_spectrum(rep, 5)
    assert all(s.status == "ok" for s in samples if s.length <= 4)
    longest = [s for s in samples if s.length == 5]
    assert len(longest) == 52
    assert {(s.status, s.reason) for s in longest} == {("skipped", "singular")}


def batch_of_one_spectrum(rep, max_length):
    """The reference for sample_spectrum: each word on its own through
    eval_affine, eigen_loxodromic and margulis_invariant."""
    reasons = {ComplexSpectrum: "complex-spectrum",
               ModulusCollision: "modulus-collision", Singular: "singular"}
    samples = []
    for word in enumerate_conjugacy_reps(rep.k, max_length):
        try:
            g, y = eval_affine(rep, word)
            lox = numkernel.eigen_loxodromic(g)
            m = margulis_invariant(g, y, lox=lox)
        except NumericalDegeneracy as exc:
            samples.append(SpectrumSample(word, len(word), None, None, "skipped",
                                          reasons[type(exc)]))
            continue
        samples.append(SpectrumSample(word, len(word), np.log(np.abs(lox.eigenvalues)),
                                      m, "ok"))
    return samples


@pytest.mark.parametrize("make_rep, max_length, skipped", [
    (schottky_fixture_rep, 8, 0),
    (lambda: lifted_schottky_rep(3), 8, 0),
    (lambda: lifted_schottky_rep(4), 6, 24),  # products beyond float64 refused first
], ids=["schottky_n2-8", "lift3-8", "lift4-6"])
def test_sample_spectrum_is_bytewise_the_batch_of_one(make_rep, max_length, skipped):
    rep = make_rep()
    batched = sample_spectrum(rep, max_length)
    reference = batch_of_one_spectrum(rep, max_length)
    assert sum(s.status != "ok" for s in batched) == skipped
    assert [(s.word, s.length, s.status, s.reason) for s in batched] == \
        [(s.word, s.length, s.status, s.reason) for s in reference]
    for s, r in zip(batched, reference):
        if s.status == "ok":
            assert np.array_equal(s.jordan, r.jordan) and np.array_equal(s.margulis, r.margulis)
    csv_batched, csv_reference = io.StringIO(), io.StringIO()
    write_spectrum_csv(batched, rep.n, csv_batched)
    write_spectrum_csv(reference, rep.n, csv_reference)
    assert csv_batched.getvalue() == csv_reference.getvalue()


def test_spectrum_csv_golden():
    samples = sample_spectrum(diag_rep(), 2)
    buf = io.StringIO()
    write_spectrum_csv(samples, 3, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "word,length,jd_1,jd_2,jd_3,m_1,m_2,m_3,status"
    assert lines[1] == ("a,1,0.69314718055994529,0,-0.69314718055994529,"
                        "0.25,-0.125,-0.125,ok")
    assert len(lines) == 5


def test_spectrum_csv_cells_are_the_float64_values_formatted_one_by_one():
    samples = sample_spectrum(schottky_fixture_rep(), 8)
    assert {s.status for s in samples} == {"ok"}
    buf = io.StringIO()
    write_spectrum_csv(samples, 2, buf)
    lines = ["word,length,jd_1,jd_2,m_1,m_2,status"]
    for s in samples:
        cells = [format(float(v), ".17g") for v in s.jordan] \
            + [format(float(v), ".17g") for v in s.margulis]
        lines.append(",".join([str(s.word), str(s.length)] + cells + ["ok"]))
    assert buf.getvalue() == "\n".join(lines) + "\n"


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


def per_sample_properness(samples, tau_proper=1e-3, tau_zero=1e-6):
    """(verdict, margin, functional, skipped_count) with one normalization
    and one norm per sample: the reference for properness_diagnostic."""
    ok = [s for s in samples if s.status == "ok"]
    n = len(ok[0].margulis)
    horizon = max(s.length for s in samples)
    normalized = np.array([s.margulis / s.length for s in ok])
    basis = spectra._zero_sum_basis(n)
    nearest = numkernel.nearest_point(normalized @ basis.T)
    distance = np.linalg.norm(nearest)
    functional = basis[0] if distance == 0.0 else (nearest / distance) @ basis
    margin = float(np.min(normalized @ functional))
    if any(np.linalg.norm(s.margulis) / s.length < tau_zero and s.length >= horizon / 2
           for s in ok):
        verdict = "NONPROPER_SIGNATURE"
    else:
        verdict = "PROPER_CANDIDATE" if margin > tau_proper else "INCONCLUSIVE"
    return verdict, margin, functional, sum(s.status != "ok" for s in samples)


@pytest.mark.parametrize("make_rep, max_length, verdict, skipped", [
    (schottky_fixture_rep, 8, "PROPER_CANDIDATE", 0),
    (lambda: lifted_schottky_rep(4), 6, "INCONCLUSIVE", 24),
    (lambda: coboundary_rep()[0], 5, "NONPROPER_SIGNATURE", 0),
], ids=["schottky_n2-8", "lift4-6", "coboundary-5"])
def test_properness_diagnostic_is_the_per_sample_computation(make_rep, max_length,
                                                             verdict, skipped, monkeypatch):
    samples = sample_spectrum(make_rep(), max_length)
    report = properness_diagnostic(samples)
    ref_verdict, ref_margin, ref_functional, ref_skipped = per_sample_properness(samples)
    assert (report.verdict, report.skipped_count) == (ref_verdict, ref_skipped) \
        == (verdict, skipped)
    assert np.float64(report.margin).tobytes() == np.float64(ref_margin).tobytes()
    assert report.functional.tobytes() == ref_functional.tobytes()
    # the signature check flips exactly at the least normalized norm of the
    # words of some length, so a norm off by one ulp changes the verdict
    floors = {}
    for s in samples:
        if s.status == "ok":
            norm = np.linalg.norm(s.margulis) / s.length
            floors[s.length] = min(floors.get(s.length, np.inf), norm)
    for floor in floors.values():
        for tau_zero in (floor, np.nextafter(floor, np.inf)):
            monkeypatch.setattr(spectra, "TAU_ZERO", tau_zero)
            assert properness_diagnostic(samples).verdict == \
                per_sample_properness(samples, tau_zero=tau_zero)[0]


def test_properness_margin_is_exact_on_the_diagonal_rep():
    # M(a) = (1/4, -1/8, -1/8) and M(A) = (1/8, 1/8, -1/4) for every power:
    # the hull is their segment, whose nearest point to 0 is its midpoint
    report = properness_diagnostic(sample_spectrum(diag_rep(), 6))
    assert abs(report.margin - 0.375 / math.sqrt(2.0)) <= 1e-12
    np.testing.assert_allclose(report.functional, np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0),
                               rtol=0, atol=1e-12)
    assert report.verdict == "PROPER_CANDIDATE"


@pytest.mark.parametrize("n, max_length, verdict", [
    (4, 6, "INCONCLUSIVE"), (5, 5, "PROPER_CANDIDATE"), (6, 4, "PROPER_CANDIDATE")])
def test_properness_margin_on_the_lifts_is_the_hull_distance(n, max_length, verdict):
    samples = sample_spectrum(lifted_schottky_rep(n), max_length)
    report = properness_diagnostic(samples)
    normalized = np.array([s.margulis / s.length for s in samples if s.status == "ok"])
    # float64 invariants of these lifts are zero-sum only to within 4e-4
    nearest = nnls_nearest_point(normalized - normalized.mean(axis=1, keepdims=True))
    assert abs(report.margin - np.linalg.norm(nearest)) <= 1e-8
    np.testing.assert_allclose(report.functional, nearest / np.linalg.norm(nearest),
                               rtol=0, atol=1e-6)
    assert abs(report.functional.sum()) <= 1e-14
    assert report.verdict == verdict


def test_properness_of_a_zero_cocycle_is_quiet():
    rep = schottky_fixture_rep()
    rep = AffineRepresentation(2, 2, rep.rho, [np.zeros((2, 2))] * 2)
    samples = sample_spectrum(rep, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = properness_diagnostic(samples)
    assert report.functional.tobytes() == (np.array([1.0, -1.0]) / math.sqrt(2.0)).tobytes()
    assert (report.margin, report.verdict) == (0.0, "NONPROPER_SIGNATURE")


@pytest.mark.parametrize("max_length", [5, 6])
def test_properness_with_0_in_the_hull_reports_no_rounding_residue(max_length):
    # on the n=3 lift 0 lies in the hull (the float64 nearest point is ~1e-18):
    # the functional is (e_1 - e_2)/sqrt(2), not the direction of that residue
    samples = sample_spectrum(lifted_schottky_rep(3), max_length)
    normalized = np.array([s.margulis / s.length for s in samples if s.status == "ok"])
    assert np.linalg.norm(nnls_nearest_point(normalized)) <= 1e-12
    report = properness_diagnostic(samples)
    functional = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert report.functional.tobytes() == functional.tobytes()
    assert report.margin == float(np.min(normalized @ functional))
    assert abs(report.margin + 0.07499865439059965) <= 1e-12
    assert report.verdict == "INCONCLUSIVE"


@pytest.mark.parametrize("length, signature", [(2, False), (3, True), (6, True)])
def test_properness_signature_needs_a_word_of_half_the_horizon(length, signature):
    samples = sample_spectrum(schottky_fixture_rep(), 6)
    i = next(i for i, s in enumerate(samples) if s.length == length)
    samples[i] = dataclasses.replace(samples[i], margulis=samples[i].margulis * 1e-9)
    verdict = properness_diagnostic(samples).verdict
    assert verdict == per_sample_properness(samples)[0]
    assert (verdict == "NONPROPER_SIGNATURE") == signature


def test_limit_formula_evaluates_each_word_once(monkeypatch):
    calls = []
    monkeypatch.setattr(spectra, "eval_affine",
                        lambda rep, word: calls.append(word) or eval_affine(rep, word))
    gamma, eta = Word.from_string("ab"), Word.from_string("B")
    limit_formula_experiment(schottky_fixture_rep(), gamma, eta, max_power=4)
    assert calls == [gamma, eta]
    calls.clear()
    convexity_probe(schottky_fixture_rep(), gamma, eta, 1, 2, max_power=4)
    assert calls == [gamma, eta]


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


def per_row_margulis(rep, words, powers):
    """M(prod_i words[i]^powers[i]), its product formed on its own at its own
    a priori digits: the per-row computation that the one-pass limit and
    convexity experiments replace, kept here as their reference."""
    spread = sum(m * np.ptp(cartan.cartan_projection(eval_affine(rep, w)[0]))
                 for w, m in zip(words, powers))
    with mpmath.workdps(40 + math.ceil(spread / math.log(10))):
        table = mp_letter_table(rep)
        total = functools.reduce(_mul, [_pow(_product(table, w.letters), m)
                                        for w, m in zip(words, powers)])
        return spectra._mp_margulis(total)


@pytest.mark.parametrize("make_rep, gamma, eta, max_power, powers", [
    *[(schottky_fixture_rep, g, h, 64, [1, 2, 4, 8, 16, 32, 64])
      for g, h in (("a", "b"), ("ab", "B"), ("aB", "b"), ("aa", "b"), ("bb", "a"))],
    (lambda: lifted_schottky_rep(3), "a", "b", 32, [1, 2, 4, 8, 16, 32]),
    (schottky_fixture_rep, "ab", "B", 10, [1, 2, 4, 8]),
    (schottky_fixture_rep, "ab", "B", 1, [1]),
], ids=["a-b", "ab-B", "aB-b", "aa-b", "bb-a", "lift3-a-b", "max-power-10", "max-power-1"])
def test_limit_formula_is_bitwise_the_per_row_computation(make_rep, gamma, eta,
                                                          max_power, powers):
    rep = make_rep()
    g, h = Word.from_string(gamma), Word.from_string(eta)
    rows = limit_formula_experiment(rep, g, h, max_power=max_power)
    assert [r.power for r in rows] == powers
    for r in rows:
        m = r.power
        defect = per_row_margulis(rep, [g, h], [m, m]) - per_row_margulis(rep, [g], [m]) \
            - per_row_margulis(rep, [h], [m])
        assert r.defect.tobytes() == defect.tobytes()
        assert r.gap == float(np.linalg.norm(defect - r.beta_target))


@pytest.mark.parametrize("p, q", [(1, 2), (2, 1)])
def test_convexity_probe_is_bitwise_the_per_row_computation(p, q):
    rep = schottky_fixture_rep()
    g, h = Word.from_string("ab"), Word.from_string("B")
    rows = convexity_probe(rep, g, h, p, q, max_power=8)
    assert [r.power for r in rows] == [1, 2, 4, 8]
    for r in rows:
        m = r.power
        value = per_row_margulis(rep, [g, h], [p * m, q * m]) \
            / len(cyclic_reduce(g ** (p * m) * h ** (q * m)))
        assert r.normalized.tobytes() == value.tobytes()
        assert r.gap == float(np.linalg.norm(value - r.target))


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
