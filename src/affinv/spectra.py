"""Spectrum sampling over conjugacy classes, properness diagnostics, and the
desk-scale experiments: the defect/limit formula for the affine cross ratio,
convexity of normalized invariants, the derivative identity for the Jordan
projection, and singular-value gap probes.

The limit and convexity experiments evaluate Margulis invariants of words
like g^16 h^16 whose translation parts are astronomically larger than the
invariant itself (the diagonal part survives a cancellation of ~50 orders of
magnitude at lam=3, N=16).  Those two experiments therefore form the power
words with the same affine group law in mpmath, at a precision fixed in
advance from the Cartan projections of the base words; everything else is
float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import cartan, numkernel
from .freegroup import (AffineRepresentation, Word, _letter_table, _mul, _pow,
                        _product, cyclic_reduce, enumerate_conjugacy_reps,
                        eval_affine)
from .invariants import affine_fixed_parabolics, cross_ratio, margulis_invariant
from .numkernel import ComplexSpectrum, ModulusCollision, Singular


class EmptySampleSet(Exception):
    pass


@dataclass(frozen=True)
class SpectrumSample:
    word: Word
    length: int
    jordan: np.ndarray | None
    margulis: np.ndarray | None
    status: str            # "ok" or "skipped"
    reason: str | None = None


def _sample_one(rep: AffineRepresentation, word: Word) -> SpectrumSample:
    g, y = eval_affine(rep, word)
    try:
        lox = numkernel.eigen_loxodromic(g)
    except ComplexSpectrum:
        return SpectrumSample(word, len(word), None, None, "skipped", "complex-spectrum")
    except ModulusCollision:
        return SpectrumSample(word, len(word), None, None, "skipped", "modulus-collision")
    except Singular:
        return SpectrumSample(word, len(word), None, None, "skipped", "singular")
    jd = np.log(np.abs(lox.eigenvalues))
    m = margulis_invariant(g, y, lox=lox)
    return SpectrumSample(word, len(word), jd, m, "ok")


def sample_spectrum(rep: AffineRepresentation, max_length: int) -> list[SpectrumSample]:
    """Jordan projections and Margulis invariants over all conjugacy class
    representatives of cyclic length <= max_length, in deterministic
    enumeration order.  Non-loxodromic words are recorded as skipped, never
    dropped."""
    return [_sample_one(rep, w) for w in enumerate_conjugacy_reps(rep.k, max_length)]


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_spectrum_csv(samples, n: int, stream) -> None:
    """CSV with header word,length,jd_1..jd_n,m_1..m_n,status; skipped words
    get empty numeric cells and a skipped(reason) status."""
    header = ["word", "length"] + [f"jd_{i+1}" for i in range(n)] \
        + [f"m_{i+1}" for i in range(n)] + ["status"]
    stream.write(",".join(header) + "\n")
    for s in samples:
        if s.status == "ok":
            cells = [_fmt(v) for v in s.jordan] + [_fmt(v) for v in s.margulis]
            status = "ok"
        else:
            cells = [""] * (2 * n)
            status = f"skipped({s.reason})"
        stream.write(",".join([str(s.word), str(s.length)] + cells + [status]) + "\n")


# ---------------------------------------------------------------------------
# Properness diagnostics

@dataclass(frozen=True)
class PropernessReport:
    horizon: int
    functional: np.ndarray
    margin: float
    skipped_count: int
    verdict: str           # PROPER_CANDIDATE | NONPROPER_SIGNATURE | INCONCLUSIVE


def _zero_sum_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace (rows), Helmert style."""
    basis = np.zeros((n - 1, n))
    for i in range(1, n):
        basis[i - 1, :i] = 1.0
        basis[i - 1, i] = -float(i)
        basis[i - 1] /= math.sqrt(i * (i + 1))
    return basis


def _sphere_grid(dim: int, resolution: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dim == 3:
        # Fibonacci sphere: deterministic, near-uniform.
        idx = np.arange(resolution, dtype=float) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * idx
        z = 1.0 - 2.0 * idx / resolution
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((resolution, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _simple_root_functionals(n: int) -> list[np.ndarray]:
    out = []
    for i in range(n - 1):
        f = np.zeros(n)
        f[i], f[i + 1] = 1.0, -1.0
        out.append(f / np.linalg.norm(f))
    return out


def properness_diagnostic(samples, *, functionals=None, horizon: int | None = None,
                          tau_proper: float = 1e-3, tau_zero: float = 1e-6,
                          grid_resolution: int = 1000) -> PropernessReport:
    """Search for a unit dual functional whose pairing with every sampled
    length-normalized Margulis invariant stays above a margin.

    Candidates are the simple-root functionals, a hull-support direction
    fitted on a finite dual-sphere grid, and any user-supplied extras (all
    normalized).  A word of length >= horizon/2 with normalized invariant
    below tau_zero is a non-properness signature and wins over any margin.
    """
    samples = list(samples)
    ok = [s for s in samples if s.status == "ok"]
    if not ok:
        raise EmptySampleSet("no usable samples")
    n = len(ok[0].margulis)
    if horizon is None:
        horizon = max(s.length for s in samples)

    normalized = np.array([s.margulis / s.length for s in ok])

    candidates = _simple_root_functionals(n)
    basis = _zero_sum_basis(n)
    grid = _sphere_grid(n - 1, grid_resolution) @ basis
    pairings = normalized @ grid.T
    hull = grid[int(np.argmax(pairings.min(axis=0)))]
    candidates.append(hull)
    if functionals is not None:
        for f in functionals:
            f = np.asarray(f, dtype=float)
            candidates.append(f / np.linalg.norm(f))

    margins = [float(np.min(normalized @ f)) for f in candidates]
    best = int(np.argmax(margins))
    margin = margins[best]
    functional = candidates[best]

    skipped = sum(1 for s in samples if s.status != "ok")
    degenerate = any(np.linalg.norm(s.margulis) / s.length < tau_zero
                     and s.length >= horizon / 2 for s in ok)
    if degenerate:
        verdict = "NONPROPER_SIGNATURE"
    elif margin > tau_proper:
        verdict = "PROPER_CANDIDATE"
    else:
        verdict = "INCONCLUSIVE"
    return PropernessReport(horizon=horizon, functional=functional,
                            margin=margin, skipped_count=skipped, verdict=verdict)


# ---------------------------------------------------------------------------
# Extended-precision evaluation for power words

def _mp_margulis(pair) -> np.ndarray:
    g, y = pair
    n = g.rows
    values, vectors = mpmath.eig(g)
    scale = max(abs(v) for v in values)
    for v in values:
        if abs(mpmath.im(v)) > 1e-12 * scale:
            raise ComplexSpectrum("power word left the real-split locus")
    order = sorted(range(n), key=lambda i: -abs(values[i]))
    moduli = [abs(values[i]) for i in order]
    for big, small in zip(moduli, moduli[1:]):
        if big - small <= numkernel.MODULUS_GAP_TOL * small:
            raise ModulusCollision("power word has colliding eigenvalue moduli")
    frame = mpmath.matrix(n, n)
    for col, i in enumerate(order):
        for row in range(n):
            frame[row, col] = mpmath.re(vectors[row, i])
    w = frame ** -1 * y * frame
    return np.array([float(mpmath.re(w[i, i])) for i in range(n)])


def _margulis_of_power_pair(rep, base_words, powers):
    """Margulis invariants of prod_i base_words[i]**powers[i] (powers >= 1).

    The invariant survives a cancellation by a factor of at most exp(s),
    s = sum_i m_i (k_1 - k_n)(w_i) with k the Cartan projection: k_1 is
    subadditive and k_n superadditive, so g X g^{-1} grows by at most exp(s)
    over the product.  The product is therefore formed once, at s / ln 10
    digits plus 40 guard digits, with the same triple law as float64 word
    evaluation."""
    spread = sum(m * np.ptp(cartan.cartan_projection(eval_affine(rep, w)[0]))
                 for w, m in zip(base_words, powers))
    with mpmath.workdps(40 + math.ceil(spread / math.log(10))):
        gens = []
        for g, y in zip(rep.rho, rep.u):
            g = mpmath.matrix(g.tolist())
            gens.append((g, g ** -1, mpmath.matrix(y.tolist())))
        table = _letter_table(gens)
        total = functools.reduce(_mul, [_pow(_product(table, w.letters), m)
                                        for w, m in zip(base_words, powers)])
        return _mp_margulis((total[0], total[2]))


# ---------------------------------------------------------------------------
# Experiments

@dataclass(frozen=True)
class LimitRow:
    power: int
    defect: np.ndarray
    beta_target: np.ndarray
    gap: float


def limit_formula_experiment(rep: AffineRepresentation, gamma: Word, eta: Word,
                             max_power: int = 16) -> list[LimitRow]:
    """Defect M(g^m h^m) - M(g^m) - M(h^m) against the affine cross ratio of
    the fixed affine parabolic spaces beta(g+, h+, g-, h-), for m doubling up
    to max_power.  Rejects pairs whose four fixed flags are not pairwise
    transverse (in particular eta = gamma)."""
    pair_g = eval_affine(rep, gamma)
    pair_h = eval_affine(rep, eta)
    g_plus, g_minus = affine_fixed_parabolics(*pair_g)
    h_plus, h_minus = affine_fixed_parabolics(*pair_h)
    beta = cross_ratio(g_plus, h_plus, g_minus, h_minus)

    rows = []
    m = 1
    while m <= max_power:
        m_gh = _margulis_of_power_pair(rep, [gamma, eta], [m, m])
        m_g = _margulis_of_power_pair(rep, [gamma], [m])
        m_h = _margulis_of_power_pair(rep, [eta], [m])
        defect = m_gh - m_g - m_h
        rows.append(LimitRow(power=m, defect=defect, beta_target=beta,
                             gap=float(np.linalg.norm(defect - beta))))
        m *= 2
    return rows


@dataclass(frozen=True)
class ConvexityRow:
    power: int
    normalized: np.ndarray
    target: np.ndarray
    gap: float


def convexity_probe(rep: AffineRepresentation, gamma: Word, eta: Word,
                    p: int, q: int, max_power: int = 8) -> list[ConvexityRow]:
    """Length-normalized invariant of g^(pm) h^(qm) against the convex
    combination of the normalized invariants of g and h."""
    len_g = len(cyclic_reduce(gamma))
    len_h = len(cyclic_reduce(eta))
    m_g = margulis_invariant(*eval_affine(rep, gamma))
    m_h = margulis_invariant(*eval_affine(rep, eta))
    target = (p * m_g + q * m_h) / (p * len_g + q * len_h)

    rows = []
    m = 1
    while m <= max_power:
        word = gamma ** (p * m) * eta ** (q * m)
        length = len(cyclic_reduce(word))
        value = _margulis_of_power_pair(rep, [gamma, eta], [p * m, q * m]) / length
        rows.append(ConvexityRow(power=m, normalized=value, target=target,
                                 gap=float(np.linalg.norm(value - target))))
        m *= 2
    return rows


@dataclass(frozen=True)
class DerivativeProbe:
    finite_difference: np.ndarray
    margulis: np.ndarray
    error: float


def derivative_experiment(g, x, t: float = 1e-4) -> DerivativeProbe:
    """Central finite difference of the Jordan projection along g exp(t x)
    against the Margulis invariant M(g, x)."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    jd_plus = cartan.jordan_projection(g @ numkernel.matrix_exp(t * x))
    jd_minus = cartan.jordan_projection(g @ numkernel.matrix_exp(-t * x))
    fd = (jd_plus - jd_minus) / (2.0 * t)
    m = margulis_invariant(g, x)
    return DerivativeProbe(finite_difference=fd, margulis=m,
                           error=float(np.linalg.norm(fd - m)))


@dataclass(frozen=True)
class AnosovGapReport:
    per_root_floor: np.ndarray
    per_root_argmin: list
    floor: float
    argmin: Word


def anosov_gap_probe(rep: AffineRepresentation, max_length: int) -> AnosovGapReport:
    """Minimal length-normalized singular value gaps (kappa_i - kappa_{i+1})/l
    over all conjugacy representatives; a positive floor across all roots is
    sampled evidence of a uniform gap."""
    n = rep.n
    floors = np.full(n - 1, np.inf)
    argmins: list[Word | None] = [None] * (n - 1)
    seen = False
    for word in enumerate_conjugacy_reps(rep.k, max_length):
        seen = True
        g, _ = eval_affine(rep, word)
        kappa = cartan.cartan_projection(g)
        rates = (kappa[:-1] - kappa[1:]) / len(word)
        for i in range(n - 1):
            if rates[i] < floors[i]:
                floors[i] = rates[i]
                argmins[i] = word
    if not seen:
        raise EmptySampleSet("no words up to the requested length")
    worst = int(np.argmin(floors))
    return AnosovGapReport(per_root_floor=floors, per_root_argmin=argmins,
                           floor=float(floors[worst]), argmin=argmins[worst])
