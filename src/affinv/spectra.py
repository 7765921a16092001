"""Spectrum sampling over conjugacy classes, properness diagnostics, and the
desk-scale experiments: the defect/limit formula for the affine cross ratio,
convexity of normalized invariants, the derivative identity for the Jordan
projection, and singular-value gap probes.

The limit and convexity experiments need Margulis invariants of words like
g^16 h^16, whose translation parts dwarf the invariant (its diagonal survives
a cancellation of ~50 orders of magnitude at lam=3, N=16).  Each runs as one
mpmath pass with the affine group law of float64 word evaluation, at a
precision fixed in advance for its top row: the powers are carried from row
to row by squaring, and M(g^m) = m M(g) spares the eigensolves of g^m and
h^m.  Everything else is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import cartan, numkernel
from .freegroup import (AffineRepresentation, Word, _letter_table, _mul, _pow,
                        _product, cyclic_reduce, eval_affine, evaluate_conjugacy_reps)
from .invariants import (affine_fixed_parabolics, cross_ratio, margulis_invariant,
                         margulis_invariant_stack)
from .numkernel import ModulusCollision, Singular


class EmptySampleSet(Exception):
    pass


_SKIP_REASONS = {type(None): None, ModulusCollision: "modulus-collision", Singular: "singular"}


def sample_spectrum(rep: AffineRepresentation, max_length: int) -> np.recarray:
    """Jordan projections and Margulis invariants over all conjugacy class
    representatives of cyclic length <= max_length: one record per word, in
    deterministic enumeration order, with fields word, length, jordan,
    margulis, status ("ok" or "skipped") and reason (None or the skip name).
    Non-loxodromic words, products beyond float64 and eigenframes too
    ill-conditioned to solve against are recorded as skipped, with NaN
    numbers, never dropped.  Each length is one stacked evaluation: one
    eigendecomposition and one solve over all its words."""
    dtype = np.dtype([("word", object), ("length", int), ("jordan", float, (rep.n,)),
                      ("margulis", float, (rep.n,)), ("status", "U7"), ("reason", object)],
                     align=True)
    parts = [np.empty(0, dtype)]
    for words, g, y, reasons in evaluate_conjugacy_reps(rep, max_length):
        lox, reasons = numkernel.eigen_loxodromic_stack(g, reasons)
        margulis, reasons = margulis_invariant_stack(lox.frame, y, reasons)
        skipped = np.array([reason is not None for reason in reasons])
        part = np.empty(len(words), dtype)
        part["word"] = words
        part["length"] = len(words[0])
        with np.errstate(divide="ignore"):  # rows of skipped words may hold zeros
            jordan = np.log(np.abs(lox.eigenvalues))
        part["jordan"] = np.where(skipped[:, None], np.nan, jordan)
        part["margulis"] = np.where(skipped[:, None], np.nan, margulis)
        part["status"] = np.where(skipped, "skipped", "ok")
        part["reason"] = [_SKIP_REASONS[type(reason)] for reason in reasons]
        parts.append(part)
    return np.concatenate(parts).view(np.recarray)


def write_spectrum_csv(samples: np.recarray, n: int, stream) -> None:
    """CSV with header word,length,jd_1..jd_n,m_1..m_n,status; skipped words
    get empty numeric cells and a skipped(reason) status."""
    header = ["word", "length"] + [f"jd_{i+1}" for i in range(n)] \
        + [f"m_{i+1}" for i in range(n)] + ["status"]
    stream.write(",".join(header) + "\n")
    ok_row = "%s,%d," + "%.17g," * (2 * n) + "ok\n"
    values = np.concatenate([samples.jordan, samples.margulis], axis=1).tolist()
    for word, length, row, reason in zip(samples.word, samples.length.tolist(), values,
                                         samples.reason):
        if reason is None:
            stream.write(ok_row % (word, length, *row))
        else:
            stream.write(f"{word},{length},{',' * (2 * n)}skipped({reason})\n")


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
    i = np.arange(1.0, n)[:, None]  # row i - 1: i ones, then -i
    return (np.tril(np.ones((n - 1, n))) - i * np.eye(n - 1, n, 1)) / np.sqrt(i * (i + 1))


TAU_PROPER = 1e-3  # a margin above this makes a PROPER_CANDIDATE
TAU_ZERO = 1e-6    # a normalized invariant below this is a NONPROPER_SIGNATURE


def properness_diagnostic(samples: np.recarray) -> PropernessReport:
    """Properness verdict on a sampled spectrum.  p is the point of the convex
    hull of the length-normalized Margulis invariants nearest 0, found in the
    zero-sum subspace's orthonormal coordinates; the functional is p/|p|
    ((e_1 - e_2)/sqrt(2) when p = 0) and the margin its least pairing with the
    invariants: dist(0, hull) when 0 lies outside the hull, never above |p|.
    A word of length >= horizon/2 (the longest sample) with normalized norm
    below TAU_ZERO is a NONPROPER_SIGNATURE; else a margin above TAU_PROPER
    makes a PROPER_CANDIDATE, and anything else is INCONCLUSIVE."""
    ok = samples.status == "ok"
    if not ok.any():
        raise EmptySampleSet("no usable samples")
    horizon = int(samples.length.max())
    margulis = samples.margulis[ok]
    lengths = samples.length[ok].astype(float)
    normalized = margulis / lengths[:, None]

    basis = _zero_sum_basis(margulis.shape[1])
    nearest = numkernel.nearest_point(normalized @ basis.T)
    distance = np.linalg.norm(nearest)
    functional = basis[0] if distance == 0.0 else (nearest / distance) @ basis
    margin = float(np.min(normalized @ functional))

    # vecdot matches the BLAS dot behind np.linalg.norm
    norms = np.sqrt(np.vecdot(margulis, margulis)) / lengths
    if np.any((norms < TAU_ZERO) & (lengths >= horizon / 2)):
        verdict = "NONPROPER_SIGNATURE"
    elif margin > TAU_PROPER:
        verdict = "PROPER_CANDIDATE"
    else:
        verdict = "INCONCLUSIVE"
    return PropernessReport(horizon=horizon, functional=functional,
                            margin=margin, skipped_count=len(samples) - len(lengths),
                            verdict=verdict)


# ---------------------------------------------------------------------------
# Extended-precision evaluation for power words

def _mp_margulis(pair) -> np.ndarray:
    """The Margulis invariant of an mpmath pair (g, Y), or of a triple
    (g, g^{-1}, Y), rounded to float64.  Colliding eigenvalue moduli raise
    ModulusCollision; a complex conjugate pair has equal moduli."""
    g, *_, y = pair
    n = g.rows
    values, vectors = mpmath.eig(g)
    order = sorted(range(n), key=lambda i: -abs(values[i]))
    moduli = [abs(values[i]) for i in order]
    for big, small in zip(moduli, moduli[1:]):
        if big - small <= numkernel.MODULUS_GAP_TOL * small:
            raise ModulusCollision("power word has colliding eigenvalue moduli")
    frame = mpmath.matrix([[mpmath.re(vectors[row, i]) for i in order] for row in range(n)])
    w = frame ** -1 * y * frame
    return np.array([float(mpmath.re(w[i, i])) for i in range(n)])


def _power_word_margulis(rep, gamma, eta, pairs, p: int, q: int, max_power: int):
    """(M(g^p), M(h^q), [M(g^(pm) h^(qm)) for m = 1, 2, 4, ... <= max_power]),
    where g and h evaluate gamma and eta, in one mpmath pass: the generators
    are converted once, and g^(pm), h^(qm) carried by one squaring a row.
    pairs holds the float64 eval_affine of gamma and eta.

    The invariant survives a cancellation by a factor of at most exp(s),
    s = sum_i m_i (k_1 - k_n)(w_i) with k the Cartan projection (k_1 is
    subadditive, k_n superadditive), so the pass runs at the top row's
    s / ln 10 plus 40 guard digits."""
    rows = max(max_power, 0).bit_length()
    top = 1 << max(rows - 1, 0)
    spread = sum(m * np.ptp(cartan.cartan_projection(g))
                 for (g, _), m in zip(pairs, [p * top, q * top]))
    with mpmath.workdps(40 + math.ceil(spread / math.log(10))):
        gens = [mpmath.matrix(g.tolist()) for g in rep.rho]
        table = _letter_table([(g, g ** -1, mpmath.matrix(y.tolist())) for g, y in zip(gens, rep.u)])
        tg, th = (_pow(_product(table, w.letters), k) for w, k in ((gamma, p), (eta, q)))
        m_g, m_h = _mp_margulis(tg), _mp_margulis(th)
        products = []
        for i in range(rows):
            if i:
                tg, th = _mul(tg, tg), _mul(th, th)
            products.append(_mp_margulis(_mul(tg, th)))
    return m_g, m_h, products


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

    # M(g^m) = m M(g): g^m has the eigenframe F of g, and the translation
    # part sum_i g^i Y g^-i of (g, Y)^m has the diagonal m diag(F^-1 Y F) in
    # it.  m is a power of two, so scaling the rounded M(g) is exact.
    m_g, m_h, products = _power_word_margulis(rep, gamma, eta, (pair_g, pair_h),
                                              1, 1, max_power)
    rows = []
    for i, m_gh in enumerate(products):
        m = 1 << i
        defect = m_gh - m * m_g - m * m_h
        rows.append(LimitRow(power=m, defect=defect, beta_target=beta,
                             gap=float(np.linalg.norm(defect - beta))))
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
    pairs = eval_affine(rep, gamma), eval_affine(rep, eta)
    m_gp, m_hq, products = _power_word_margulis(rep, gamma, eta, pairs, p, q, max_power)
    target = (m_gp + m_hq) / (p * len_g + q * len_h)

    rows = []
    for i, m_gh in enumerate(products):
        m = 1 << i
        value = m_gh / len(cyclic_reduce(gamma ** (p * m) * eta ** (q * m)))
        rows.append(ConvexityRow(power=m, normalized=value, target=target,
                                 gap=float(np.linalg.norm(value - target))))
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
    products = [g @ numkernel.matrix_exp(t * x), g @ numkernel.matrix_exp(-t * x)]
    for product in products:  # past the float64 limit its Jordan projection is noise
        numkernel.inverse(product, condition_limit=numkernel.PRODUCT_CONDITION_LIMIT)
    jd_plus, jd_minus = map(cartan.jordan_projection, products)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 gives NaN
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
    for words, g, _, reasons in evaluate_conjugacy_reps(rep, max_length):
        seen = True
        refused = next((reason for reason in reasons if reason is not None), None)
        if refused is not None:
            raise refused
        kappa = cartan.cartan_projection(g)
        rates = (kappa[:, :-1] - kappa[:, 1:]) / len(words[0])
        best = np.argmin(rates, axis=0)  # the first word attaining each minimum
        for i in range(n - 1):
            if rates[best[i], i] < floors[i]:
                floors[i] = rates[best[i], i]
                argmins[i] = words[best[i]]
    if not seen:
        raise EmptySampleSet("no words up to the requested length")
    worst = int(np.argmin(floors))
    return AnosovGapReport(per_root_floor=floors, per_root_argmin=argmins,
                           floor=float(floors[worst]), argmin=argmins[worst])
