"""Command line front end.

Representation files are JSON:

    {"n": 3, "k": 2,
     "generators": [{"rho": [... n*n row-major ...], "u": [...]}, ...],
     "metadata": {"name": "..."}}

Exit codes: 0 success, 1 I/O trouble, 2 schema or invariant violation,
3 numerical degeneracy.  Errors go to stderr as one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fuchsian, numkernel, spectra
from .cartan import Flag
from .freegroup import AffineRepresentation, SchemaError, UnknownLetter, Word, eval_affine
from .invariants import AffineParabolic, cross_ratio, margulis_invariant
from .numkernel import NumericalDegeneracy


# Upper caps on run sizes, each set by a run of a few seconds on 2 shared cores: spectrum
# --max-length 12 on schottky_n2 (2.0 s; with k generators, (2k - 1)^L <= 3^12), limit
# --max-power 4096 on its pair (ab, aB) (3.4 s), lw 800 400 (1.9 s), fuchsian 400 (1.6 s).
MAX_LENGTH, MAX_POWER, MAX_LW_N, MAX_LIFT_N = 12, 4096, 800, 400


def _as_matrix(values, n: int, what: str) -> np.ndarray:
    if not isinstance(values, list) or len(values) != n * n:
        raise SchemaError(f"{what}: expected a flat list of {n * n} numbers")
    try:
        matrix = np.array([float(v) for v in values]).reshape(n, n)
    except (TypeError, ValueError):
        raise SchemaError(f"{what}: entries must be numbers") from None
    if not np.all(np.isfinite(matrix)):
        raise SchemaError(f"{what}: entries must be finite")
    return matrix


def _read_object(path: str, *keys: str) -> dict:
    """The JSON object in a file: it must hold the keys and n, an integer >= 2."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise OSError(f"{path}: not parseable as JSON ({exc})") from None
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    for key in ("n",) + keys:
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    if not (type(data["n"]) is int and data["n"] >= 2):  # a JSON true is no integer here
        raise SchemaError("n must be an integer >= 2")
    return data


def load_rep(path: str, tol: float) -> AffineRepresentation:
    data = _read_object(path, "k", "generators")
    n, k = data["n"], data["k"]
    if not (type(k) is int and k >= 1):
        raise SchemaError("k must be an integer >= 1")
    gens = data["generators"]
    if not isinstance(gens, list) or len(gens) != k:
        raise SchemaError(f"generators: expected a list of {k} entries")
    rho, u = [], []
    for i, gen in enumerate(gens):
        if not isinstance(gen, dict) or "rho" not in gen or "u" not in gen:
            raise SchemaError(f"generator {i}: expected an object with rho and u")
        rho.append(_as_matrix(gen["rho"], n, f"generator {i}: rho"))
        u.append(_as_matrix(gen["u"], n, f"generator {i}: u"))
    return AffineRepresentation(n, k, rho, u, data.get("metadata", {}), tol)


def rep_to_dict(rep: AffineRepresentation) -> dict:
    return {
        "n": rep.n,
        "k": rep.k,
        "generators": [{"rho": [float(v) for v in g.ravel()],
                        "u": [float(v) for v in y.ravel()]}
                       for g, y in zip(rep.rho, rep.u)],
        "metadata": rep.metadata,
    }


def _vec(x) -> list[float]:
    return [float(v) for v in np.asarray(x).ravel()]


def _emit(payload) -> None:
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        raise NumericalDegeneracy("result is not finite") from None
    print(text)


def cmd_validate(args) -> int:
    rep = load_rep(args.rep, args.tolerance)
    _emit({"status": "ok", "n": rep.n, "k": rep.k})
    return 0


def cmd_invariant(args) -> int:
    rep = load_rep(args.rep, args.tolerance)
    word = Word.from_string(args.word, rep.k)
    g, y = eval_affine(rep, word)
    lox = numkernel.eigen_loxodromic(g)
    jordan = np.log(np.abs(lox.eigenvalues))
    margulis = margulis_invariant(g, y, lox=lox)
    _emit({"word": str(word), "jordan": _vec(jordan), "margulis": _vec(margulis),
           "signs": [int(s) for s in np.sign(lox.eigenvalues)]})
    return 0


def cmd_crossratio(args) -> int:
    data = _read_object(args.spaces, "spaces")
    n = data["n"]
    raw = data["spaces"]
    if not isinstance(raw, list) or len(raw) != 4:
        raise SchemaError("spaces: expected a list of exactly 4 entries")
    spaces = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "frame" not in entry or "base" not in entry:
            raise SchemaError(f"space {i}: expected an object with frame and base")
        frame = _as_matrix(entry["frame"], n, f"space {i}: frame")
        base = _as_matrix(entry["base"], n, f"space {i}: base")
        if not numkernel.is_traceless(base, tol=args.tolerance):
            raise SchemaError(f"space {i}: base point is not traceless")
        spaces.append(AffineParabolic(Flag(frame), base))
    beta = cross_ratio(*spaces, tol=args.tolerance)
    _emit({"beta": _vec(beta)})
    return 0


def _sample(args) -> tuple[AffineRepresentation, list]:
    rep = load_rep(args.rep, args.tolerance)
    if (2 * rep.k - 1) ** args.max_length > 3 ** MAX_LENGTH:
        raise SchemaError(f"--max-length {args.max_length} is above the cap for "
                          f"k={rep.k}: (2k-1)^max_length may not exceed 3^{MAX_LENGTH}")
    return rep, spectra.sample_spectrum(rep, args.max_length)


def cmd_spectrum(args) -> int:
    rep, samples = _sample(args)
    if args.out:
        with open(args.out, "w") as handle:
            spectra.write_spectrum_csv(samples, rep.n, handle)
        _emit({"samples": len(samples), "out": args.out})
    else:
        spectra.write_spectrum_csv(samples, rep.n, sys.stdout)
    return 0


def cmd_proper(args) -> int:
    report = spectra.properness_diagnostic(_sample(args)[1])
    _emit({"horizon": report.horizon, "functional": _vec(report.functional),
           "margin": float(report.margin), "skipped_count": report.skipped_count,
           "verdict": report.verdict})
    return 0


def cmd_limit(args) -> int:
    rep = load_rep(args.rep, args.tolerance)
    gamma = Word.from_string(args.gamma, rep.k)
    eta = Word.from_string(args.eta, rep.k)
    rows = spectra.limit_formula_experiment(rep, gamma, eta, max_power=args.max_power)
    _emit([{"power": r.power, "defect": _vec(r.defect),
            "beta_target": _vec(r.beta_target), "gap": float(r.gap)} for r in rows])
    return 0


def cmd_deriv(args) -> int:
    rep = load_rep(args.rep, args.tolerance)
    word = Word.from_string(args.word, rep.k)
    if not 0 <= args.direction < rep.k:
        raise SchemaError(f"direction index {args.direction} outside 0..{rep.k - 1}")
    if not np.isfinite(args.step):
        raise SchemaError(f"step must be finite, got {args.step}")
    g, _ = eval_affine(rep, word)
    probe = spectra.derivative_experiment(g, rep.u[args.direction], t=args.step)
    _emit({"finite_difference": _vec(probe.finite_difference),
           "margulis": _vec(probe.margulis), "error": float(probe.error)})
    return 0


def cmd_lw(args) -> int:
    values = fuchsian.lw_direction_exact(args.n, args.k)
    print(" ".join(str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
                   for v in values))
    return 0


def cmd_fuchsian(args) -> int:
    rep2 = load_rep(args.rep, args.tolerance)
    if rep2.n != 2:
        raise SchemaError(f"expected an n=2 representation file, got n={rep2.n}")
    rho, u = fuchsian.lift_representation(args.n, rep2.rho, rep2.u)
    lifted = AffineRepresentation(args.n, rep2.k, rho, u, rep2.metadata, args.tolerance)
    payload = rep_to_dict(lifted)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        _emit({"n": args.n, "k": rep2.k, "out": args.out})
    else:
        _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinv",
        description="Margulis invariants and affine cross ratios for SL(n,R) actions")
    parser.add_argument("--tolerance", type=float, default=numkernel.DEFAULT_TOL,
                        help="relative tolerance for validation and transversality")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a representation file")
    p.add_argument("rep")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariant", help="Jordan projection and Margulis invariant of a word")
    p.add_argument("rep")
    p.add_argument("word")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("crossratio", help="affine cross ratio of four spaces from a JSON file")
    p.add_argument("spaces")
    p.set_defaults(func=cmd_crossratio)

    p = sub.add_parser("spectrum", help="CSV spectrum over conjugacy classes")
    p.add_argument("rep")
    p.add_argument("--max-length", type=int, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("proper", help="properness diagnostic over a sampled spectrum")
    p.add_argument("rep")
    p.add_argument("--max-length", type=int, default=6)
    p.set_defaults(func=cmd_proper)

    p = sub.add_parser("limit", help="cross-ratio limit formula experiment")
    p.add_argument("rep")
    p.add_argument("gamma")
    p.add_argument("eta")
    p.add_argument("--max-power", type=int, default=16)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("deriv", help="Jordan derivative vs Margulis invariant")
    p.add_argument("rep")
    p.add_argument("word")
    p.add_argument("direction", type=int, help="generator index whose u supplies the direction")
    p.add_argument("step", type=float, nargs="?", default=1e-4)
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("lw", help="closed-form deformation direction (exact)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_lw)

    p = sub.add_parser("fuchsian", help="lift an n=2 representation irreducibly to SL(n)")
    p.add_argument("n", type=int)
    p.add_argument("rep")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fuchsian)

    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (np.isfinite(args.tolerance) and args.tolerance > 0.0):
        return _fail(2, "SchemaError",
                     f"--tolerance must be finite and positive, got {args.tolerance}")
    for size, cap in (("max_length", MAX_LENGTH), ("max_power", MAX_POWER)):
        value = getattr(args, size, 1)  # of spectrum, proper and limit
        if not 1 <= value <= cap:
            return _fail(2, "SchemaError",
                         f"--{size.replace('_', '-')} must be in 1..{cap}, got {value}")
    cap = {"lw": MAX_LW_N, "fuchsian": MAX_LIFT_N}.get(args.command)
    if cap is not None and args.n > cap:
        return _fail(2, "SchemaError", f"{args.command}: n must be at most {cap}, got {args.n}")
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(1, "io", str(exc))
    except (SchemaError, UnknownLetter, fuchsian.OutOfRange,
            fuchsian.DegenerateParameters, fuchsian.NotUnimodular) as exc:
        return _fail(2, type(exc).__name__, str(exc))
    except NumericalDegeneracy as exc:
        return _fail(3, type(exc).__name__, str(exc))
    except spectra.EmptySampleSet as exc:
        return _fail(3, "EmptySampleSet", str(exc))


if __name__ == "__main__":
    sys.exit(main())
