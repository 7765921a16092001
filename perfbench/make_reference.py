"""Write the 60-digit reference the `spectrum` and `query` workloads check against.

For every conjugacy class of the free group on two letters with cyclically
reduced length <= 10, evaluate the affine pair of `fixtures/schottky_n2.json`
in mpmath at 60 digits and store the top Jordan coordinate `jd1` and the top
Margulis coordinate `m1` (at n = 2 both vectors are zero-sum, so one
coordinate fixes each), together with the properness margin and verdict these
values imply.  The words are enumerated here independently of the program.

Run from the repository root:

    python3 perfbench/make_reference.py

It takes about a minute and rewrites `perfbench/reference/spectrum_h10.json.gz`.
"""

from __future__ import annotations

import gzip
import json
import os

import mpmath

HORIZON = 10
DPS = 60
FIXTURE = os.path.join("fixtures", "schottky_n2.json")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                   "spectrum_h10.json.gz")

# Letter order of the program's enumeration: a < A < b < B.
ALPHABET = "aAbB"


def _inverse(ch: str) -> str:
    return ch.swapcase()


def conjugacy_reps(max_length: int) -> list[str]:
    """Lexicographically least rotation of every cyclically reduced word, in
    length-then-lexicographic order."""
    rank = {ch: i for i, ch in enumerate(ALPHABET)}

    def key(word: str):
        return [rank[ch] for ch in word]

    out = []

    def extend(prefix: str, length: int):
        if len(prefix) == length:
            if prefix[0] != _inverse(prefix[-1]):
                rotations = [prefix[i:] + prefix[:i] for i in range(length)]
                if key(prefix) == min(key(r) for r in rotations):
                    out.append(prefix)
            return
        for ch in ALPHABET:
            if prefix and ch == _inverse(prefix[-1]):
                continue
            extend(prefix + ch, length)

    for length in range(1, max_length + 1):
        for ch in ALPHABET:
            extend(ch, length)
    return out


def _generators():
    with open(FIXTURE) as handle:
        data = json.load(handle)
    gens = {}
    for i, gen in enumerate(data["generators"]):
        g = mpmath.matrix(2, 2)
        y = mpmath.matrix(2, 2)
        for idx in range(4):
            g[idx // 2, idx % 2] = mpmath.mpf(gen["rho"][idx])
            y[idx // 2, idx % 2] = mpmath.mpf(gen["u"][idx])
        ginv = g ** -1
        letter = ALPHABET[2 * i]
        gens[letter] = (g, y)
        gens[_inverse(letter)] = (ginv, -(ginv * y * g))
    return gens


def _evaluate(gens, word: str):
    g = mpmath.eye(2)
    y = mpmath.zeros(2)
    for ch in word:
        g2, y2 = gens[ch]
        y = y + g * y2 * g ** -1
        g = g * g2
    return g, y


def _eigenvector(g, lam):
    p, q, r, s = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    first = (q, lam - p)
    second = (lam - s, r)
    pick = first if abs(first[0]) + abs(first[1]) >= abs(second[0]) + abs(second[1]) \
        else second
    return mpmath.matrix([[pick[0]], [pick[1]]])


def jordan_margulis(g, y):
    """(jd1, m1) of a 2x2 loxodromic pair: log of the larger eigenvalue
    modulus and the matching diagonal entry of y in the eigenframe."""
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    root = mpmath.sqrt(tr * tr - 4 * det)
    lam1 = (tr + root) / 2 if tr >= 0 else (tr - root) / 2
    lam2 = det / lam1
    h = mpmath.matrix(2, 2)
    for col, lam in enumerate((lam1, lam2)):
        v = _eigenvector(g, lam)
        h[0, col], h[1, col] = v[0], v[1]
    w = h ** -1 * y * h
    return mpmath.log(abs(lam1)), w[0, 0]


def main() -> None:
    words = conjugacy_reps(HORIZON)
    with mpmath.workdps(DPS):
        gens = _generators()
        jd1, m1 = [], []
        for word in words:
            j, m = jordan_margulis(*_evaluate(gens, word))
            jd1.append(j)
            m1.append(m)
        # At n = 2 every candidate functional of properness_diagnostic is
        # +-(1, -1)/sqrt(2), and its pairing with (m1, -m1)/len is
        # +-sqrt(2) m1/len.
        rates = [mpmath.sqrt(2) * m / len(w) for m, w in zip(m1, words)]
        margin = max(min(rates), -max(rates))
        degenerate = any(abs(m) * mpmath.sqrt(2) / len(w) < 1e-6
                         and len(w) >= HORIZON / 2 for m, w in zip(m1, words))
    verdict = ("NONPROPER_SIGNATURE" if degenerate
               else "PROPER_CANDIDATE" if margin > 1e-3 else "INCONCLUSIVE")
    payload = {
        "fixture": FIXTURE,
        "horizon": HORIZON,
        "dps": DPS,
        "verdict": verdict,
        "margin": float(margin),
        "words": words,
        "jd1": [float(v) for v in jd1],
        "m1": [float(v) for v in m1],
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with gzip.GzipFile(OUT, "wb", mtime=0) as handle:
        handle.write(json.dumps(payload, separators=(",", ":")).encode())
    print(f"{len(words)} words, margin {float(margin):.17g}, {verdict} -> {OUT}")


if __name__ == "__main__":
    main()
