"""Words in a free group and their evaluation in the affine group
SL(n,R) x sl(n,R), where the linear part acts by conjugation.

Letters are nonzero integers: generator i (0-based) is i+1, its inverse is
-(i+1).  The string form uses 'a'..'z' for generators and 'A'..'Z' for
inverses, as in "abA".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL


class UnknownLetter(Exception):
    pass


def _letter_key(letter: int) -> tuple[int, int]:
    # Lexicographic order of letters: a < A < b < B < ...
    return (abs(letter), 0 if letter > 0 else 1)


def reduce_letters(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence by stack cancellation."""
    stack: list[int] = []
    for letter in letters:
        letter = int(letter)
        if letter == 0:
            raise UnknownLetter("0 is not a letter")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  The constructor reduces whatever it is given."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_letters(self.letters))

    @classmethod
    def from_string(cls, text: str, k: int | None = None) -> "Word":
        letters = []
        for ch in text:
            if ch.isspace():
                continue
            if "a" <= ch <= "z":
                idx = ord(ch) - ord("a") + 1
                letters.append(idx)
            elif "A" <= ch <= "Z":
                idx = ord(ch) - ord("A") + 1
                letters.append(-idx)
            else:
                raise UnknownLetter(f"unknown letter {ch!r}")
            if k is not None and idx > k:
                raise UnknownLetter(f"letter {ch!r} needs {idx} generators, rep has {k}")
        return cls(tuple(letters))

    def __str__(self) -> str:
        chars = []
        for letter in self.letters:
            idx = abs(letter) - 1
            if idx >= 26:
                raise UnknownLetter("string form only supports 26 generators")
            chars.append(chr((ord("a") if letter > 0 else ord("A")) + idx))
        return "".join(chars)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __pow__(self, m: int) -> "Word":
        if m < 0:
            return self.inverse() ** (-m)
        out = Word()
        for _ in range(m):
            out = out * self
        return out

    def sort_key(self):
        return (len(self.letters), tuple(_letter_key(l) for l in self.letters))


def cyclic_reduce(word: Word) -> Word:
    """Strip cancelling ends until the word is cyclically reduced."""
    letters = list(word.letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return Word(tuple(letters))


def _min_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    return min(rotations, key=lambda t: tuple(_letter_key(l) for l in t))


def enumerate_conjugacy_reps(k: int, max_length: int):
    """Yield one representative per conjugacy class of cyclically reduced
    length 1..max_length: the lexicographically minimal rotation, in
    length-then-lex order.  Classes of w and w^{-1} are both emitted.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    alphabet = sorted([i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)],
                      key=_letter_key)

    def extend(prefix: list[int], length: int):
        if len(prefix) == length:
            if prefix[0] != -prefix[-1]:  # cyclically reduced
                letters = tuple(prefix)
                if letters == _min_rotation(letters):
                    yield Word(letters)
            return
        for letter in alphabet:
            if prefix and letter == -prefix[-1]:
                continue
            prefix.append(letter)
            yield from extend(prefix, length)
            prefix.pop()

    for length in range(1, max_length + 1):
        for letter in alphabet:
            yield from extend([letter], length)


@dataclass
class AffineRepresentation:
    """Generator images (rho_i, u_i) with rho_i in SL(n,R) and u_i traceless."""

    n: int
    k: int
    rho: list[np.ndarray]
    u: list[np.ndarray]
    metadata: dict = field(default_factory=dict)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.rho) != self.k or len(self.u) != self.k:
            raise ValueError(f"expected {self.k} generators, got {len(self.rho)} rho / {len(self.u)} u")
        self.rho = [np.asarray(g, dtype=float).reshape(self.n, self.n) for g in self.rho]
        self.u = [np.asarray(y, dtype=float).reshape(self.n, self.n) for y in self.u]
        for i, (g, y) in enumerate(zip(self.rho, self.u)):
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(y))):
                raise ValueError(f"generator {i}: rho and u must be finite")
            if not numkernel.is_unimodular(g, tol=self.tol):
                raise ValueError(f"generator {i}: rho is not unimodular (det {np.linalg.det(g):.12g})")
            if not numkernel.is_traceless(y, tol=self.tol):
                raise ValueError(f"generator {i}: u is not traceless (trace {np.trace(y):.12g})")
        limit = numkernel.PRODUCT_CONDITION_LIMIT
        self._letters = _letter_table([(g, numkernel.inverse(g, condition_limit=limit), y)
                                       for g, y in zip(self.rho, self.u)])


# An affine pair (g, Y) is the map X -> g X g^{-1} + Y on sl(n,R).  Products
# are formed on triples (g, g^{-1}, Y), so that no product ever needs a
# solve.  The triple law uses only @, + and unary -, and serves numpy float64
# arrays and mpmath matrices alike.

def _mul(t1, t2):
    g1, h1, y1 = t1
    g2, h2, y2 = t2
    return g1 @ g2, h2 @ h1, y1 + g1 @ y2 @ h1


def _inv(t):
    g, h, y = t
    return h, g, -(h @ y @ g)


def _pow(t, m: int):
    """t^m by repeated squaring, for m >= 1."""
    result = None
    while True:
        if m & 1:
            result = t if result is None else _mul(result, t)
        m >>= 1
        if not m:
            return result
        t = _mul(t, t)


def _letter_table(triples) -> dict:
    """{letter: triple} for generator triples and their inverses."""
    table = {}
    for i, t in enumerate(triples):
        table[i + 1] = t
        table[-(i + 1)] = _inv(t)
    return table


def _product(table: dict, letters):
    """Left-to-right product of the triples of a nonempty letter sequence."""
    try:
        triples = [table[letter] for letter in letters]
    except KeyError as exc:
        raise UnknownLetter(f"letter {exc.args[0]} outside alphabet of size "
                            f"{len(table) // 2}") from None
    return functools.reduce(_mul, triples)


def affine_identity(n: int):
    return np.eye(n), np.zeros((n, n))


def affine_mul(pair1, pair2):
    g1, y1 = pair1
    g2, y2 = pair2
    return g1 @ g2, y1 + numkernel.adjoint(g1, y2)


def affine_inv(pair):
    g, y = pair
    ginv, _, yinv = _inv((g, numkernel.inverse(g), y))
    return ginv, yinv


def affine_pow(pair, m: int):
    """(g,Y)^m by repeated squaring; m may be negative."""
    if m == 0:
        return affine_identity(pair[0].shape[0])
    g, y = pair
    t = (g, numkernel.inverse(g), y)
    g, _, y = _pow(t if m > 0 else _inv(t), abs(m))
    return g, y


def eval_affine(rep: AffineRepresentation, word: Word):
    """Evaluate a word: left-to-right product of generator pairs.  Raises
    Singular when the product is too ill-conditioned for float64."""
    if not word.letters:
        return affine_identity(rep.n)
    g, h, y = _product(rep._letters, word.letters)
    if not np.linalg.norm(g) * np.linalg.norm(h) < numkernel.PRODUCT_CONDITION_LIMIT:
        raise numkernel.Singular(f"a word of length {len(word)} is too ill-conditioned "
                                 "for float64")
    return g, y
