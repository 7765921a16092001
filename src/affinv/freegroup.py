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


def _rank(letter: int) -> int:
    """Position of a letter in the order a < A < b < B < ...: rank r ^ 1 is
    the inverse of rank r."""
    return 2 * abs(letter) - 1 - (letter > 0)


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
        return (len(self.letters), tuple(_rank(l) for l in self.letters))


def cyclic_reduce(word: Word) -> Word:
    """Strip cancelling ends until the word is cyclically reduced."""
    letters = list(word.letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return Word(tuple(letters))


def _walk_necklaces(k: int, max_length: int, visit, step=None) -> None:
    """Call visit(ranks, value) for every freely and cyclically reduced
    necklace over the letter ranks of length 1..max_length, depth first, so
    in lexicographic order within each length.

    This is the Fredricksen-Kessler-Maiorana recursion (Ruskey, Savage &
    Wang, "Generating necklaces", J. Algorithms 1992).  With a step, value is
    the left fold step(...step(step(None, r1), r2)..., rt) over the ranks,
    formed once per tree node and held only along the current path; without
    one it is None.
    """
    def extend(ranks: list[int], period: int, value):
        # ranks is a freely reduced prenecklace whose longest Lyndon prefix
        # has length period; it is a necklace when period divides its length.
        t = len(ranks)
        if t % period == 0 and ranks[0] != ranks[-1] ^ 1:
            visit(ranks, value)
        if t < max_length:
            least = ranks[t - period]
            for r in range(least, 2 * k):
                if r != ranks[-1] ^ 1:  # no extension of a cancelling prefix is reduced
                    extend(ranks + [r], period if r == least else t + 1,
                           None if step is None else step(value, r))

    for r in range(2 * k):
        extend([r], 1, None if step is None else step(None, r))


def _alphabet(k: int) -> list[int]:
    """The letters by rank: alphabet[r] has rank r."""
    return sorted((l for l in range(-k, k + 1) if l), key=_rank)


def enumerate_conjugacy_reps(k: int, max_length: int):
    """Yield one representative per conjugacy class of cyclically reduced
    length 1..max_length: the lexicographically minimal rotation, in
    length-then-lex order.  Classes of w and w^{-1} are both emitted.

    These are the freely and cyclically reduced necklaces over the letter
    ranks, generated directly (see _walk_necklaces); no word is evaluated.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    if max_length < 1:
        return
    alphabet = _alphabet(k)
    by_length: list[list[Word]] = [[] for _ in range(max_length + 1)]
    _walk_necklaces(k, max_length, lambda ranks, _: by_length[len(ranks)].append(
        Word(tuple(alphabet[r] for r in ranks))))
    for words in by_length:
        yield from words


def evaluate_conjugacy_reps(rep: AffineRepresentation, max_length: int):
    """The representatives of enumerate_conjugacy_reps(rep.k, max_length)
    with their products, one length at a time: yields (words, g, y, reasons)
    for each length, where g and y stack the products of the words, shape
    (N, n, n), and reasons[i] is the Singular that eval_affine raises for a
    product beyond float64, or None.

    Each product costs one multiply, from the product of its prefix in the
    necklace tree; the fold is eval_affine's, so the bytes are the same.
    """
    if max_length < 1:
        return
    alphabet = _alphabet(rep.k)
    table = [rep._letters[letter] for letter in alphabet]
    words: list[list[Word]] = [[] for _ in range(max_length + 1)]
    # stacks[t][c, i] is component c of (g, g^{-1}, Y) of the i-th word of length t
    stacks = [np.empty((3, 16, rep.n, rep.n)) for _ in range(max_length + 1)]

    def step(triple, r):
        return table[r] if triple is None else _mul(triple, table[r])

    def visit(ranks, triple):
        t = len(ranks)
        i = len(words[t])
        words[t].append(Word(tuple(alphabet[r] for r in ranks)))
        if i == stacks[t].shape[1]:
            stacks[t] = np.concatenate([stacks[t], np.empty_like(stacks[t])], axis=1)
        for c in range(3):
            stacks[t][c, i] = triple[c]

    _walk_necklaces(rep.k, max_length, visit, step)
    for t in range(1, max_length + 1):
        g, h, y = stacks[t][:, :len(words[t])]
        stacks[t] = None
        yield words[t], g, y, _refusals(g, h, t)


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


def _refusals(g: np.ndarray, h: np.ndarray, length: int) -> list:
    """Per product of a stack: Singular once |g|_F |g^{-1}|_F reaches
    numkernel.PRODUCT_CONDITION_LIMIT, where float64 can no longer tell g from
    a singular matrix and its small eigenvalues are noise; else None."""
    g = g.reshape(len(g), -1)
    h = h.reshape(len(h), -1)
    # vecdot matches the BLAS dot behind np.linalg.norm
    usable = np.sqrt(np.vecdot(g, g)) * np.sqrt(np.vecdot(h, h)) < numkernel.PRODUCT_CONDITION_LIMIT
    return [None if ok else numkernel.Singular(f"a word of length {length} is too "
                                               "ill-conditioned for float64")
            for ok in usable.tolist()]


def eval_affine(rep: AffineRepresentation, word: Word):
    """Evaluate a word: left-to-right product of generator pairs.  Raises
    Singular when the product is too ill-conditioned for float64."""
    if not word.letters:
        return affine_identity(rep.n)
    g, h, y = _product(rep._letters, word.letters)
    reason = _refusals(g[None], h[None], len(word))[0]
    if reason is not None:
        raise reason
    return g, y
