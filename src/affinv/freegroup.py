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


class SchemaError(ValueError):
    """Representation data that break the schema (the command line's exit 2)."""


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


# the string form of each letter, and back
_CHARS = {sign * (i + 1): chr((ord("a") if sign > 0 else ord("A")) + i)
          for i in range(26) for sign in (1, -1)}
_LETTERS = {ch: letter for letter, ch in _CHARS.items()}


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  The constructor reduces whatever it is given."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_letters(self.letters))

    @classmethod
    def _reduced(cls, letters: tuple[int, ...]) -> "Word":
        """The word of a tuple of int letters that is already freely reduced."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    @classmethod
    def from_string(cls, text: str, k: int | None = None) -> "Word":
        letters = []
        for ch in text:
            if ch.isspace():
                continue
            if ch not in _LETTERS:
                raise UnknownLetter(f"unknown letter {ch!r}")
            letters.append(_LETTERS[ch])
            if k is not None and abs(letters[-1]) > k:
                raise UnknownLetter(f"letter {ch!r} needs {abs(letters[-1])} generators, "
                                    f"rep has {k}")
        return cls(tuple(letters))

    def __str__(self) -> str:
        try:
            return "".join([_CHARS[letter] for letter in self.letters])
        except KeyError:
            raise UnknownLetter("string form only supports 26 generators") from None

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __pow__(self, m: int) -> "Word":
        if m < 0:
            return self.inverse() ** (-m)
        return Word(self.letters * m)

    def sort_key(self):
        return (len(self.letters), tuple(_rank(l) for l in self.letters))


def cyclic_reduce(word: Word) -> Word:
    """Strip cancelling ends until the word is cyclically reduced."""
    letters = list(word.letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return Word(tuple(letters))


def _alphabet(k: int) -> list[int]:
    """The letters by rank: alphabet[r] has rank r."""
    return sorted((l for l in range(-k, k + 1) if l), key=_rank)


def _necklace_levels(k: int, max_length: int, table=None):
    """Yield (words, triples) for t = 1..max_length, where words are the
    freely and cyclically reduced necklaces of length t over the letter ranks,
    in lexicographic order.  With a table (g, g^{-1}, Y) of stacks indexed by
    rank, triples stacks the same components of their products, shape
    (N, n, n) each; without one it is None.

    This walks the Fredricksen-Kessler-Maiorana tree (Ruskey, Savage & Wang,
    "Generating necklaces", J. Algorithms 1992) one level at a time.  The
    frontier holds every freely reduced prenecklace of length t, the length
    of its longest Lyndon prefix (its period) and its product, in
    lexicographic order; a child appends one rank to its parent and costs one
    multiply, so the products are eval_affine's left folds, byte for byte.
    """
    def necklaces(t, ranks, period):
        # a prenecklace is a necklace when its period divides its length
        return (t % period == 0) & (ranks[:, 0] != ranks[:, -1] ^ 1)

    alphabet = np.array(_alphabet(k))
    candidates = np.arange(2 * k, dtype=np.min_scalar_type(2 * k))
    ranks, period, triples = candidates[:, None], np.ones(2 * k, dtype=int), table
    for t in range(1, max_length + 1):
        keep = necklaces(t, ranks, period)
        yield ([Word._reduced(tuple(row)) for row in alphabet[ranks[keep]].tolist()],
               None if table is None else tuple(c[keep] for c in triples))
        if t == max_length:
            return
        least = ranks[np.arange(len(ranks)), t - period]
        # no extension of a cancelling prefix is reduced
        parent, r = np.nonzero((candidates >= least[:, None])
                               & (candidates != ranks[:, -1:] ^ 1))
        ranks = np.column_stack([ranks[parent], candidates[r]])
        period = np.where(r == least[parent], period[parent], t + 1)
        if t + 1 == max_length:  # the last level is not extended: keep its necklaces only
            last = necklaces(t + 1, ranks, period)
            parent, r, ranks, period = parent[last], r[last], ranks[last], period[last]
        if table is not None:
            triples = _mul(tuple(c[parent] for c in triples), tuple(c[r] for c in table))


def enumerate_conjugacy_reps(k: int, max_length: int):
    """Yield one representative per conjugacy class of cyclically reduced
    length 1..max_length: the lexicographically minimal rotation, in
    length-then-lex order.  Classes of w and w^{-1} are both emitted.

    These are the freely and cyclically reduced necklaces over the letter
    ranks, generated directly (see _necklace_levels); no word is evaluated.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    for words, _ in _necklace_levels(k, max_length):
        yield from words


def evaluate_conjugacy_reps(rep: AffineRepresentation, max_length: int):
    """The representatives of enumerate_conjugacy_reps(rep.k, max_length)
    with their products, one length at a time: yields (words, g, y, reasons)
    for each length, where g and y stack the products of the words, shape
    (N, n, n), and reasons[i] is the Singular that eval_affine raises for a
    product beyond float64, or None.

    Each level of the necklace tree is one stacked multiply of its parents'
    products by their appended letters (see _necklace_levels).
    """
    table = tuple(map(np.stack, zip(*(rep._letters[l] for l in _alphabet(rep.k)))))
    for words, (g, h, y) in _necklace_levels(rep.k, max_length, table):
        yield words, g, y, _refusals(g, h, len(words[0]))


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
            raise SchemaError(f"expected {self.k} generators, got {len(self.rho)} rho / {len(self.u)} u")
        self.rho = [np.asarray(g, dtype=float).reshape(self.n, self.n) for g in self.rho]
        self.u = [np.asarray(y, dtype=float).reshape(self.n, self.n) for y in self.u]
        for i, (g, y) in enumerate(zip(self.rho, self.u)):
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(y))):
                raise SchemaError(f"generator {i}: rho and u must be finite")
            with np.errstate(over="ignore"):  # a determinant beyond float64 is not 1
                if not numkernel.is_unimodular(g, tol=self.tol):
                    raise SchemaError(f"generator {i}: rho is not unimodular (det {np.linalg.det(g):.12g})")
            if not numkernel.is_traceless(y, tol=self.tol):
                raise SchemaError(f"generator {i}: u is not traceless (trace {np.trace(y):.12g})")
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
