"""Word arithmetic, conjugacy enumeration, and the affine evaluation cocycle."""

import itertools

import numpy as np
import pytest

from affinv import numkernel
from affinv.freegroup import (AffineRepresentation, UnknownLetter, Word,
                              affine_identity, affine_inv, affine_mul,
                              affine_pow, cyclic_reduce,
                              enumerate_conjugacy_reps, eval_affine,
                              evaluate_conjugacy_reps, reduce_letters)
from affinv.invariants import margulis_invariant
from helpers import (lifted_schottky_rep, schottky_fixture_rep, schottky_pair,
                     traceless, unimodular)


def brute_conjugacy_reps(k, max_length):
    """All reduced words up to max_length, deduplicated by cyclic rotation.

    Deliberately dumb: product over the alphabet, filter free reduction and
    cyclic reduction, keep the minimal rotation of each class.
    """
    alphabet = [i for j in range(1, k + 1) for i in (j, -j)]
    reps = set()
    for length in range(1, max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if any(x == -y for x, y in zip(letters, letters[1:])):
                continue
            if letters[0] == -letters[-1] and length > 1:
                continue
            rotations = [letters[i:] + letters[:i] for i in range(length)]
            reps.add(min(rotations, key=lambda t: Word(t).sort_key()))
    return reps


def test_parse_str_roundtrip():
    w = Word.from_string("abAB")
    assert w.letters == (1, 2, -1, -2)
    assert str(w) == "abAB"
    assert str(Word.from_string("")) == ""
    assert Word.from_string("cC", k=3).letters == ()


def test_str_reads_one_char_per_letter():
    letters = tuple(range(1, 27)) + tuple(range(-1, -27, -1))
    expected = "".join(chr((ord("a") if l > 0 else ord("A")) + abs(l) - 1) for l in letters)
    assert str(Word(letters)) == expected
    assert Word.from_string(expected).letters == letters
    for letter in (27, -27):
        with pytest.raises(UnknownLetter):
            str(Word((1, letter)))


def test_unknown_letter_rejected():
    with pytest.raises(UnknownLetter):
        Word.from_string("c", k=2)
    with pytest.raises(UnknownLetter):
        Word.from_string("a!b")


def test_free_reduction():
    assert reduce_letters((1, -1)) == ()
    assert reduce_letters((1, 2, -2, -1)) == ()
    assert reduce_letters((1, 2, -2, 1)) == (1, 1)
    # reduction happens on construction
    assert Word((1, -1, 2)).letters == (2,)


def test_group_laws():
    rng = np.random.default_rng(0)
    letters = [1, 2, -1, -2, 3]
    for trial in range(20):
        w1 = Word(tuple(int(l) for l in rng.choice(letters, size=rng.integers(0, 6))))
        w2 = Word(tuple(int(l) for l in rng.choice(letters, size=rng.integers(0, 6))))
        assert (w1 * w1.inverse()).letters == ()
        assert (w1 * w2).inverse() == w2.inverse() * w1.inverse()
    w = Word.from_string("abA")
    assert w ** 3 == w * w * w
    assert w ** 0 == Word(())
    assert w ** -2 == (w.inverse()) ** 2


def test_cyclic_reduce():
    assert cyclic_reduce(Word.from_string("abA")).letters == (2,)
    assert cyclic_reduce(Word.from_string("aBbA")).letters == ()
    assert cyclic_reduce(Word.from_string("ab")).letters == (1, 2)


def test_sort_key_order():
    words = [Word.from_string(s) for s in ("b", "A", "aa", "a", "B")]
    ordered = sorted(words, key=lambda w: w.sort_key())
    assert [str(w) for w in ordered] == ["a", "A", "b", "B", "aa"]


def test_enumeration_small_counts():
    reps = list(enumerate_conjugacy_reps(2, 1))
    assert [str(w) for w in reps] == ["a", "A", "b", "B"]
    # reduced words of length exactly 2 over k=2: 4 * 3 = 12
    count = sum(1 for letters in itertools.product([1, -1, 2, -2], repeat=2)
                if letters[0] != -letters[1])
    assert count == 12


def test_enumeration_matches_brute_force():
    for k, L in ((2, 3), (3, 2)):
        got = {w.letters for w in enumerate_conjugacy_reps(k, L)}
        expected = brute_conjugacy_reps(k, L)
        assert got == expected
        assert all(len(w) <= L for w in map(Word, got))


@pytest.mark.parametrize("k,longest", [(1, 6), (2, 7), (3, 4)])
def test_enumeration_order_matches_brute_force(k, longest):
    # same classes in the same length-then-lex order, each exactly once
    for max_length in range(1, longest + 1):
        got = [w.letters for w in enumerate_conjugacy_reps(k, max_length)]
        expected = sorted(brute_conjugacy_reps(k, max_length),
                          key=lambda t: Word(t).sort_key())
        assert got == expected
        assert len(set(got)) == len(got)


def test_enumeration_words_are_cyclically_reduced_min_rotations():
    for w in enumerate_conjugacy_reps(2, 4):
        assert cyclic_reduce(w) == w
        rotations = [w.letters[i:] + w.letters[:i] for i in range(len(w))]
        assert min(Word(r).sort_key() for r in rotations) == w.sort_key()


@pytest.mark.parametrize("k,max_length", [(1, 6), (2, 6), (3, 4)])
def test_enumerated_words_are_the_reducing_constructor(k, max_length):
    # the walk builds its words without re-reducing them
    for w in enumerate_conjugacy_reps(k, max_length):
        assert all(type(l) is int for l in w.letters)
        assert w == Word(w.letters) and hash(w) == hash(Word(w.letters))


def random_rep_k3():
    rng = np.random.default_rng(7)
    return AffineRepresentation(3, 3, [unimodular(3, rng, 0.5) for _ in range(3)],
                                [traceless(3, rng) for _ in range(3)])


@pytest.mark.parametrize("make_rep, max_length", [
    (random_rep_k3, 5), (schottky_fixture_rep, 10),
], ids=["random-k3-5", "schottky_n2-10"])
def test_evaluate_conjugacy_reps_is_bytewise_eval_affine(make_rep, max_length):
    # each level's stacked multiply gives the bytes of the word-by-word fold,
    # also where the tree branches beyond four ranks (k = 3)
    rep = make_rep()
    levels = list(evaluate_conjugacy_reps(rep, max_length))
    assert [w for words, *_ in levels for w in words] == \
        list(enumerate_conjugacy_reps(rep.k, max_length))
    for words, g, y, reasons in levels:
        assert g.shape == y.shape == (len(words), rep.n, rep.n)
        for word, gi, yi, reason in zip(words, g, y, reasons):
            try:
                ref_g, ref_y = eval_affine(rep, word)
            except numkernel.Singular:
                assert isinstance(reason, numkernel.Singular)
                continue
            assert reason is None
            assert gi.tobytes() == ref_g.tobytes() and yi.tobytes() == ref_y.tobytes()


def test_representation_validation():
    a, b = schottky_pair()
    with pytest.raises(ValueError):
        AffineRepresentation(2, 2, [a], [np.zeros((2, 2))] * 2)
    with pytest.raises(ValueError, match="unimodular"):
        AffineRepresentation(2, 1, [2 * np.eye(2)], [np.zeros((2, 2))])
    with pytest.raises(ValueError, match="traceless"):
        AffineRepresentation(2, 1, [a], [np.eye(2)])


def test_representation_rejects_non_finite_entries():
    a, _ = schottky_pair()
    for bad in (np.inf, -np.inf, np.nan):
        y = np.zeros((2, 2))
        y[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            AffineRepresentation(2, 1, [a], [y])
        g = a.copy()
        g[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            AffineRepresentation(2, 1, [g], [np.zeros((2, 2))])


def test_eval_affine_long_power_on_the_n3_lift():
    # cond(a^8) is about 2e15 here: evaluation must not need a guarded solve
    rep = lifted_schottky_rep(3)
    g, y = eval_affine(rep, Word.from_string("aaaaaaaa"))
    m1 = margulis_invariant(*eval_affine(rep, Word.from_string("a")))
    m8 = margulis_invariant(g, y)
    np.testing.assert_allclose(m8, 8 * m1, rtol=0,
                               atol=1e-8 * (1 + np.linalg.norm(m8)))


def test_eval_affine_refuses_products_beyond_float64():
    # float64 cannot hold (ab)^15: its computed product has determinant
    # about -8e4 instead of 1, so its Jordan projection would be noise
    a, b = schottky_pair()
    rep = AffineRepresentation(2, 2, [a, b], [np.zeros((2, 2))] * 2)
    eval_affine(rep, Word.from_string("ab" * 10))
    with pytest.raises(numkernel.Singular):
        eval_affine(rep, Word.from_string("ab" * 15))


def test_affine_group_laws():
    rng = np.random.default_rng(1)
    n = 3
    pairs = [(unimodular(n, rng), traceless(n, rng)) for _ in range(3)]
    p, q, r = pairs
    # associativity
    left = affine_mul(affine_mul(p, q), r)
    right = affine_mul(p, affine_mul(q, r))
    np.testing.assert_allclose(left[0], right[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(left[1], right[1], rtol=0, atol=1e-12)
    # inverse
    ident = affine_mul(p, affine_inv(p))
    np.testing.assert_allclose(ident[0], np.eye(n), rtol=0, atol=1e-10)
    np.testing.assert_allclose(ident[1], np.zeros((n, n)), rtol=0, atol=1e-10)
    # powers through repeated squaring agree with naive products
    acc = affine_identity(n)
    for m in range(1, 6):
        acc = affine_mul(acc, p)
        pm = affine_pow(p, m)
        np.testing.assert_allclose(pm[0], acc[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(pm[1], acc[1], rtol=0, atol=1e-10)
    neg = affine_pow(p, -3)
    ref = affine_inv(affine_pow(p, 3))
    np.testing.assert_allclose(neg[0], ref[0], rtol=0, atol=1e-10)
    np.testing.assert_allclose(neg[1], ref[1], rtol=0, atol=1e-10)


def test_eval_affine_is_a_homomorphism():
    rng = np.random.default_rng(2)
    a, b = schottky_pair()
    rep = AffineRepresentation(2, 2, [a, b],
                               [traceless(2, rng), traceless(2, rng)])
    for s1, s2 in (("ab", "Ab"), ("aBa", "b"), ("A", "a"), ("bab", "BAB")):
        w1, w2 = Word.from_string(s1), Word.from_string(s2)
        lhs = eval_affine(rep, w1 * w2)
        rhs = affine_mul(eval_affine(rep, w1), eval_affine(rep, w2))
        np.testing.assert_allclose(lhs[0], rhs[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(lhs[1], rhs[1], rtol=0, atol=1e-10)
        inv = eval_affine(rep, w1.inverse())
        ref = affine_inv(eval_affine(rep, w1))
        np.testing.assert_allclose(inv[0], ref[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(inv[1], ref[1], rtol=0, atol=1e-10)


def test_eval_affine_translation_cocycle():
    # translation part of a product obeys u(w1 w2) = u(w1) + Ad(rho(w1)) u(w2)
    rng = np.random.default_rng(3)
    a, b = schottky_pair()
    rep = AffineRepresentation(2, 2, [a, b],
                               [traceless(2, rng), traceless(2, rng)])
    w1, w2 = Word.from_string("ab"), Word.from_string("aB")
    g1, y1 = eval_affine(rep, w1)
    g2, y2 = eval_affine(rep, w2)
    _, y12 = eval_affine(rep, w1 * w2)
    np.testing.assert_allclose(y12, y1 + numkernel.adjoint(g1, y2),
                               rtol=0, atol=1e-10)
