import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xrmatrix.permutations import (Permutation, all_reduced_words,
                                   concat_tuples)


def compose_word(n: int, word) -> Permutation:
    """Rebuild the permutation from a word, left-to-right composition."""
    out = Permutation.identity(n)
    for i in word:
        out = out * Permutation.adjacent(n, i)
    return out


def test_doctests():
    import doctest

    import xrmatrix.permutations as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0


def test_reversal_length():
    assert Permutation.reversal(3).length() == 3
    assert Permutation.reversal(4).length() == 6


def test_block_swap_length():
    # one-line (3,4,1,2) has four inversions
    tau = Permutation.block_swap(2)
    assert tau.one_line == (2, 3, 0, 1)
    assert tau.length() == 4
    assert Permutation.block_swap(3).length() == 9


def test_tuple_action_swap():
    assert Permutation.reversal(2).act(("u", "v")) == ("v", "u")


def test_block_swap_exchanges_blocks():
    tau = Permutation.block_swap(2)
    assert tau.act(concat_tuples(("g1", "g2"), ("h1", "h2"))) == \
        ("h1", "h2", "g1", "g2")


def test_invalid_one_line_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_reduced_word_reproduces_every_s4_element():
    for line in itertools.permutations(range(4)):
        perm = Permutation(line)
        word = perm.reduced_word()
        assert len(word) == perm.length()
        assert compose_word(4, word) == perm


def test_all_reduced_words_of_longest_elements():
    words3 = set(all_reduced_words(Permutation.reversal(3)))
    assert words3 == {(0, 1, 0), (1, 0, 1)}
    words4 = all_reduced_words(Permutation.reversal(4))
    assert len(words4) == 16
    assert all(compose_word(4, w) == Permutation.reversal(4) for w in words4)


@st.composite
def _perms(draw, n=5):
    line = draw(st.permutations(list(range(n))))
    return Permutation(line)


@given(_perms(), _perms())
def test_composition_and_inverse(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert (a * a.inverse()).is_identity()


@given(_perms())
def test_action_is_by_inverse_positions(a):
    values = tuple(range(10, 15))
    moved = a.act(values)
    for i in range(5):
        assert moved[a.one_line[i]] == values[i]


@given(_perms(), _perms())
def test_action_is_compatible_with_composition(a, b):
    values = tuple(range(20, 25))
    assert (a * b).act(values) == a.act(b.act(values))
