"""Symmetric group elements: lengths, reduced words, actions on tuples.

One-line notation is 0-based: perm.one_line[i] is the image of i.
Adjacent transposition letters are 0-based as well, so letter i swaps
positions i and i+1.
"""

from __future__ import annotations

from functools import lru_cache


class Permutation:
    """An element of S_n with cached length and canonical reduced word.

    >>> Permutation.reversal(3).one_line
    (2, 1, 0)
    >>> Permutation.reversal(3).length()
    3
    >>> Permutation.block_swap(2).one_line
    (2, 3, 0, 1)
    >>> Permutation.reversal(2).act(("u", "v"))
    ('v', 'u')
    """

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        one_line = tuple(one_line)
        if sorted(one_line) != list(range(len(one_line))):
            raise ValueError(f"not a permutation of 0..{len(one_line)-1}: "
                             f"{one_line}")
        self.one_line = one_line

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def adjacent(cls, n: int, i: int) -> "Permutation":
        """The transposition of positions i, i+1 (0-based)."""
        vals = list(range(n))
        vals[i], vals[i + 1] = vals[i + 1], vals[i]
        return cls(vals)

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        """i -> n-1-i, the longest element."""
        return cls(range(n - 1, -1, -1))

    @classmethod
    def block_swap(cls, n: int) -> "Permutation":
        """The element of S_2n exchanging the two n-blocks."""
        return cls(list(range(n, 2 * n)) + list(range(n)))

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition of functions: (self * other)(i) = self(other(i))."""
        return Permutation(self.one_line[j] for j in other.one_line)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.one_line):
            inv[j] = i
        return Permutation(inv)

    def length(self) -> int:
        """Number of inversions.

        >>> Permutation((2, 3, 0, 1)).length()
        4
        """
        w = self.one_line
        return sum(
            1
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if w[i] > w[j]
        )

    def reduced_word(self) -> tuple:
        """Canonical reduced word via bubble sort.

        The word (i1, ..., ik) composes left to right as functions:
        self = s_{i1} o s_{i2} o ... o s_{ik}.  Every bubble swap fixes
        exactly one adjacent inversion, so the word is reduced.

        >>> Permutation((1, 2, 0)).reduced_word()
        (0, 1)
        """
        w = list(self.one_line)
        swaps = []
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                if w[i] > w[i + 1]:
                    w[i], w[i + 1] = w[i + 1], w[i]
                    swaps.append(i)
                    changed = True
        return tuple(reversed(swaps))

    def act(self, seq) -> tuple:
        """The tuple action: result[i] = seq[self^-1(i)]."""
        if len(seq) != self.n:
            raise ValueError("tuple length does not match the group rank")
        inv = self.inverse().one_line
        return tuple(seq[inv[i]] for i in range(self.n))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.one_line))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return f"Permutation{self.one_line}"


def concat_tuples(g, h) -> tuple:
    """(g_1,...,g_n,h_1,...,h_n)."""
    return tuple(g) + tuple(h)


@lru_cache(maxsize=None)
def _words(one_line) -> tuple:
    perm = Permutation(one_line)
    if perm.is_identity():
        return ((),)
    out = []
    w = perm.one_line
    for i in range(perm.n - 1):
        if w[i] > w[i + 1]:
            shorter = list(w)
            shorter[i], shorter[i + 1] = shorter[i + 1], shorter[i]
            for word in _words(tuple(shorter)):
                out.append(word + (i,))
    return tuple(out)


def all_reduced_words(perm: Permutation) -> tuple:
    """Every reduced word of perm (composition convention as above).

    Recursion over right descents: a descent at position i means
    perm = (perm s_i) s_i with the length dropping by one.
    """
    return _words(perm.one_line)
