"""Index and monomial basis enumeration."""

import pytest

from momentmix.combinatorics import binomial, subsets_lex
from momentmix.errors import RankTooLarge
from oracles import basis_B0, basis_B1, support_O_alpha


def test_binomial_values():
    assert binomial(6, 2) == 15
    assert binomial(5, 0) == 1
    assert binomial(13, 2) == 78
    assert binomial(3, 5) == 0


def test_subsets_lex_order():
    assert subsets_lex(1, 4, 2) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert subsets_lex(1, 3, 0) == [()]
    assert subsets_lex(2, 5, 4) == [(2, 3, 4, 5)]


def test_subsets_lex_counts():
    for lo, hi in ((0, 7), (1, 12), (3, 20)):
        for size in range(0, 9):
            subs = subsets_lex(lo, hi, size)
            assert len(subs) == binomial(hi - lo + 1, size)
            for s in subs:
                assert list(s) == sorted(set(s))


def test_basis_B0():
    assert basis_B0(4, 2, 3) == [(1, 2), (1, 3), (1, 4)]
    assert basis_B0(3, 1, 3) == [(1,), (2,), (3,)]
    with pytest.raises(RankTooLarge):
        basis_B0(3, 2, 4)


def test_basis_B1():
    assert basis_B1(2, 1, 4) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert basis_B1(2, 2, 3) == [(1, 2, 3)]
    assert basis_B1(1, 1, 2) == [(1, 2)]


def test_basis_B1_count():
    for k, p, n in ((3, 1, 8), (4, 2, 10), (6, 3, 14)):
        assert len(basis_B1(k, p, n)) == binomial(k, p) * (n - k)


def test_support_O_alpha():
    # all (m-p-1)-subsets of [k+1, n] avoiding the tail label of alpha
    assert support_O_alpha((1, 4), 2, 6, 3, 1) == [(3,), (5,), (6,)]
    assert support_O_alpha((1, 5), 2, 6, 4, 1) == [(3, 4), (3, 6), (4, 6)]
    assert support_O_alpha((1, 2, 4), 3, 5, 4, 2) == [(5,)]


def test_support_O_alpha_excludes_tail_label():
    for alpha in basis_B1(3, 1, 9):
        tail = alpha[-1]
        subs = support_O_alpha(alpha, 3, 9, 4, 1)
        assert len(subs) == binomial(9 - 3 - 1, 4 - 1 - 1)
        for s in subs:
            assert tail not in s
            assert list(s) == sorted(set(s))
