"""Index and monomial basis enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentmix.combinatorics import binomial, subsets_lex
from momentmix.errors import OrderExceedsDim, RankTooLarge
from momentmix.gmm import covariance_keys, learning_keys
from momentmix.tensor_store import omega_keys
from oracles import (
    basis_B0,
    basis_B1,
    covariance_keys_by_itertools,
    learning_keys_by_set,
    subsets_by_itertools,
    support_O_alpha,
)


def test_binomial_values():
    assert binomial(6, 2) == 15
    assert binomial(5, 0) == 1
    assert binomial(13, 2) == 78
    assert binomial(3, 5) == 0


def test_subsets_lex_order():
    assert subsets_lex(1, 4, 2).tolist() == [
        [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
    ]
    assert subsets_lex(1, 3, 0).tolist() == [[]]
    assert subsets_lex(2, 5, 4).tolist() == [[2, 3, 4, 5]]


def test_subsets_lex_counts():
    for lo, hi in ((0, 7), (1, 12), (3, 20)):
        for size in range(0, 9):
            subs = subsets_lex(lo, hi, size)
            assert len(subs) == binomial(hi - lo + 1, size)
            for s in subs.tolist():
                assert s == sorted(set(s))


def assert_key_array(got, tuples, size):
    """got is the (len(tuples), size) int64 array of the key tuples, rows in
    their order."""
    want = np.array(tuples, dtype=np.int64).reshape(len(tuples), size)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_key_builders_equal_itertools(data):
    d = data.draw(st.integers(0, 9))
    size = data.draw(st.integers(0, d + 1))
    lo = data.draw(st.integers(-3, 9))
    hi = data.draw(st.integers(lo - 2, lo + d))  # from empty ranges on
    assert_key_array(subsets_lex(lo, hi, size), subsets_by_itertools(lo, hi, size), size)
    if size > d:
        with pytest.raises(OrderExceedsDim):
            omega_keys(d, size)
    else:
        assert_key_array(omega_keys(d, size), subsets_by_itertools(0, d - 1, size), size)
    if size >= 2 and d >= 1:
        j = data.draw(st.integers(0, d - 1))
        assert_key_array(covariance_keys(d, size, j),
                         covariance_keys_by_itertools(d, size, j), size)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 9).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, d))))
def test_learning_keys_equal_set_union(dm):
    d, m = dm
    assert_key_array(learning_keys(d, m), learning_keys_by_set(d, m), m)


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
