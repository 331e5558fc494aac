"""Incomplete tensor storage, block extraction, norms, and JSON round trips."""

import gc
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentmix.errors import InvalidTensor, MissingEntry, OrderExceedsDim
from momentmix.gmm import _run_codes, _run_trees, learning_keys
from momentmix.tensor_store import (
    _BLOCK_WASTE,
    IncompleteSymmetricTensor,
    _fold,
    PrefixTree,
    component_products,
    from_components,
    from_json,
    omega_keys,
    omega_norm,
    perturb,
    product_jacobian,
    to_json,
)
from oracles import (
    KeyCollision,
    block_matrix,
    from_json_by_json,
    leaf_products,
    leaf_rows,
    tensor_by_key_array,
    to_json_by_json,
)


def test_omega_keys():
    assert omega_keys(3, 3).tolist() == [[0, 1, 2]]
    assert omega_keys(4, 3).tolist() == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    with pytest.raises(OrderExceedsDim):
        omega_keys(3, 4)


def test_from_components_single():
    T = from_components(np.array([[1.0, 2.0, 3.0]]), 3, [(0, 1, 2)])
    assert T[(0, 1, 2)] == pytest.approx(6.0)


def test_from_components_cancellation():
    comps = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    T = from_components(comps, 3, [(0, 1, 2)])
    assert T[(0, 1, 2)] == pytest.approx(0.0)


def test_from_components_sorts_shuffled_keys():
    comps = np.random.default_rng(3).standard_normal((3, 6))
    keys = omega_keys(6, 4)
    T = from_components(comps, 4, keys)
    shuffled = keys[np.random.default_rng(4).permutation(len(keys))]
    for other in (shuffled, keys[::-1], keys.tolist()):
        S = from_components(comps, 4, other)
        assert np.array_equal(S.key_array, T.key_array)
        assert S.values.tobytes() == T.values.tobytes()
    with pytest.raises(InvalidTensor, match="strictly ascending"):
        from_components(comps, 4, np.concatenate([keys, keys[:1]]))


@pytest.mark.parametrize("key", [(0, 1, 7), (0, 1, 4), (-1, 1, 2)])
def test_from_components_rejects_slots_out_of_range(key):
    # a slot at or past d is rejected before it indexes the vectors, with
    # the message a negative slot gets
    with pytest.raises(InvalidTensor, match=re.escape(f"key {key} out of range for dimension 4")):
        from_components(np.ones((1, 4)), 3, [key])
    with pytest.raises(InvalidTensor, match="out of range for dimension 4"):
        from_components(np.ones((1, 4)), 3, [(0, 1, 2), key])


def test_from_components_two_components():
    comps = np.array([[1, 2, 3, 4, 5, 6], [1, -1, 2, -2, 3, -3]], dtype=float)
    T = from_components(comps, 3, omega_keys(6, 3))
    # 2*4*6 + (-1)(-2)(-3) = 48 - 6
    assert T[(1, 3, 5)] == pytest.approx(42.0)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_component_products_equal_np_prod(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    keys = omega_keys(9, m)
    assert np.array_equal(component_products(v, keys), np.prod(v[:, keys], axis=2))


def test_lookup_any_permutation():
    T = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3,
                        omega_keys(4, 3))
    assert T[(3, 1, 0)] == T[(0, 1, 3)]
    got = T.gather([(3, 1, 0), (2, 0, 1), (3, 2, 1)])
    assert got.tolist() == [T[(0, 1, 3)], T[(0, 1, 2)], T[(1, 2, 3)]]
    assert T.gather([[(2, 3, 0)], [(1, 0, 2)]]).shape == (2, 1)
    reverse = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3,
                              omega_keys(4, 3)[::-1])
    assert reverse.entries == T.entries
    with pytest.raises(MissingEntry):
        IncompleteSymmetricTensor(4, 3, {})[(0, 1, 2)]


def test_block_matrix_rank_one():
    T = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3,
                        omega_keys(4, 3))
    M = block_matrix(T, [(0, 1)], [(2,), (3,)])
    assert np.allclose(M, [[6.0, 8.0]])
    M = block_matrix(T, [(0, 1), (0, 2)], [(3,)])
    assert np.allclose(M, [[8.0], [12.0]])


def test_block_matrix_missing_and_collision():
    keys = [k for k in map(tuple, omega_keys(4, 3).tolist()) if k != (0, 1, 2)]
    T = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3, keys)
    with pytest.raises(MissingEntry):
        block_matrix(T, [(0, 1)], [(2,)])
    with pytest.raises(MissingEntry) as exc:
        T.gather([(3, 1, 0), (2, 1, 0), (0, 1, 4), (0, 2, 3)])
    assert exc.value.key == (0, 1, 2)
    full = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3,
                           omega_keys(4, 3))
    with pytest.raises(KeyCollision):
        block_matrix(full, [(1,)], [(1, 2)])


def test_block_matrix_factorization():
    # block of a component sum equals sum of outer products of the
    # component restrictions, with the padding coordinate as a factor
    rng = np.random.default_rng(5)
    d, m, r = 8, 3, 3
    comps = rng.standard_normal((r, d))
    T = from_components(comps, m, omega_keys(d, m))
    rows = [(0, 1), (0, 2), (0, 3)]
    cols = [(4,), (5,), (6,), (7,)]
    M = block_matrix(T, rows, cols)
    expected = np.zeros((len(rows), len(cols)))
    for i in range(r):
        expected += comps[i, 0] * np.outer(
            comps[i, [1, 2, 3]], comps[i, [4, 5, 6, 7]]
        )
    assert np.linalg.norm(M - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


def test_omega_norm():
    T = IncompleteSymmetricTensor(5, 3, {(0, 1, 2): 2.0})
    assert omega_norm(T, [(0, 1, 2)]) == pytest.approx(np.sqrt(24.0))
    T2 = IncompleteSymmetricTensor(5, 3, {(0, 1, 2): 1.0, (0, 1, 3): 2.0})
    assert omega_norm(T2, [(0, 1, 2), (0, 1, 3)]) == pytest.approx(np.sqrt(30.0))
    Tz = IncompleteSymmetricTensor(5, 3, {(0, 1, 2): 0.0, (0, 1, 3): 0.0})
    assert omega_norm(Tz, [(0, 1, 2), (0, 1, 3)]) == 0.0


def test_omega_norm_scaling():
    rng = np.random.default_rng(0)
    comps = rng.standard_normal((2, 6))
    keys = omega_keys(6, 3)
    T = from_components(comps, 3, keys)
    scaled = IncompleteSymmetricTensor(
        6, 3, {k: 3.0 * v for k, v in T.entries.items()}
    )
    assert omega_norm(scaled, keys) == pytest.approx(3.0 * omega_norm(T, keys))
    assert omega_norm(T, list(reversed(keys))) == pytest.approx(omega_norm(T, keys))


def test_perturb():
    comps = np.random.default_rng(1).standard_normal((2, 6))
    keys = omega_keys(6, 3)
    T = from_components(comps, 3, keys)
    assert perturb(T, 0.0, 3).entries == T.entries
    Th = perturb(T, 0.1, 3)
    diff = IncompleteSymmetricTensor(
        6, 3, {k: Th.entries[k] - T.entries[k] for k in T.entries}
    )
    assert omega_norm(diff, keys) == pytest.approx(0.1, abs=1e-12)
    again = perturb(T, 0.1, 3)
    assert again.entries == Th.entries
    other = perturb(T, 0.1, 4)
    assert other.entries != Th.entries
    for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            perturb(T, bad, 3)


def test_perturb_without_entries_adds_no_noise():
    T = IncompleteSymmetricTensor(6, 3, {})
    Th = perturb(T, 0.1, 3)
    assert Th.key_array.shape == (0, 3) and Th.values.shape == (0,)


def test_json_round_trip():
    comps = np.random.default_rng(2).standard_normal((2, 5))
    T = from_components(comps, 3, omega_keys(5, 3))
    text = to_json(T)
    back = from_json(text)
    assert back.d == T.d and back.m == T.m
    for k in T.entries:
        assert back[k] == pytest.approx(T[k])
    assert to_json(back) == text


def _tensor_json(*records):
    return json.dumps({"d": 4, "m": 3, "entries": [
        {"key": key, "re": re, "im": 0.0} for key, re in records]})


@pytest.mark.parametrize("build", [
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1): 1.0}),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1, 2): 1.0, (0, 1): 2.0}),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1, 4): 1.0}),
    lambda: IncompleteSymmetricTensor(4, 3, {(-1, 0, 1): 1.0}),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 2, 1): 1.0}),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1, 2): 1.0, (0, 1, 3): np.nan}),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1, 2): complex(0.0, np.inf)}),
    lambda: from_json(_tensor_json(([0, 1, 2, 3], 1.0))),
    lambda: from_json(_tensor_json(([0, 1, 2], 1.0), ([1, 2], 1.0))),
    lambda: from_json(_tensor_json(([0, 1, 4], 1.0))),
    lambda: from_json(_tensor_json(([1, 0, 2], 1.0))),
    lambda: from_json(_tensor_json(([0, 1, 3], 1.0), ([0, 1, 2], 1.0))),
    lambda: from_json(_tensor_json(([0, 1, 2], float("nan")))),
    # non-integer slots, once truncated or read as 0/1 to a valid key
    lambda: from_json(_tensor_json(([0, 1, 2.7], 1.0))),
    lambda: from_json(_tensor_json(([0, 1, 2.0], 1.0))),
    lambda: from_json(_tensor_json(([False, True, 3], 1.0))),
    lambda: from_json(_tensor_json(([0, 1, 2], 1.0), ([True, 2, 3], 1.0))),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1, 2.5): 1.0}),
    lambda: IncompleteSymmetricTensor(4, 3, {(0, 1, 2): 1.0, (np.True_, 2, 3): 1.0}),
    lambda: from_components(np.ones((1, 4)), 3, np.array([[0.0, 1.0, 2.0]])),
], ids=["slots", "ragged-slots", "range", "negative", "unsorted", "nan", "inf",
        "json-slots", "json-ragged-slots", "json-range", "json-unsorted",
        "json-descending", "json-nan", "json-fraction", "json-float", "json-bools",
        "json-bool-among-ints", "fraction", "numpy-bool", "components-float-array"])
def test_malformed_tensor_rejected(build):
    with pytest.raises(InvalidTensor):
        build()


@pytest.mark.parametrize("key, named", [
    ((0, 1, 2.5), "(0.0, 1.0, 2.5)"),  # once truncated to (0, 1, 2)
    ((0, 1), "(0, 1)"),  # once a raw matmul ValueError
    ((0, 1, 2, 3), "(0, 1, 2, 3)"),
], ids=["fraction", "short", "long"])
def test_lookup_rejects_malformed_key(key, named):
    T = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3, omega_keys(4, 3))
    message = re.escape(f"key {named} is not 3 integer slots")
    with pytest.raises(InvalidTensor, match=message):
        T[key]
    with pytest.raises(InvalidTensor, match=message):
        omega_norm(T, [(0, 1, 3), key])
    with pytest.raises(InvalidTensor, match=re.escape("key (0.0, 1.0, 2.5)")):
        T.gather([[(0, 1, 3), (1, 2, 3)], [(0, 2, 3), (0, 1, 2.5)]])
    # a bad key below the top level of a nest, not the row holding it
    with pytest.raises(InvalidTensor, match=message):
        T.gather([[(0, 1, 2)], [key]])
    with pytest.raises(InvalidTensor, match=re.escape("key (0.0, 1.0, 2.0)")):
        T[np.array([0.0, 1.0, 2.0])]


def test_lookup_accepts_integer_and_empty_key_arrays():
    T = from_components(np.array([[1.0, 2.0, 3.0, 4.0]]), 3, omega_keys(4, 3))
    assert T[(np.int32(3), 1, 0)] == T[0, 1, 3] == 8.0
    assert T.gather(np.array([[2, 1, 0]], dtype=np.uint8)).tolist() == [6.0]
    assert T.gather(np.empty((0, 3))).shape == (0,)


def test_numpy_integer_key_slots_accepted():
    T = IncompleteSymmetricTensor(4, 3, {(np.int64(0), np.int32(1), 2): 1.5})
    assert list(T.entries) == [(0, 1, 2)] and T[0, 1, 2] == 1.5
    keys = np.array([[0, 1, 3], [0, 1, 2]], dtype=np.uint8)
    R = from_components(np.ones((1, 4)), 3, keys)
    assert list(R.entries) == [(0, 1, 2), (0, 1, 3)]


@pytest.mark.parametrize("entries", [
    # the mapping cases above
    {(0, 1): 1.0},
    {(0, 1, 2): 1.0, (0, 1): 2.0},
    {(0, 1, 4): 1.0},
    {(-1, 0, 1): 1.0},
    {(0, 2, 1): 1.0},
    {(0, 1, 2): 1.0, (0, 1, 3): np.nan},
    {(0, 1, 2): complex(0.0, np.inf)},
    {(0, 1, 2.5): 1.0},
    {(0, 1, 2): 1.0, (np.True_, 2, 3): 1.0},
    {(np.int64(0), np.int32(1), 2): 1.5},
    # and more
    {tuple(k): float(i) for i, k in enumerate(omega_keys(4, 3)[::-1].tolist())},
    {(0, 1, 2): 1.0, (0, 2, 3): 2.0, (0, 1, 3): 3.0},
    {(0, 1, 2): 1.0, (True, 2, 3): 2.0},
    {(0, 1, 2): 1.0, (np.True_, np.True_, 3): 2.0},
    {(np.int32(1), np.int32(2), np.int32(3)): 1.0, (0, 1, 2): 2.0},
    {(0, 1, 2): 1.0, (0, 1, 2**63): 2.0},
    {(0, 1, 2): 1.0, (0, 1, 2**64 + 1): 2.0},
    {(0, 1, 2): 1.0, (-1, 2, 3): 2.0},
    {(0, 1, 2): 1.0, (0, 1, 2, 3): 2.0},
    {(0, 1, 2): 1.0, (0, 1, 3): 2.0, (1,): 3.0},
    {},
], ids=["slots", "ragged-slots", "range", "negative", "unsorted", "nan", "inf",
        "fraction", "numpy-bool", "numpy-int", "reversed", "out-of-order",
        "bool", "numpy-bools", "int32", "slot-2**63", "slot-past-2**64",
        "negative-slot", "long-key", "short-key", "empty"])
def test_constructor_matches_key_array_path(entries):
    # the one-pass key check changes no key, value or message of
    # _key_array and a lexsort
    try:
        expected = tensor_by_key_array(4, 3, entries)
    except InvalidTensor as exc:
        with pytest.raises(InvalidTensor) as got:
            IncompleteSymmetricTensor(4, 3, entries)
        assert str(got.value) == str(exc)
        return
    T = IncompleteSymmetricTensor(4, 3, entries)
    assert T.key_array.dtype == np.int64
    assert np.array_equal(T.key_array, expected.key_array)
    assert T.values.tobytes() == expected.values.tobytes()


def test_json_rejects_bad_keys():
    with pytest.raises(ValueError):
        from_json('{"d": 4, "m": 3, "entries": [{"key": [2, 1, 0], "re": 1.0, "im": 0.0}]}')
    with pytest.raises(ValueError):
        from_json(
            '{"d": 4, "m": 3, "entries": ['
            '{"key": [0, 1, 2], "re": 1.0, "im": 0.0},'
            '{"key": [0, 1, 2], "re": 2.0, "im": 0.0}]}'
        )


@pytest.mark.parametrize("m", [0, -1])
def test_order_below_one_rejected_with_no_entries(m):
    # at order -1, once a raw reshape ValueError from the key check
    with pytest.raises(InvalidTensor):
        from_json(json.dumps({"d": 4, "m": m, "entries": []}))
    with pytest.raises(InvalidTensor):
        IncompleteSymmetricTensor(4, m, {})


@pytest.mark.parametrize("m", [0, -1])
def test_from_components_rejects_order_below_one(m):
    with pytest.raises(InvalidTensor):
        from_components(np.ones((1, 5)), m, [()])


def test_omega_keys_rejects_negative_order():
    with pytest.raises(InvalidTensor):
        omega_keys(5, -1)


def test_json_round_trip_is_exact_and_compact():
    rng = np.random.default_rng(4)
    comps = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    T = from_components(comps, 4, omega_keys(7, 4))
    text = to_json(T)
    assert "\n" not in text and ", " not in text
    back = from_json(text)
    assert np.array_equal(back.key_array, T.key_array)
    assert np.array_equal(back.values, T.values)
    assert to_json(back) == text


def test_slot_partials_and_product_jacobian_match_loops():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    keys = np.array([(0, 1, 2), (0, 0, 3), (4, 4, 4), (1, 3, 4)])
    J = product_jacobian(V, keys)
    assert J.shape == (4, 3, 5)
    ref_J = np.zeros_like(J)
    for i in range(3):
        for k, key in enumerate(keys.tolist()):
            for t, a in enumerate(key):
                ref_J[k, i, a] += np.prod(V[i, key[:t] + key[t + 1:]])
    assert np.allclose(J, ref_J, rtol=1e-14, atol=0)


@pytest.mark.parametrize("doc, field", [
    ([], "object"),
    ({"m": 3, "entries": []}, "'d'"),
    ({"d": 4, "entries": []}, "'m'"),
    ({"d": 4, "m": 3}, "'entries'"),
    ({"d": "4", "m": 3, "entries": []}, "'d'"),
    ({"d": 4, "m": 3, "entries": [{"re": 1.0}]}, "'key'"),
    ({"d": 4, "m": 3, "entries": [{"key": [0, 1, 2], "im": 1.0}]}, "'re'"),
    ({"d": 4, "m": 3, "entries": [[0, 1, 2]]}, "entry 0"),
    ({"d": 4, "m": 3, "entries": [{"key": [0, 1, 2], "re": "x"}]}, "'re'"),
    ({"d": 4, "m": 3, "entries": [{"key": [0, 1, 2], "re": 1.0, "im": "x"}]},
     "'im'"),
    ({"d": 4, "m": 3, "entries": [{"key": [0, None, 2], "re": 1.0}]}, "keys"),
], ids=["list", "no-d", "no-m", "no-entries", "text-d", "no-key", "no-re",
        "record-list", "text-re", "text-im", "null-slot"])
def test_json_malformed_document_rejected(doc, field):
    with pytest.raises(InvalidTensor, match=field):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("entries, field", [
    ([{"key": [0, 1, 2], "re": "1.5"}], "entry 0 has a non-numeric 're'"),
    ([{"key": [0, 1, 2], "re": True}], "entry 0 has a non-numeric 're'"),
    ([{"key": [0, 1, 2], "re": 1.0, "im": [0.0]}], "entry 0 has a non-numeric 'im'"),
    ([{"key": [0, 1, 2], "re": 1.0}, {"key": [0, 1, 3], "re": 2.0, "im": False}],
     "entry 1 has a non-numeric 'im'"),
], ids=["numeric-string-re", "bool-re", "list-im", "bool-im-among-numbers"])
def test_json_non_number_values_rejected(entries, field):
    # numpy would read each of these as a number when filling the columns
    with pytest.raises(InvalidTensor, match=field):
        from_json(json.dumps({"d": 4, "m": 3, "entries": entries}))


def test_json_integer_values_accepted():
    T = from_json(json.dumps({"d": 4, "m": 3, "entries": [
        {"key": [0, 1, 2], "re": 2, "im": -1}, {"key": [0, 1, 3], "re": 0.5}]}))
    assert T.values.tolist() == [2 - 1j, 0.5]


def _key_sets(d, m, rng):
    """Strictly ascending key arrays: the distinct-index keys, every sorted
    key (repeated indices included), and a random half of the latter."""
    distinct = omega_keys(d, m)
    every = np.array(
        list(itertools.combinations_with_replacement(range(d), m)), dtype=np.int64
    )
    dropped = every[rng.random(len(every)) < 0.5]
    return {"omega": distinct, "repeated": every, "dropped": dropped}


def grid_cells(tree, keys, grid):
    """Each key's cell of a dense (n_rows, d, ...) leaf-row x coordinate
    grid, cell row * d + last slot, both found from the keys: the layout
    the tree's cells are checked against."""
    return grid.reshape(-1, *grid.shape[2:])[leaf_rows(tree, keys) * grid.shape[1] + keys[:, -1]]


def tree_products(tree, keys, vectors):
    """(n_keys, r) products over the tree's keys from its leaf products:
    the leaf prefix times the last slot at each key's cell."""
    leaf = tree.products(vectors)[-1]
    return grid_cells(tree, keys, leaf[:, None, :] * vectors.T[None, :, :])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_prefix_products_equal_component_products(m):
    rng = np.random.default_rng(40 + m)
    d, r = 9, 7
    vectors = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    vectors[2] *= 1e-3  # a small component, so products span magnitudes
    for name, keys in _key_sets(d, m, rng).items():
        tree = PrefixTree(keys)
        assert np.array_equal(tree_products(tree, keys, vectors),
                              component_products(vectors, keys).T), name
        # ascending rows hold each distinct prefix once per level
        for s, (parent, coord) in enumerate(tree.levels, start=1):
            assert len(coord) == len(np.unique(keys[:, : s + 1], axis=0)), (name, s)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_prefix_tree_products_in_any_row_order(m):
    # shuffled rows, some repeated apart and some side by side, then every
    # row's slots shuffled too: the tree shares fewer prefixes but every
    # product is the same bit for bit
    rng = np.random.default_rng(60 + m)
    d, r = 7, 4
    vectors = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    every = np.array(list(itertools.combinations_with_replacement(range(d), m)))
    rows = np.concatenate([every, every[rng.integers(len(every), size=40)]])
    rows = rows[rng.permutation(len(rows))]
    rows = np.repeat(rows, rng.integers(1, 3, size=len(rows)), axis=0)
    for name, keys in {"rows": rows, "slots": rng.permuted(rows, axis=1)}.items():
        tree = PrefixTree(keys)
        want = component_products(vectors, keys).T
        leaf = tree.products(vectors)[-1]
        prefix = component_products(vectors, keys[:, :-1]).T
        assert np.array_equal(leaf[leaf_rows(tree, keys)], prefix), name
        grid = leaf[:, None, :] * vectors.T[None, :, :]
        assert np.array_equal(grid_cells(tree, keys, grid), want), name


def _ragged_key_sets(d, m, rng):
    """``_key_sets`` plus two: "empty-groups" has no key whose prefix ends
    at 2, 3 or 4 (its first slot at m = 2), so those coordinate groups are
    empty; "one-row-groups" holds the distinct-index keys whose first m-2
    slots are 0..m-3, so every group is one prefix and all of them merge
    into one block."""
    sets = _key_sets(d, m, rng)
    sets["empty-groups"] = sets["dropped"][~np.isin(sets["dropped"][:, -2], [2, 3, 4])]
    omega = sets["omega"]
    sets["one-row-groups"] = omega[(omega[:, : m - 2] == np.arange(m - 2)).all(axis=1)]
    return sets


def _row_ends(tree):
    """The last coordinate of each leaf row's prefix (at m = 2, the
    row's coordinate)."""
    return tree.levels[-1][1] if tree.levels else tree.order


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_ragged_cells_match_the_dense_grid(m):
    # A x and A^H b of the scale stage on the occupied cells equal the
    # (n_rows, d) grid's GEMMs read at (or scattered into) the keys' cells
    rng = np.random.default_rng(90 + m)
    d, r = 9, 4
    sets = _ragged_key_sets(d, m, rng)
    vectors = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    right = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    for name, keys in sets.items():
        tree = PrefixTree(keys)
        leaf = leaf_products(tree, keys, vectors)
        grouped = tree.products(vectors)[-1]
        assert np.array_equal(grouped, leaf), name
        assert np.all(np.diff(_row_ends(tree)) >= 0), name  # rows grouped by last coordinate
        assert np.array_equal(np.sort(tree.slot), np.unique(tree.slot)), name
        assert tree.slot.max() < tree.size, name
        groups = len(np.unique(_row_ends(tree)))
        if name in ("omega", "one-row-groups"):
            # each group's own cells are its keys', and each merge of
            # groups into a block adds at most _BLOCK_WASTE cells
            assert tree.size - len(keys) <= _BLOCK_WASTE * (groups - len(tree.blocks)), name
        if name == "one-row-groups":
            assert groups > 1 and len(tree.blocks) == 1
        block_ends = _row_ends(tree)[[rows.start for rows, _, _ in tree.blocks]]
        assert np.all(np.diff(block_ends) > 0), name
        if name == "empty-groups":
            assert not np.isin(block_ends, [2, 3, 4]).any()
        want = grid_cells(tree, keys, leaf @ right)
        got = tree.gemm(grouped, right)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
        f = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        F = np.zeros((len(leaf), d), dtype=complex)
        F.reshape(-1)[leaf_rows(tree, keys) * d + keys[:, -1]] = f
        want = leaf.T @ F
        got = tree.gemm_adjoint(grouped, f, d)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_ragged_blocks_tile_the_cells(m):
    # the blocks tile the leaf rows and the cell buffer in order, and each
    # key's cell is its prefix's row and its last slot's column of the
    # block holding that row, row-major
    rng = np.random.default_rng(120 + m)
    for name, keys in _ragged_key_sets(9, m, rng).items():
        tree = PrefixTree(keys)
        rows, cols, spans = (np.array([(s.start, s.stop) for s in col])
                             for col in zip(*tree.blocks))
        assert rows[0, 0] == 0 and rows[-1, 1] == len(tree.order), name
        assert spans[0, 0] == 0 and spans[-1, 1] == tree.size, name
        assert np.array_equal(rows[1:, 0], rows[:-1, 1]), name
        assert np.array_equal(spans[1:, 0], spans[:-1, 1]), name
        assert np.all(rows[:, 1] > rows[:, 0]) and np.all(cols[:, 1] > cols[:, 0]), name
        assert np.array_equal(np.diff(spans, axis=1),
                              np.diff(rows, axis=1) * np.diff(cols, axis=1)), name
        row, last = leaf_rows(tree, keys), keys[:, -1]
        block = np.searchsorted(rows[:, 1], row, side="right")
        assert np.all(cols[block, 0] <= last) and np.all(last < cols[block, 1]), name
        width = cols[block, 1] - cols[block, 0]
        want = spans[block, 0] + (row - rows[block, 0]) * width + last - cols[block, 0]
        assert np.array_equal(tree.slot, want), name


def test_ragged_blocks_merge_small_trees_only():
    # the m=3 learning keys' trees (sample moments at d=15) collapse into
    # few GEMMs; the d=25 exact trees of orders 4 and 5 gain at most 2%
    # cells
    keys = learning_keys(15, 3)
    pairs, distinct = (tree for _, tree, _ in _run_trees(np.sort(_run_codes(keys, 15), axis=1))
                       if tree)
    assert len(pairs.blocks) == 1
    assert len(distinct.blocks) <= 6
    for m in (4, 5):
        keys = omega_keys(25, m)
        assert PrefixTree(keys).size <= 1.02 * len(keys), m


def _adjoint_trees():
    """(name, keys, d) of trees J^H f runs on: a tensor's distinct-index
    and repeated-index keys at m = 2 and 4, the keys with every row
    repeated, and the order-4 sample-moment trees of power coordinates."""
    d = 6
    every = np.array(list(itertools.combinations_with_replacement(range(d), 4)))
    trees = [("omega-2", omega_keys(d, 2), d), ("omega-4", omega_keys(d, 4), d),
             ("repeated-index", every, d), ("repeated-rows", np.repeat(every, 2, axis=0), d)]
    codes = np.sort(_run_codes(learning_keys(d, 4), d), axis=1)
    for _, tree, _ in _run_trees(codes):
        if tree is not None:
            trees.append((f"moments-{len(tree.levels) + 2}", tree, 4 * d))
    return [(name, keys if isinstance(keys, PrefixTree) else PrefixTree(keys), d)
            for name, keys, d in trees]


@pytest.mark.parametrize("dtype", [float, complex])
def test_adjoint_at_the_products_is_a_fresh_adjoint(dtype):
    # the shared pass: J^H f from products formed before, bit for bit
    rng = np.random.default_rng(70)
    for name, tree, d in _adjoint_trees():
        n = len(tree.slot)
        vectors = rng.standard_normal((3, d)).astype(dtype)
        f = rng.standard_normal(n).astype(dtype)
        if dtype is complex:
            vectors += 1j * rng.standard_normal((3, d))
            f += 1j * rng.standard_normal(n)
        prods = tree.products(vectors)
        fresh = tree.adjoint_at(tree.products(vectors), f)
        assert fresh.dtype == np.dtype(dtype), name
        assert np.array_equal(tree.adjoint_at(prods, f), fresh), name
        # twice on the same products: they are read, not written
        assert np.array_equal(tree.adjoint_at(prods, f), fresh), name


@pytest.mark.parametrize("dtype", [float, complex])
def test_prebuilt_folds_equal_unbuffered_sums(dtype):
    # every level's coordinate and parent fold, on bins built once per
    # row width, equals np.add.at's in-order sums; some bins are empty
    rng = np.random.default_rng(71)
    every = np.array(list(itertools.combinations_with_replacement(range(7), 4)))
    keys = every[(rng.random(len(every)) < 0.4) & ~np.isin(every[:, 1], [2, 5])]
    tree = PrefixTree(keys)
    r = 3
    width = r * (2 if dtype is complex else 1)
    empty = 0
    for s, ((parent, coord), folds) in enumerate(zip(tree.levels, tree._folds(width))):
        n_parents = 7 if s == 0 else len(tree.levels[s - 1][0])
        for index, bins, n_bins in ((coord, folds[0], 7), (parent, folds[1], n_parents)):
            rows = rng.standard_normal((len(index), r)).astype(dtype)
            if dtype is complex:
                rows += 1j * rng.standard_normal((len(index), r))
            want = np.zeros((n_bins, r), dtype=dtype)
            np.add.at(want, index, rows)
            assert np.array_equal(_fold(rows, bins, n_bins), want), s
            empty += n_bins - len(np.unique(index))
    assert empty > 0
    assert tree._folds(width) is tree._folds(width)


@st.composite
def tree_keys(draw):
    """Strictly ascending (n, m) keys, d in 2..9 and m in 2..5: a random
    share of every sorted key, repeated indices included, without the keys
    whose prefix ends at some dropped coordinates (their first slot at
    m = 2), so whole groups are empty; possibly no key at all."""
    d, m = draw(st.integers(2, 9)), draw(st.integers(2, 5))
    every = np.array(list(itertools.combinations_with_replacement(range(d), m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.floats(0.05, 1.0))
    dropped = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    return d, every[(rng.random(len(every)) < share) & ~np.isin(every[:, -2], list(dropped))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tree_keys(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_prefix_tree_property(case, r, seed):
    # on any ascending key set: the reconstruction, J^H f and the leaf
    # GEMM's adjoint equal the per-key products, the dense Jacobian and
    # the dense grid; the blocks tile the cells and no two keys share one
    d, keys = case
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    f = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    tree = PrefixTree(keys)
    products = component_products(vectors, keys)
    err = np.abs(tree.reconstruction(vectors) - products.sum(axis=0))
    assert np.all(err <= 1e-13 * np.abs(products).sum(axis=0))
    J = product_jacobian(vectors, keys).reshape(len(keys), r * d)
    err = np.abs(tree.adjoint_at(tree.products(vectors), f) - (f @ J.conj()).reshape(r, d))
    assert np.all(err <= 1e-13 * (np.abs(f) @ np.abs(J)).reshape(r, d))
    leaf = tree.products(vectors)[-1]
    F = np.zeros((len(leaf), d), dtype=complex)
    F[leaf_rows(tree, keys), keys[:, -1]] = f
    err = np.abs(tree.gemm_adjoint(leaf, f, d) - leaf.T @ F)
    assert np.all(err <= 1e-13 * (np.abs(leaf).T @ np.abs(F)))
    cells = [np.arange(block.start, block.stop) for _, _, block in tree.blocks]
    assert np.array_equal(np.concatenate([np.arange(0)] + cells), np.arange(tree.size))
    rows = [np.arange(block.start, block.stop) for block, _, _ in tree.blocks]
    assert np.array_equal(np.concatenate([np.arange(0)] + rows), np.arange(len(leaf)))
    assert len(np.unique(tree.slot)) == len(keys) and np.all(tree.slot < tree.size)


# The JSON read and write pause the cyclic garbage collector and leave it
# as they found it, on success and on every failure.


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state on entry to the call under test."""
    (gc.enable if request.param else gc.disable)()
    yield request.param
    gc.enable()


def test_json_round_trip_keeps_collector_state(collector):
    T = from_components(np.ones((2, 6)), 3, omega_keys(6, 3))
    text = to_json(T)
    assert gc.isenabled() is collector
    assert np.array_equal(from_json(text).values, T.values)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("text, error", [
    ('{"d": 4, "m": 3, "entries": [', json.JSONDecodeError),
    ('{"d": 4, "m": 3}', InvalidTensor),
    (_tensor_json(([0, 2, 1], 1.0)), InvalidTensor),
    (_tensor_json(([0, 1, 2], float("nan"))), InvalidTensor),
], ids=["not-json", "malformed", "bad-key", "non-finite"])
def test_json_read_failure_keeps_collector_state(collector, text, error):
    with pytest.raises(error):
        from_json(text)
    assert gc.isenabled() is collector


def test_json_write_failure_keeps_collector_state(collector):
    with pytest.raises(AttributeError):
        to_json(None)
    assert gc.isenabled() is collector


def test_json_read_and_write_run_no_collection():
    # 2,380 records allocate several thousand containers, past the young
    # generation's threshold of a few hundred.  The young generation starts
    # empty, so the few objects the calls keep (the tensor) cannot tip a
    # count left near the threshold by earlier code into a collection.
    T = from_components(np.ones((1, 17)), 4, omega_keys(17, 4))
    runs = []

    def record(phase, info):
        runs.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        from_json(to_json(T))
    finally:
        gc.callbacks.remove(record)
    assert runs == []


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 2.0**53]


@st.composite
def tensor_documents(draw):
    """``to_json`` text of an order-m, dimension-d tensor on a strictly
    ascending subset of the sorted keys (repeated indices included), with
    its key and value arrays."""
    d, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    every = list(itertools.combinations_with_replacement(range(d), m))
    picked = sorted(draw(st.sets(st.sampled_from(every), max_size=40)))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    re = draw(st.lists(floats, min_size=len(picked), max_size=len(picked)))
    im = draw(st.lists(floats, min_size=len(picked), max_size=len(picked)))
    records = [{"key": list(k), "re": a, "im": b} for k, a, b in zip(picked, re, im)]
    text = json.dumps({"d": d, "m": m, "entries": records}, separators=(",", ":"))
    keys = np.array(picked, dtype=np.int64).reshape(len(picked), m)
    values = np.empty(len(picked), dtype=complex)
    values.real, values.imag = re, im
    return text, keys, values


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tensor_documents())
def test_json_round_trip_property(document):
    text, keys, values = document
    T = from_json(text)
    assert to_json(T) == text
    assert T.key_array.dtype == np.int64 and T.values.dtype == complex
    assert np.array_equal(T.key_array, keys)
    # bit for bit, so -0.0 stays negative
    assert T.values.tobytes() == values.tobytes()


def _notation_edges() -> list[float]:
    """Each power of ten from 1e-7 to 1e18 and its neighbours, where
    ``repr`` may switch to or from an exponent, the extremes of the
    doubles and 1/3, each with both signs."""
    tens = np.array([float(f"1e{k}") for k in range(-7, 19)])
    edges = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                            [5e-324, np.finfo(float).tiny, 0.0, np.finfo(float).max, 1 / 3]])
    return np.concatenate([edges, -edges]).tolist()


def _random_doubles(n: int) -> np.ndarray:
    """n finite doubles of uniformly random bit patterns."""
    bits = np.random.default_rng(30).integers(0, 2**64, size=2 * n, dtype=np.uint64)
    doubles = bits.view(float)
    return doubles[np.isfinite(doubles)][:n]


def _tensor_of(d: int, m: int, values) -> IncompleteSymmetricTensor:
    """The first len(values) distinct-index keys holding the values."""
    keys = omega_keys(d, m)[:len(values)]
    return from_components(np.ones((1, d)), m, keys).with_values(values)


@pytest.mark.parametrize("build", [
    lambda: _tensor_of(12, 3, _notation_edges()),
    lambda: _tensor_of(12, 3, 1j * np.array(_notation_edges())),
    lambda: _tensor_of(12, 3, np.array(_notation_edges())
                       + 1j * np.array(_notation_edges()[::-1])),
    lambda: _tensor_of(40, 4, _random_doubles(100_000).view(complex)),
    lambda: _tensor_of(200, 1, _notation_edges()),
    lambda: IncompleteSymmetricTensor(4, 3, {}),
    lambda: IncompleteSymmetricTensor(6, 1, {}),
], ids=["real-edges", "imaginary-edges", "complex-edges", "random-bits", "m1",
        "empty", "empty-m1"])
def test_to_json_bytes_are_the_stdlib_encoding(build):
    T = build()
    assert to_json(T) == to_json_by_json(T)


@st.composite
def varied_documents(draw):
    """Tensor text as other writers may lay it out: any indentation, the
    fields of each record in any order, ``im`` sometimes left out, and
    integer values among the floats."""
    d, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    every = list(itertools.combinations_with_replacement(range(d), m))
    picked = sorted(draw(st.sets(st.sampled_from(every), max_size=40)))
    numbers = st.one_of(st.sampled_from(_EDGE_FLOATS), st.integers(-10**20, 10**20),
                        st.floats(allow_nan=False, allow_infinity=False))
    fields = draw(st.permutations(["key", "re", "im"]))
    records = []
    for key in picked:
        record = {"key": list(key), "re": draw(numbers), "im": draw(numbers)}
        if draw(st.booleans()):
            del record["im"]
        records.append({name: record[name] for name in fields if name in record})
    doc = {"d": d, "m": m, "entries": records}
    return json.dumps(doc, indent=draw(st.sampled_from([None, 0, 2, "\t"])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(varied_documents())
def test_json_read_matches_stdlib_reader_property(text):
    T, ref = from_json(text), from_json_by_json(text)
    assert (T.d, T.m) == (ref.d, ref.m)
    assert T.key_array.dtype == np.int64
    assert np.array_equal(T.key_array, ref.key_array)
    assert T.values.tobytes() == ref.values.tobytes()


_HEAD = '{"d": 4, "m": 3, "entries": ['


@pytest.mark.parametrize("text", [
    _HEAD + '{"key": [0, 1, 2], "re": NaN}]}',
    _HEAD + '{"key": [0, 1, 2], "re": 1.0, "im": Infinity}]}',
    _HEAD + '{"key": [0, 1, 2], "re": -Infinity}]}',
    _HEAD + '{"key": [0, 1, 2], "re": 1e400}]}',
    _HEAD + '{"key": [0, 1, 2], "re": 1' + "0" * 400 + '}]}',
    _HEAD + f'{{"key": [0, 1, {10**30}], "re": 1.0}}]}}',
    _HEAD + f'{{"key": [0, 1, {2**64}], "re": 1.0}}]}}',
    _HEAD + f'{{"key": [0, 1, {2**63}], "re": 1.0}}]}}',
    _HEAD + '{"key": [0, 1, 2], "re": 1.0}, {"key": [0, true, 3], "re": 1.0}]}',
    _HEAD + '{"key": [0, 1, "2"], "re": 1.0}]}',
    _HEAD + '{"key": 5, "re": 1.0}]}',
    _HEAD + '{"key": [0, [1], 2], "re": 1.0}]}',
    _HEAD + '{"key": [0, 1, 2], "re": 1.0}',
    _HEAD + '{"key": [0, 1, 2], "re": 1.0}]} x',
    "\ufeff" + _HEAD + '{"key": [0, 1, 2], "re": 1.0}]}',
    f'{{"d": {10**20}, "m": 3, "entries": []}}',
    '{"d": 4.0, "m": 3, "entries": []}',
], ids=["nan", "infinity", "minus-infinity", "overflow", "int-overflow", "slot-10**30",
        "slot-2**64", "slot-2**63", "true-slot", "string-slot", "number-key", "list-slot",
        "truncated", "trailing-garbage", "bom", "d-10**20", "float-d"])
def test_json_read_fails_as_stdlib_reader(text):
    with pytest.raises(Exception) as ref:
        from_json_by_json(text)
    with pytest.raises(Exception) as got:
        from_json(text)
    assert got.type is ref.type
    # only a key error gains the entry behind it
    assert re.sub(r"^entry \d+: ", "", str(got.value)) == str(ref.value)


@pytest.mark.parametrize("name", ["re", "im"])
def test_json_integer_value_past_the_double_range_names_the_entry(name):
    # json reads the literal as an int that no double holds
    huge = "-1" + "0" * 400
    text = (_HEAD + '{"key": [0, 1, 2], "re": 1.0}, '
            f'{{"key": [0, 1, 3], "re": 1.0, "{name}": {huge}}}]}}')
    with pytest.raises(InvalidTensor, match=f"^entry 1 has '{name}' past the double range$"):
        from_json(text)


# A key slot in [2**63, 2**64) reads as uint64; cast to int64 it would wrap
# to a negative slot, so every entry point names the key as written.
_PAST_INT64 = 2**64 - 1


def test_json_key_slot_past_int64_names_the_entry_and_key():
    key = re.escape(str((_PAST_INT64,) * 3))
    with pytest.raises(InvalidTensor, match=f"^entry 0: key {key} has a slot past int64$"):
        from_json(_tensor_json(([_PAST_INT64] * 3, 1.0)))
    # beside keys that fit, the slots infer as floats: the entry is named
    with pytest.raises(InvalidTensor, match="^entry 1: keys must be sequences of 3 integers$"):
        from_json(_tensor_json(([0, 1, 2], 1.0), ([_PAST_INT64] * 3, 1.0)))


def test_mapping_key_slot_past_int64_names_the_key():
    key = (2**63,) * 3
    with pytest.raises(InvalidTensor, match=f"^key {re.escape(str(key))} has a slot past int64$"):
        IncompleteSymmetricTensor(4, 3, {key: 1.0})


def test_gather_of_uint64_keys_past_int64_names_the_key():
    T = from_components(np.ones((1, 4)), 3, omega_keys(4, 3))
    keys = np.array([[2, 1, 0], [_PAST_INT64, 0, 1]], dtype=np.uint64)
    with pytest.raises(MissingEntry) as exc:
        T.gather(keys)
    assert exc.value.key == (0, 1, _PAST_INT64)
    assert np.array_equal(T.gather(keys[:1]), T.gather([(0, 1, 2)]))


def test_json_key_error_names_the_entry():
    text = _tensor_json(([0, 1, 2], 1.0), ([0, 1, 3], 1.0), ([0, 2.0, 3], 1.0))
    with pytest.raises(InvalidTensor, match="^entry 2: keys must be sequences of 3 integers$"):
        from_json(text)
    with pytest.raises(InvalidTensor, match="^entry 1: keys must be"):
        from_json(_tensor_json(([0, 1, 2], 1.0), ([1, 2], 1.0)))


@st.composite
def tensors_and_shuffled_keys(draw):
    """An order-m, dimension-d tensor on a strictly ascending subset of the
    sorted keys (repeated indices included), stored keys drawn from it and
    the same keys with their slots shuffled."""
    d, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    every = list(itertools.combinations_with_replacement(range(d), m))
    picked = sorted(draw(st.sets(st.sampled_from(every), min_size=1, max_size=40)))
    values = np.arange(len(picked)) + 1j * np.arange(len(picked))[::-1]
    T = IncompleteSymmetricTensor(d, m, dict(zip(picked, values)))
    queries = draw(st.lists(st.sampled_from(picked), min_size=1, max_size=20))
    shuffled = [tuple(draw(st.permutations(key))) for key in queries]
    return T, queries, shuffled


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tensors_and_shuffled_keys())
def test_gather_slot_permutation_property(case):
    T, queries, shuffled = case
    want = T.gather(queries)
    assert np.array_equal(T.gather(shuffled), want)
    assert np.array_equal(T.gather(np.array(shuffled)[:, None, :])[:, 0], want)
    assert [T[key] for key in shuffled] == want.tolist()
