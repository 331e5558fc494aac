"""Incomplete tensor storage, block extraction, norms, and JSON round trips."""

import json

import numpy as np
import pytest

from momentmix.errors import InvalidTensor, KeyCollision, MissingEntry, OrderExceedsDim
from momentmix.tensor_store import (
    ComponentList,
    IncompleteSymmetricTensor,
    block_matrix,
    component_products,
    from_components,
    from_json,
    omega_keys,
    omega_norm,
    perturb,
    product_jacobian,
    slot_partials,
    to_json,
)


def test_omega_keys():
    assert omega_keys(3, 3) == [(0, 1, 2)]
    assert omega_keys(4, 3) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    with pytest.raises(OrderExceedsDim):
        omega_keys(3, 4)


def test_from_components_single():
    T = from_components(ComponentList(np.array([[1.0, 2.0, 3.0]])), 3, [(0, 1, 2)])
    assert T[(0, 1, 2)] == pytest.approx(6.0)


def test_from_components_cancellation():
    comps = ComponentList(np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]]))
    T = from_components(comps, 3, [(0, 1, 2)])
    assert T[(0, 1, 2)] == pytest.approx(0.0)


def test_from_components_two_components():
    comps = ComponentList(
        np.array([[1, 2, 3, 4, 5, 6], [1, -1, 2, -2, 3, -3]], dtype=float)
    )
    T = from_components(comps, 3, omega_keys(6, 3))
    # 2*4*6 + (-1)(-2)(-3) = 48 - 6
    assert T[(1, 3, 5)] == pytest.approx(42.0)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_component_products_equal_np_prod(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    keys = np.array(omega_keys(9, m))
    assert np.array_equal(component_products(v, keys), np.prod(v[:, keys], axis=2))


def test_lookup_any_permutation():
    T = from_components(ComponentList(np.array([[1.0, 2.0, 3.0, 4.0]])), 3,
                        omega_keys(4, 3))
    assert T[(3, 1, 0)] == T[(0, 1, 3)]
    got = T.gather([(3, 1, 0), (2, 0, 1), (3, 2, 1)])
    assert got.tolist() == [T[(0, 1, 3)], T[(0, 1, 2)], T[(1, 2, 3)]]
    assert T.gather([[(2, 3, 0)], [(1, 0, 2)]]).shape == (2, 1)
    reverse = from_components(ComponentList(np.array([[1.0, 2.0, 3.0, 4.0]])), 3,
                              omega_keys(4, 3)[::-1])
    assert reverse.entries == T.entries
    with pytest.raises(MissingEntry):
        IncompleteSymmetricTensor(4, 3, {})[(0, 1, 2)]


def test_block_matrix_rank_one():
    T = from_components(ComponentList(np.array([[1.0, 2.0, 3.0, 4.0]])), 3,
                        omega_keys(4, 3))
    M = block_matrix(T, [(1,)], [(2,), (3,)], pad_with_zero_label=True)
    assert np.allclose(M, [[6.0, 8.0]])
    M = block_matrix(T, [(1,), (2,)], [(3,)], pad_with_zero_label=True)
    assert np.allclose(M, [[8.0], [12.0]])


def test_block_matrix_missing_and_collision():
    keys = [k for k in omega_keys(4, 3) if k != (0, 1, 2)]
    T = from_components(ComponentList(np.array([[1.0, 2.0, 3.0, 4.0]])), 3, keys)
    with pytest.raises(MissingEntry):
        block_matrix(T, [(1,)], [(2,)], pad_with_zero_label=True)
    with pytest.raises(MissingEntry) as exc:
        T.gather([(3, 1, 0), (2, 1, 0), (0, 1, 4), (0, 2, 3)])
    assert exc.value.key == (0, 1, 2)
    full = from_components(ComponentList(np.array([[1.0, 2.0, 3.0, 4.0]])), 3,
                           omega_keys(4, 3))
    with pytest.raises(KeyCollision):
        block_matrix(full, [(1,)], [(1, 2)], pad_with_zero_label=False)


def test_block_matrix_factorization():
    # block of a component sum equals sum of outer products of the
    # component restrictions, with the padding coordinate as a factor
    rng = np.random.default_rng(5)
    d, m, r = 8, 3, 3
    comps = rng.standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    rows = [(1,), (2,), (3,)]
    cols = [(4,), (5,), (6,), (7,)]
    M = block_matrix(T, rows, cols, pad_with_zero_label=True)
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
    T = from_components(ComponentList(comps), 3, keys)
    scaled = IncompleteSymmetricTensor(
        6, 3, {k: 3.0 * v for k, v in T.entries.items()}
    )
    assert omega_norm(scaled, keys) == pytest.approx(3.0 * omega_norm(T, keys))
    assert omega_norm(T, list(reversed(keys))) == pytest.approx(omega_norm(T, keys))


def test_perturb():
    comps = ComponentList(np.random.default_rng(1).standard_normal((2, 6)))
    keys = omega_keys(6, 3)
    T = from_components(comps, 3, keys)
    assert perturb(T, 0.0, 3).entries == T.entries
    Th = perturb(T, 0.1, 3)
    diff = IncompleteSymmetricTensor(
        6, 3, {k: Th.entries[k] - T.entries[k] for k in keys}
    )
    assert omega_norm(diff, keys) == pytest.approx(0.1, abs=1e-12)
    again = perturb(T, 0.1, 3)
    assert again.entries == Th.entries
    other = perturb(T, 0.1, 4)
    assert other.entries != Th.entries


def test_json_round_trip():
    comps = ComponentList(np.random.default_rng(2).standard_normal((2, 5)))
    T = from_components(comps, 3, omega_keys(5, 3))
    text = to_json(T)
    back = from_json(text)
    assert back.d == T.d and back.m == T.m
    for k in T.keys():
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
], ids=["slots", "ragged-slots", "range", "negative", "unsorted", "nan", "inf",
        "json-slots", "json-ragged-slots", "json-range", "json-unsorted",
        "json-descending", "json-nan"])
def test_malformed_tensor_rejected(build):
    with pytest.raises(InvalidTensor):
        build()


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
def test_from_components_rejects_order_below_one(m):
    with pytest.raises(InvalidTensor):
        from_components(ComponentList(np.ones((1, 5))), m, [()])


def test_omega_keys_rejects_negative_order():
    with pytest.raises(InvalidTensor):
        omega_keys(5, -1)


def test_json_round_trip_is_exact_and_compact():
    rng = np.random.default_rng(4)
    comps = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    T = from_components(ComponentList(comps), 4, omega_keys(7, 4))
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
    P = slot_partials(V, keys)
    J = product_jacobian(V, keys)
    assert P.shape == (3, 4, 3) and J.shape == (4, 3, 5)
    ref_J = np.zeros_like(J)
    for i in range(3):
        for k, key in enumerate(keys.tolist()):
            for t, a in enumerate(key):
                partial = np.prod(V[i, key[:t] + key[t + 1:]])
                assert P[i, k, t] == pytest.approx(partial, rel=1e-14)
                ref_J[k, i, a] += partial
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
