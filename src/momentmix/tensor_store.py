"""Storage and block extraction for incomplete symmetric tensors.

Only sorted keys are stored; a full dense tensor is never materialized.
A tensor is two aligned read-only arrays: ``key_array``, (n, m) integer
keys whose slots lie in [0, d) and never decrease, in strictly ascending
lexicographic order; and ``values``, the (n,) finite complex entries at
those keys.  A key's code is its base-d integer, first slot most
significant, so lexicographic order is code order and ``gather`` finds a
batch of keys with one ``np.searchsorted``.  ``entries``, a tuple-keyed
dict of the same entries, is derived from the arrays on first access.

The norm over a key set counts every sorted distinct-index key with its
m! ordered-tuple multiplicity, matching the Hilbert-Schmidt convention
on subtensors.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combinatorics import IndexSubset
from .errors import InvalidTensor, KeyCollision, MissingEntry, OrderExceedsDim
from .numerics import rng_from

TensorKey = tuple[int, ...]


def omega_keys(d: int, m: int) -> list[TensorKey]:
    """All C(d, m) sorted distinct-index keys of an order-m tensor of
    dimension d, lexicographic order."""
    if m < 0:
        raise InvalidTensor("order must be nonnegative")
    if m > d:
        raise OrderExceedsDim(f"order {m} exceeds dimension {d}")
    return list(itertools.combinations(range(d), m))


@dataclass
class ComponentList:
    """Vectors q_1..q_r of length d with optional scalar weights."""

    vectors: np.ndarray  # (r, d) complex
    weights: np.ndarray | None = None  # (r,) complex, 1 when absent

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=complex)
            if self.weights.shape != (self.vectors.shape[0],):
                raise ValueError("weights length must match component count")

    @property
    def r(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def effective_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.r, dtype=complex)
        return self.weights


class IncompleteSymmetricTensor:
    """Order-m symmetric tensor of dimension d stored on sorted keys only.

    Built from a mapping of sorted key tuples to values; every key and
    value is checked in one vectorised pass.
    """

    def __init__(self, d: int, m: int, entries: Mapping | None = None):
        entries = entries or {}
        keys = _key_array(list(entries), m)
        order = np.lexsort(keys.T[::-1])
        values = np.array(list(entries.values()), dtype=complex)
        self._store(d, m, keys[order], values[order])

    @classmethod
    def _from_arrays(cls, d: int, m: int, keys, values) -> IncompleteSymmetricTensor:
        T = cls.__new__(cls)
        T._store(d, m, keys, values)
        return T

    def _store(self, d: int, m: int, keys: np.ndarray, values):
        if m < 1:
            raise InvalidTensor("order must be positive")
        if d ** m > np.iinfo(np.int64).max:
            raise InvalidTensor(f"d={d}, m={m} overflow the 64-bit key codes")
        values = np.array(values, dtype=complex)
        if values.shape != (len(keys),):
            raise InvalidTensor(f"{values.size} values for {len(keys)} keys")
        _reject(((keys < 0) | (keys >= d)).any(axis=1), keys,
                f"key {{}} out of range for dimension {d}")
        _reject((keys[:, 1:] < keys[:, :-1]).any(axis=1), keys, "key {} is not sorted")
        _reject(~np.isfinite(values), keys, "non-finite value at key {}")
        self._radix = d ** np.arange(m - 1, -1, -1, dtype=np.int64)
        codes = keys @ self._radix
        _reject(codes[1:] <= codes[:-1], keys[1:], "keys not strictly ascending at {}")
        self.d, self.m, self.key_array, self.values = d, m, keys, values
        # The sentinel above every valid code keeps each searchsorted
        # position a valid index.
        self._codes = np.append(codes, np.iinfo(np.int64).max)
        for arr in (keys, values, self._codes):
            arr.setflags(write=False)

    def gather(self, keys) -> np.ndarray:
        """Stored values at an array of keys of shape (..., m), each key in
        any slot order; the result has shape (...).  Raises MissingEntry
        naming the first key that is not stored."""
        rows = np.sort(np.asarray(keys, dtype=np.int64), axis=-1)
        inside = ((rows >= 0) & (rows < self.d)).all(axis=-1)
        codes = np.where(inside, rows @ self._radix, -1)  # -1 matches no stored code
        pos = np.searchsorted(self._codes, codes)
        missing = self._codes[pos] != codes
        if missing.any():
            first = np.unravel_index(np.argmax(missing), missing.shape)
            raise MissingEntry(tuple(rows[first].tolist()))
        return self.values[pos]

    def __getitem__(self, key) -> complex:
        return complex(self.gather(key))

    def with_values(self, values) -> IncompleteSymmetricTensor:
        """The same keys holding other values, aligned with ``key_array``."""
        return self._from_arrays(self.d, self.m, self.key_array, values)

    def keys(self) -> list[TensorKey]:
        return [tuple(k) for k in self.key_array.tolist()]

    @cached_property
    def entries(self) -> dict[TensorKey, complex]:
        """Key tuple -> value view, built on first access and cached; the
        arrays stay the tensor, so writing to the view changes no lookup."""
        return dict(zip(self.keys(), self.values.tolist()))


def _key_array(keys, m: int) -> np.ndarray:
    """(n, m) integer array of a sequence of keys."""
    try:
        return np.array(keys, dtype=np.int64).reshape(len(keys), m)
    except (TypeError, ValueError) as exc:
        raise InvalidTensor(f"keys must be sequences of {m} integers") from exc


def _reject(bad: np.ndarray, keys: np.ndarray, message: str):
    if bad.any():
        raise InvalidTensor(message.format(tuple(keys[np.argmax(bad)].tolist())))


def from_components(
    comps: ComponentList, m: int, keys: list[TensorKey] | np.ndarray
) -> IncompleteSymmetricTensor:
    """Evaluate sum_i lambda_i q_i[i1]...q_i[im] at every requested key."""
    if m < 1:
        raise InvalidTensor("order must be positive")
    key_arr = _key_array(keys, m)
    key_arr = key_arr[np.lexsort(key_arr.T[::-1])]
    prods = component_products(comps.vectors, key_arr)
    prods *= comps.effective_weights()[:, None]
    values = prods.sum(axis=0)
    return IncompleteSymmetricTensor._from_arrays(comps.d, m, key_arr, values)


def component_products(vectors: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(r, n_keys) products vectors[:, k1] * ... * vectors[:, km] over the
    rows of an (n_keys, m) key array, m >= 1.

    Slots are folded left to right into one output array, the order
    ``np.prod`` multiplies in, so the result is the same bit for bit
    without an (r, n_keys, m) temporary.
    """
    out = vectors[:, keys[:, 0]]
    for t in range(1, keys.shape[1]):
        out *= vectors[:, keys[:, t]]
    return out


def slot_partials(vectors: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(r, n_keys, m) partial derivatives of each key's product: entry
    [i, k, t] is the product of vectors[i] over every slot of key k but
    slot t, the derivative with respect to the coordinate in slot t.

    Built from prefix and suffix products, so nothing is divided.  The
    result is a view whose memory runs (n_keys, m, r), C order.
    """
    gathered = vectors.T[keys]  # (n_keys, m, r), one block per slot
    out = np.ones_like(gathered)
    for t in range(1, keys.shape[1]):
        np.multiply(out[:, t - 1], gathered[:, t - 1], out=out[:, t])
    suffix = np.ones_like(gathered[:, 0])
    for t in range(keys.shape[1] - 2, -1, -1):
        suffix *= gathered[:, t + 1]
        out[:, t] *= suffix
    return out.transpose(2, 0, 1)


def product_jacobian(vectors: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(n_keys, r, d) derivatives of each key's product with respect to
    vectors[i, a]: the slot partials summed over the slots holding a."""
    n = keys.shape[0]
    r, d = vectors.shape
    partials = slot_partials(vectors, keys)
    J = np.zeros((n, r, d), dtype=partials.dtype)
    rows = np.arange(n)
    for t in range(keys.shape[1]):
        # one slot per statement, so a repeated index accumulates
        J[rows, :, keys[:, t]] += partials[:, :, t].T
    return J


def block_matrix(
    T: IncompleteSymmetricTensor,
    rows: list[IndexSubset],
    cols: list[IndexSubset],
    pad_with_zero_label: bool = False,
) -> np.ndarray:
    """Matrix of tensor entries at keys row ∪ col (∪ {0} when padding).

    Every (row, col) pair must join into distinct labels; with padding the
    joined label set has m-1 elements, none of them 0.
    """
    if pad_with_zero_label:
        rows = [(0,) + row for row in rows]
    row_arr = np.array(rows, dtype=np.int64)[:, None, :]
    col_arr = np.array(cols, dtype=np.int64)[None, :, :]
    parts = [row_arr.repeat(len(cols), axis=1), col_arr.repeat(len(rows), axis=0)]
    labels = np.sort(np.concatenate(parts, axis=2), axis=2)
    shared = (labels[:, :, 1:] == labels[:, :, :-1]).any(axis=2)
    if shared.any():
        i, j = np.argwhere(shared)[0]
        raise KeyCollision(f"row {rows[i]} and col {cols[j]} share labels")
    if labels.shape[2] != T.m:
        raise ValueError(
            f"row {rows[0]} + col {cols[0]} has {labels.shape[2]} labels, need {T.m}"
        )
    return T.gather(labels)


def omega_norm(T: IncompleteSymmetricTensor, keys) -> float:
    """sqrt(m! * sum |T[key]|^2): each sorted distinct-index key counted
    with its m! ordered occurrences."""
    values = T.gather(keys)
    return math.sqrt(math.factorial(T.m) * float(np.vdot(values, values).real))


def perturb(
    T: IncompleteSymmetricTensor, epsilon: float, seed: int
) -> IncompleteSymmetricTensor:
    """Add a real Gaussian noise tensor on the same keys, rescaled so its
    weighted norm equals ``epsilon``.  Deterministic per seed."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0:
        return T.with_values(T.values)
    noise = rng_from(seed, "perturb").standard_normal(len(T.values))
    scale = epsilon / math.sqrt(math.factorial(T.m) * float(noise @ noise))
    return T.with_values(T.values + scale * noise)


def to_json(T: IncompleteSymmetricTensor) -> str:
    records = [
        {"key": k, "re": re, "im": im}
        for k, re, im in zip(
            T.key_array.tolist(), T.values.real.tolist(), T.values.imag.tolist()
        )
    ]
    # Unindented, json runs its C encoder; indenting runs the pure-Python
    # one, several times slower on large tensors.
    return json.dumps(
        {"d": T.d, "m": T.m, "entries": records}, separators=(",", ":")
    )


def from_json(text: str) -> IncompleteSymmetricTensor:
    """Tensor from ``to_json`` text; keys must be strictly ascending.

    Text that is not JSON raises ``json.JSONDecodeError``; a JSON document
    with a missing or malformed field raises InvalidTensor naming it.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidTensor("tensor document must be a JSON object")
    d, m = (_int_field(doc, name) for name in ("d", "m"))
    records = doc.get("entries")
    if not isinstance(records, list):
        raise InvalidTensor("tensor document needs an 'entries' list")
    values = np.empty(len(records), dtype=complex)
    try:
        re = [rec["re"] for rec in records]
        im = [rec.get("im", 0.0) for rec in records]
        # numpy would read a numeric string, a bool or a one-item list as a
        # number, so every value must be a JSON number
        if not set(map(type, re)).union(map(type, im)) <= {int, float}:
            raise TypeError
        values.real = re
        values.imag = im
        keys = [rec["key"] for rec in records]
    except (AttributeError, KeyError, TypeError, ValueError):
        raise InvalidTensor(_bad_record(records)) from None
    return IncompleteSymmetricTensor._from_arrays(d, m, _key_array(keys, m), values)


def _int_field(doc: dict, name: str) -> int:
    value = doc.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidTensor(f"tensor document needs an integer {name!r}")
    return value


def _bad_record(records: list) -> str:
    """Why the first malformed entry record is malformed."""
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            return f"entry {i} is not an object"
        for name in ("key", "re"):
            if name not in rec:
                return f"entry {i} has no {name!r}"
        for name in ("re", "im"):
            if type(rec.get(name, 0.0)) not in (int, float):
                return f"entry {i} has a non-numeric {name!r}"
    return "malformed entry record"
