"""Storage and keyed gathers for incomplete symmetric tensors.

Only sorted keys are stored; a full dense tensor is never materialized.
A tensor is two aligned read-only arrays: ``key_array``, (n, m) integer
keys whose slots lie in [0, d) and never decrease, in strictly ascending
lexicographic order; and ``values``, the (n,) finite complex entries at
those keys.  A key's code is its base-d integer, first slot most
significant, so lexicographic order is code order and ``gather`` finds a
batch of keys with one ``np.searchsorted``.  Key sets are (n, m) int64
arrays (``omega_keys``, ``block_keys``); only ``entries``, a tuple-keyed
dict of the same entries, derived from the arrays on first access, holds
tuples.

Products over many keys run on one ``PrefixTree`` per key array, which
multiplies each distinct prefix of ascending keys once and lays the keys
out in ragged cells, one GEMM per block of prefixes:
``decomposition.solve_scales``, reconstructions and J^H f on the
tensor's cached ``tree``, and ``gmm``'s sample moments (a reconstruction
per row chunk, with the samples in place of the components) and moment
refinement on trees of their own.  J^H f at vectors whose prefix
products a reconstruction has just formed reads them
(``PrefixTree.adjoint_at``): the LM refinement makes one pass over the
tree's products per point.  Its level folds are bin sums on indices
built once per tree and row width.  The split of a Gram over the stored
keys into a closed form and per-key terms is a cached property of the
tensor (``gram_terms``), shared by the scale stage and the LM.

The norm over a key set counts every sorted distinct-index key with its
m! ordered-tuple multiplicity, matching the Hilbert-Schmidt convention
on subtensors (``weighted_norm``).

``to_json`` writes a tensor as one JSON object, a ``{"key", "re", "im"}``
record per stored key in key order, byte for byte the stdlib's compact
``json.dumps`` of that document.  It joins the text from string pieces:
the keys' and the values' digits each come from one ``orjson`` encoding,
except the values that CPython's ``repr`` writes with an exponent (nonzero
|x| < 1e-4 and |x| >= 1e16), which ``repr`` writes.  Both give the
shortest digits that round to the double and differ only in where they
switch to an exponent; on a 53,130-record tensor that is about four times
as fast as the stdlib's encoder.  ``from_json`` reads the text back with
every check above.  It parses with ``orjson``, about three times as fast
as ``json``; only text that orjson rejects (not JSON, or NaN, Infinity or
a number past the double range) is parsed again by ``json``, whose errors
and non-finite floats the caller then sees.  ``from_json`` and the
mapping constructor check keys of Python integers in one C pass over
their orjson encoding (``_int_keys``); orjson is imported on first use.
Reads and writes pause CPython's cyclic garbage collector
(``_collector_paused``), whose passes over the records took about a
third of each call.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from collections.abc import Mapping
from contextlib import contextmanager
from functools import cached_property
from operator import itemgetter

import numpy as np

from .combinatorics import binomial, lex_positions, subsets_lex
from .errors import InvalidTensor, MissingEntry, OrderExceedsDim
from .numerics import rng_from

# Cells a ``PrefixTree`` group may hold to fold into the block before it,
# and cells the merged block may hold beyond its groups' own.  Over a
# 512-sample moment chunk one GEMM call costs about what 64 cells of
# arithmetic do, so only small groups gain by merging; larger merged blocks
# can be slower than their groups apart: per chunk, the d=15, m=5
# repeated-pair tree's 13 groups took 0.58 ms as two blocks of 364 and 91
# rows and 0.44 ms as 13 GEMMs (OpenBLAS, one thread).
_BLOCK_WASTE = 64


def omega_keys(d: int, m: int) -> np.ndarray:
    """All C(d, m) sorted distinct-index keys of an order-m tensor of
    dimension d, a (C(d, m), m) int64 array in lexicographic order."""
    if m < 0:
        raise InvalidTensor("order must be nonnegative")
    if m > d:
        raise OrderExceedsDim(f"order {m} exceeds dimension {d}")
    return subsets_lex(0, d - 1, m)


class IncompleteSymmetricTensor:
    """Order-m symmetric tensor of dimension d stored on sorted keys only.

    Built from a mapping of sorted key tuples to values; every key and
    value is checked in one vectorised pass.
    """

    def __init__(self, d: int, m: int, entries: Mapping):
        listed = list(entries)
        keys = _int_keys(listed, m)
        if keys is None:
            keys = _key_array(listed, m)
        values = np.array(list(entries.values()), dtype=complex)
        if not _in_lex_order(keys, d, m):
            order = np.lexsort(keys.T[::-1])
            keys, values = keys[order], values[order]
        self._store(d, m, keys, values)

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
        _reject_out_of_range(keys, d)
        _reject((keys[:, 1:] < keys[:, :-1]).any(axis=1), keys, "key {} is not sorted")
        _reject(~np.isfinite(values), keys, "non-finite value at key {}")
        self._radix = _radix(d, m)
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
        naming the first key that is not stored, and InvalidTensor naming
        the first that is not m integer slots."""
        try:
            rows = np.asarray(keys)
        except ValueError:  # keys of different lengths
            raise InvalidTensor(f"key {_ragged_key(keys, self.m)!r} is not "
                                f"{self.m} integer slots") from None
        if rows.shape[-1:] != (self.m,) or (rows.size and rows.dtype.kind not in "iu"):
            raise InvalidTensor(f"key {_first_bad_key(rows, self.m)} is not "
                                f"{self.m} integer slots")
        # sorted as given, so a uint64 slot past int64 is named as it is
        rows = np.sort(rows, axis=-1)
        inside = ((rows >= 0) & (rows < self.d)).all(axis=-1)
        # -1 matches no stored code
        codes = np.where(inside, rows.astype(np.int64, copy=False) @ self._radix, -1)
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

    @cached_property
    def entries(self) -> dict[tuple[int, ...], complex]:
        """Key tuple -> value view, built on first access and cached; the
        arrays stay the tensor, so writing to the view changes no lookup."""
        return dict(zip(map(tuple, self.key_array.tolist()), self.values.tolist()))

    @cached_property
    def tree(self) -> PrefixTree:
        """The ``PrefixTree`` of the read-only keys (order m >= 2), built on
        first use."""
        return PrefixTree(self.key_array)

    @cached_property
    def gram_terms(self) -> tuple[bool, np.ndarray, np.ndarray]:
        """(closed, keys, sign): a Gram over the stored keys is the closed
        form over all ``omega_keys(d, m)`` when ``closed``, plus sign times
        each key's own Gram, +1 per stored repeated-index key and -1 per
        absent distinct-index key; with fewer keys stored than those, the
        stored keys' own Gram alone (signs +1), cheaper and free of
        cancellation.  Worked out on first use and cached, so the scale
        stage and the LM refinement of one tensor share it."""
        key_arr, d, m = self.key_array, self.d, self.m
        has_repeat = (key_arr[:, 1:] == key_arr[:, :-1]).any(axis=1)
        repeated, absent = key_arr[has_repeat], key_arr[:0]
        if len(key_arr) - len(repeated) < binomial(d, m):  # a distinct-index key is absent
            distinct = omega_keys(d, m)
            absent = np.delete(distinct, lex_positions(distinct, key_arr[~has_repeat]), axis=0)
        if len(key_arr) < len(repeated) + len(absent):
            return False, key_arr, np.ones(len(key_arr))
        sign = np.repeat([1.0, -1.0], [len(repeated), len(absent)])
        return True, np.concatenate([repeated, absent]), sign


def _key_array(keys, m: int) -> np.ndarray:
    """(n, m) int64 array of a sequence of keys; a slot that is not an
    integer raises InvalidTensor, and so does one past int64, naming its
    key.  The inferred dtype catches floats; bools among integers infer as
    integers and need a pass over the slot types."""
    try:
        arr = np.asarray(keys)
        bools = not isinstance(keys, np.ndarray) and {bool, np.bool_} & set(
            map(type, itertools.chain.from_iterable(keys)))
        if (arr.size and arr.dtype.kind not in "iu") or bools:
            raise TypeError
        arr = arr.reshape(len(keys), m)
    except (TypeError, ValueError) as exc:
        raise InvalidTensor(f"keys must be sequences of {m} integers") from exc
    if arr.dtype.kind == "u":  # cast to int64, a slot past it would wrap
        _reject((arr > np.iinfo(np.int64).max).any(axis=1), arr, "key {} has a slot past int64")
    return arr.astype(np.int64, copy=False)


def _first_bad_key(rows: np.ndarray, m: int) -> tuple:
    """The first key of an (..., s) array that is not m integer slots: the
    first row when s != m, else the first with a fraction or a NaN among
    its slots, or the first row when none has one."""
    if not rows.size:
        return ()
    flat = rows.reshape(-1, rows.shape[-1] if rows.ndim else 1)
    at = 0
    if flat.shape[1] == m and flat.dtype.kind == "f":
        at = int(np.argmax((flat != np.floor(flat)).any(axis=1)))
    return tuple(flat[at].tolist())


def _ragged_key(keys, m: int):
    """The first key that is not m slots in a ragged nest of keys, searched
    depth first; an item is a nest when it holds only sequences.  When every
    key is m slots and only the nests differ, the first top-level item that
    is not m slots."""

    def search(nest):
        for item in nest:
            shape = _shape(item)
            if shape == (m,):
                continue
            if shape != () and all(_shape(sub) != () for sub in item):
                found = search(item)
                if found is not None:
                    return found
            else:
                return item
        return None

    found = search(keys)
    return found if found is not None else next(k for k in keys if _shape(k) != (m,))


def _shape(key) -> tuple | None:
    try:
        return np.shape(key)
    except ValueError:  # ragged
        return None


def _reject(bad: np.ndarray, keys: np.ndarray, message: str):
    if bad.any():
        raise InvalidTensor(message.format(tuple(keys[np.argmax(bad)].tolist())))


def _reject_out_of_range(keys: np.ndarray, d: int):
    _reject(((keys < 0) | (keys >= d)).any(axis=1), keys,
            f"key {{}} out of range for dimension {d}")


def from_components(vectors, m: int, keys) -> IncompleteSymmetricTensor:
    """Evaluate sum_i q_i[i1]...q_i[im] at every requested key, the rows
    q_i of the (r, d) vectors taken as complex."""
    if m < 1:
        raise InvalidTensor("order must be positive")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    d = vectors.shape[1]
    key_arr = _key_array(keys, m)
    if not _in_lex_order(key_arr, d, m):  # callers mostly pass keys in lex order
        _reject_out_of_range(key_arr, d)  # before a slot past d indexes the vectors
        key_arr = key_arr[np.lexsort(key_arr.T[::-1])]
    values = component_products(vectors, key_arr).sum(axis=0)
    return IncompleteSymmetricTensor._from_arrays(d, m, key_arr, values)


def _radix(d: int, m: int) -> np.ndarray:
    """Place values of a key's slots in its base-d code, first slot most
    significant."""
    return d ** np.arange(m - 1, -1, -1, dtype=np.int64)


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


class PrefixTree:
    """The distinct prefixes of an (n_keys, m) key array (order m >= 2),
    the ragged cells its keys occupy, and the products of (r, d) vectors
    over its keys that walk them.  Adjacent keys with a common prefix share
    its node: ascending keys multiply each distinct prefix once; other row
    orders, repeated rows or unsorted slots give the same products with
    less sharing.

    ``levels`` list the (s+1)-slot prefixes (1 <= s <= m-2) as ``(parent,
    coord)``: prefix ``parent[j]`` of the level below (the coordinates
    below level 1), then coordinate ``coord[j]``.  A key's leaf prefix is
    its first m-1 slots, a prefix of the top level (a coordinate at m = 2,
    where there is no level).  The leaf prefixes that keys use are grouped
    by their last coordinate, each group in tree order, and the top level
    lists them in group order; ``order[j]`` is row j's leaf prefix in tree
    order (its coordinate at m = 2).  A sorted key's last slot is at least
    its prefix's last coordinate, so a group needs only the columns [lo,
    hi) that its keys' last slots span.  A group of at most
    ``_BLOCK_WASTE`` cells folds into the block before it while the merged
    block, its rows times its column span, holds at most ``_BLOCK_WASTE``
    cells beyond its groups' own (``_block_starts``): a small tree is a few
    GEMMs instead of one per coordinate, a large one keeps about one per
    group.  Each ``blocks`` entry is a block's (rows, columns, cells): its
    rows of the leaf products in group order (``products``), its columns,
    and its (rows x columns) block of one flat buffer of ``size`` cells,
    where key k's cell is ``slot[k]``; the other cells of a block belong
    to no key."""

    def __init__(self, keys: np.ndarray):
        n, m = keys.shape
        leaf, last = keys[:, 0], keys[:, -1]  # leaf: each key's prefix in tree order
        new = np.ones(n, dtype=bool)  # new[k]: key k's prefix differs from key k-1's
        new[1:] = keys[1:, 0] != keys[:-1, 0]
        levels = []
        for s in range(1, m - 1):
            new[1:] |= keys[1:, s] != keys[:-1, s]
            starts = np.flatnonzero(new)
            levels.append((leaf[starts], keys[starts, s]))
            leaf = np.cumsum(new) - 1
        n_prefix = len(levels[-1][0]) if levels else int(leaf.max(initial=-1)) + 1
        lo = np.full(n_prefix, np.iinfo(np.int64).max)
        np.minimum.at(lo, leaf, last)
        hi = np.full(n_prefix, -1)
        np.maximum.at(hi, leaf, last)
        used = np.flatnonzero(hi >= 0)
        ends = levels[-1][1][used] if levels else used
        by_end = np.argsort(ends, kind="stable")
        self.order = used[by_end]
        if levels:
            parent, coord = levels[-1]
            levels[-1] = (parent[self.order], coord[self.order])
        self.levels = levels
        starts = np.flatnonzero(np.diff(ends[by_end], prepend=-1))
        lo = np.minimum.reduceat(lo[self.order], starts)
        hi = np.maximum.reduceat(hi[self.order], starts) + 1
        first = _block_starts(np.diff(starts, append=len(by_end)), lo, hi)
        starts = starts[first]
        rows = np.append(starts, len(by_end))
        lo = np.minimum.reduceat(lo, first)
        width = np.maximum.reduceat(hi, first) - lo
        offsets = np.concatenate([[0], np.cumsum(np.diff(rows) * width)])
        self.size = int(offsets[-1])
        self.blocks = [
            (slice(r0, r1), slice(c0, c0 + w), slice(o0, o1))
            for r0, r1, c0, w, o0, o1 in zip(rows.tolist(), rows[1:].tolist(), lo.tolist(),
                                             width.tolist(), offsets.tolist(), offsets[1:].tolist())
        ]
        group = np.repeat(np.arange(len(starts)), np.diff(rows))
        cell_0 = np.empty(n_prefix, dtype=np.int64)  # each prefix's cell at column 0
        cell_0[self.order] = (offsets[group] - lo[group]
                              + (np.arange(len(by_end)) - rows[group]) * width[group])
        self.slot = cell_0[leaf] + last
        self._fold_bins = {}  # row width -> ``_folds``

    def products(self, vectors: np.ndarray) -> list[np.ndarray]:
        """[vectors.T, P_1, ..., P_s] in C order over ``levels``, ending
        with the (n_rows, r) leaf products in group order (appended at
        m = 2): row j of P_s is each vector's product over prefix j of
        level s, its parent's product times one row of vectors.T (the fold
        of ``component_products``)."""
        rows = np.ascontiguousarray(vectors.T)
        prods = [rows]
        for parent, coord in self.levels:
            level = prods[-1][parent]
            level *= rows[coord]
            prods.append(level)
        if not self.levels:
            prods.append(rows[self.order])
        return prods

    def gemm(self, leaf_products: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Each key's cell of leaf_products @ right, (r, d) right, one GEMM
        per block."""
        out = np.empty(self.size, dtype=np.result_type(leaf_products, right))
        for rows, cols, cells in self.blocks:
            block = out[cells].reshape(-1, cols.stop - cols.start)
            np.matmul(leaf_products[rows], right[:, cols], out=block)
        return out[self.slot]

    def gemm_adjoint(self, leaf_products: np.ndarray, f: np.ndarray, d: int) -> np.ndarray:
        """(r, d) leaf_products^T F, F the buffer holding f at the keys'
        cells and 0 elsewhere, one GEMM per block."""
        F = np.zeros(self.size, dtype=f.dtype)
        F[self.slot] = f
        out = np.zeros((leaf_products.shape[1], d), dtype=np.result_type(leaf_products, f))
        for rows, cols, cells in self.blocks:
            out[:, cols] += leaf_products[rows].T @ F[cells].reshape(-1, cols.stop - cols.start)
        return out

    def reconstruction(self, vectors: np.ndarray) -> np.ndarray:
        """sum_i prod_t vectors[i, key_t] per key, one GEMM per block of the
        leaf products and the vectors; the in-order sum of
        ``component_products`` over the components up to rounding."""
        return self.gemm(self.products(vectors)[-1], vectors)

    def adjoint(self, vectors: np.ndarray, f: np.ndarray) -> np.ndarray:
        """(r, d) J^H f, J the Jacobian of ``reconstruction``, complex or
        real as the vectors and f are; of repeated keys, one f counts:
        ``adjoint_at`` on the vectors' ``products``."""
        return self.adjoint_at(self.products(vectors), f)

    def adjoint_at(self, prods: list[np.ndarray], f: np.ndarray) -> np.ndarray:
        """``adjoint`` at the vectors whose ``products`` are ``prods``, so a
        caller that has just reconstructed at them forms no product again.
        Per block, F holding f, the last slot adds F^T conj(P_rows) and the
        leaf adjoint is F conj(vectors.T[cols]), in block order.  Each level
        then adds its adjoint times the parents' conjugated products into
        its coordinates and folds it, times its coordinates' conjugated
        rows, into the parents: both bin sums in row order from zero, on
        bins built once per row width (``_folds``)."""
        right = prods[0].conj()  # (d, r)
        d, leaf = len(right), prods[-1].conj()
        grad = np.zeros(right.shape, dtype=np.result_type(right, f))
        adjoint = np.empty(leaf.shape, dtype=grad.dtype)
        F = np.zeros(self.size, dtype=f.dtype)
        F[self.slot] = f
        for rows, cols, block in self.blocks:
            F_block = F[block].reshape(-1, cols.stop - cols.start)
            grad[cols] += F_block.T @ leaf[rows]
            np.matmul(F_block, right[cols], out=adjoint[rows])
        folds = self._folds(adjoint.view(float).shape[1])
        for s in range(len(self.levels), 0, -1):
            parent, coord = self.levels[s - 1]
            to_coord, to_parent = folds[s - 1]
            grad += _fold(adjoint * prods[s - 1].conj()[parent], to_coord, d)
            adjoint = _fold(adjoint * right[coord], to_parent, len(prods[s - 1]))
        grad[self.order if not self.levels else slice(None)] += adjoint
        return grad.T

    def _folds(self, width: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level, the ``np.bincount`` bins of its rows' coordinates and
        of their parents, for rows of ``width`` floats (r, or 2r when
        complex): bin ``index * width + column`` per entry, built on the
        first fold at that width and kept."""
        folds = self._fold_bins.get(width)
        if folds is None:
            span = np.arange(width)
            folds = self._fold_bins[width] = [
                tuple((index[:, None] * width + span).ravel() for index in (coord, parent))
                for parent, coord in self.levels
            ]
        return folds


def _block_starts(n_rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[int]:
    """The groups, of n_rows rows and columns [lo, hi) each, that start a
    block: a group of at most ``_BLOCK_WASTE`` cells folds into the block
    before it while the merged block, its rows times its column span, has
    at most ``_BLOCK_WASTE`` cells beyond its groups' own."""
    first, rows, start, stop, own = [], 0, 0, 0, 0  # the current block
    for g, (n, a, b) in enumerate(zip(n_rows.tolist(), lo.tolist(), hi.tolist())):
        merged = (rows + n, min(start, a), max(stop, b), own + n * (b - a))
        if (first and n * (b - a) <= _BLOCK_WASTE
                and merged[0] * (merged[2] - merged[1]) - merged[3] <= _BLOCK_WASTE):
            rows, start, stop, own = merged
        else:
            first.append(g)
            rows, start, stop, own = n, a, b, n * (b - a)
    return first


def _fold(rows: np.ndarray, bins: np.ndarray, n_bins: int) -> np.ndarray:
    """(n_bins, r) sums of an (n, r) real or complex array's rows by the
    index that ``bins`` were built from (``PrefixTree._folds``), each in
    row order from zero, as bin sums of the real (and imaginary) parts."""
    parts = rows.view(float)
    sums = np.bincount(bins, parts.ravel(), n_bins * parts.shape[1])
    return sums.view(rows.dtype).reshape(n_bins, rows.shape[1])


def product_jacobian(vectors: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(n_keys, r, d) derivatives of each key's product (order m >= 2) with
    respect to vectors[i, a]: per slot, the product over the key without
    that slot, summed over the slots holding a."""
    n = keys.shape[0]
    J = np.zeros((n,) + vectors.shape, dtype=vectors.dtype)
    rows = np.arange(n)
    for t in range(keys.shape[1]):
        # one slot per statement, so a repeated index accumulates
        J[rows, :, keys[:, t]] += component_products(vectors, np.delete(keys, t, axis=1)).T
    return J


def block_keys(rows, cols) -> np.ndarray:
    """(n_rows, n_cols, a + b) keys: each of the (n_rows, a) rows joined to
    each of the (n_cols, b) columns, slots in that order."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    shape = (len(rows), len(cols))
    return np.concatenate([np.broadcast_to(rows[:, None], shape + rows.shape[1:]),
                           np.broadcast_to(cols[None], shape + cols.shape[1:])], axis=2)


def weighted_norm(values: np.ndarray, m: int) -> float:
    """sqrt(m! * sum |v|^2) of the values at sorted distinct-index keys of
    an order-m tensor: each counted with its m! ordered occurrences."""
    return math.sqrt(math.factorial(m) * float(np.vdot(values, values).real))


def omega_norm(T: IncompleteSymmetricTensor, keys) -> float:
    """``weighted_norm`` of T's values at the keys."""
    return weighted_norm(T.gather(keys), T.m)


def perturb(
    T: IncompleteSymmetricTensor, epsilon: float, seed: int
) -> IncompleteSymmetricTensor:
    """Add a real Gaussian noise tensor on the same keys, rescaled so its
    weighted norm equals ``epsilon``.  Deterministic per seed."""
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if epsilon == 0:
        return T.with_values(T.values)
    noise = rng_from(seed, "perturb").standard_normal(len(T.values))
    scale = epsilon / weighted_norm(noise, T.m)
    return T.with_values(T.values + scale * noise)


@contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector for a block or a call.

    Parsing or encoding a tensor document allocates a few containers per
    record, and every few hundred allocations start a collection that walks
    the young ones, and now and then all of them, though none can be freed
    while the document is in use: its records form no reference cycles.
    Reference counting frees everything as usual.  On exit, also on an
    exception, the collector is enabled again only if it was on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def to_json(T: IncompleteSymmetricTensor) -> str:
    """The tensor as one JSON object: ``d``, ``m`` and an ``entries`` list
    of ``{"key", "re", "im"}`` records in key order, byte for byte the
    stdlib's ``json.dumps(doc, separators=(",", ":"))``.

    The text is joined from string pieces, not encoded from one dict per
    record.  One ``orjson`` encoding gives every key's digits, and one more
    every value's: orjson and CPython's ``repr`` both write the shortest
    digits that round to the double, and differ only where ``repr``
    switches to an exponent (nonzero |x| < 1e-4 and |x| >= 1e16), so those
    values alone are written by ``repr``.
    """
    import orjson

    doc = json.dumps({"d": T.d, "m": T.m, "entries": []}, separators=(",", ":"))
    n = len(T.values)
    if not n:
        return doc
    keys = orjson.dumps(T.key_array.tolist())[2:-2].decode().split("],[")
    parts = T.values.view(float)  # re and im of each value, interleaved
    numbers = orjson.dumps(parts.tolist())[1:-1].decode().split(",")
    size = np.abs(parts)
    exponent = np.flatnonzero((size >= 1e16) | ((size < 1e-4) & (size > 0)))
    for i, x in zip(exponent.tolist(), parts[exponent].tolist()):
        numbers[i] = repr(x)
    # pieces[6i] opens record i (the first after the document's head), and
    # pieces[6n] closes the last record and the document
    pieces = [""] * (6 * n + 1)
    pieces[0::6] = ['},{"key":['] * (n + 1)
    pieces[1::6] = keys
    pieces[2::6] = ['],"re":'] * n
    pieces[3::6] = numbers[0::2]
    pieces[4::6] = [',"im":'] * n
    pieces[5::6] = numbers[1::2]
    pieces[0], pieces[-1] = doc[:-2] + '{"key":[', "}]}"
    return "".join(pieces)


@_collector_paused()
def from_json(text: str) -> IncompleteSymmetricTensor:
    """Tensor from ``to_json`` text; keys must be strictly ascending.

    Text that is not JSON raises ``json.JSONDecodeError``; a JSON document
    with a missing or malformed field raises InvalidTensor naming it.
    """
    import orjson

    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError:
        # orjson rejects NaN, Infinity and numbers past the double range,
        # which json reads as floats for the non-finite check, and on text
        # that is not JSON json raises its own error and message; only text
        # that orjson rejects is parsed twice
        doc = json.loads(text)
    else:
        if isinstance(doc, dict) and float in (type(doc.get("d")), type(doc.get("m"))):
            # orjson reads an integer past 64 bits as a float, json as the
            # int that the key-code overflow check names
            doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidTensor("tensor document must be a JSON object")
    d, m = (_int_field(doc, name) for name in ("d", "m"))
    records = doc.get("entries")
    if not isinstance(records, list):
        raise InvalidTensor("tensor document needs an 'entries' list")
    n = len(records)
    try:
        re = list(map(itemgetter("re"), records))
        im = [rec.get("im", 0.0) for rec in records]
        # np.fromiter would read a numeric string, a bool or a null as a
        # number, so every value must be a JSON number
        if not set(map(type, re)).union(map(type, im)) <= {int, float}:
            raise TypeError
        values = np.empty(n, dtype=complex)
        values.real = np.fromiter(re, float, count=n)
        values.imag = np.fromiter(im, float, count=n)
        keys = list(map(itemgetter("key"), records))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        raise InvalidTensor(_bad_record(records)) from None
    return IncompleteSymmetricTensor._from_arrays(d, m, _record_keys(keys, m), values)


def _record_keys(keys: list, m: int) -> np.ndarray:
    """(n, m) int64 array of a tensor document's parsed keys: the one-pass
    ``_int_keys`` or, for other keys, ``_key_array`` and its messages with
    the first bad key's entry named."""
    arr = _int_keys(keys, m)
    if arr is not None:
        return arr
    try:
        return _key_array(keys, m)
    except InvalidTensor as exc:  # some key is not m 64-bit integers, or m < 0
        at = next((i for i, key in enumerate(keys) if not _int64_slots(key, m)), None)
        if at is None:
            raise
        raise InvalidTensor(f"entry {at}: {exc}") from exc.__cause__


def _int_keys(keys: list, m: int) -> np.ndarray | None:
    """(n, m) int64 array of a list of keys that are each m Python integers
    within int64, or None for any other keys.

    orjson writes a list of integers with digits, minus signs, commas and
    brackets only, so one C pass over the keys' encoding finds every float,
    bool, string and null slot by the character it leaves; a numpy scalar
    or a slot past 64 bits stops orjson, and one past int64 or a list slot
    stops ``np.fromiter``.
    """
    import orjson

    try:
        if (not orjson.dumps(keys).translate(None, b"0123456789-,[]")
                and set(map(len, keys)) <= {m}):
            return np.fromiter(itertools.chain.from_iterable(keys), np.int64,
                               count=len(keys) * m).reshape(len(keys), m)
    except (TypeError, ValueError, OverflowError):  # orjson.JSONEncodeError is a TypeError
        pass
    return None


def _in_lex_order(keys: np.ndarray, d: int, m: int) -> bool:
    """Whether an (n, m) key array's slots all lie in [0, d) and its codes
    strictly ascend: only then is its lexsort the identity.  Codes past
    int64 read as out of order, for ``_store`` to reject."""
    if d ** m > np.iinfo(np.int64).max or not ((keys >= 0) & (keys < d)).all():
        return False
    codes = keys @ _radix(d, m)
    return not (codes[1:] <= codes[:-1]).any()


def _int64_slots(key, m: int) -> bool:
    """Whether a parsed key is a list of m integers that fit in 64 bits."""
    return type(key) is list and len(key) == m and all(
        type(s) is int and -2**63 <= s < 2**63 for s in key)


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
            value = rec.get(name, 0.0)
            if type(value) not in (int, float):
                return f"entry {i} has a non-numeric {name!r}"
            try:
                float(value)
            except OverflowError:  # an integer literal past the double range
                return f"entry {i} has {name!r} past the double range"
    return "malformed entry record"
