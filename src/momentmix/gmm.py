"""Diagonal Gaussian mixture machinery: sampling, sample and exact
moments, moment-based parameter recovery, an EM baseline, and
classification metrics.

Coordinates are conditionally independent within each component, so every
mixed moment factors into univariate Gaussian moments.  The recovery
pipeline runs the incomplete tensor approximation on the order-m moment
subtensor, phase-corrects the components to real vectors, then solves
nonnegative and simplex-constrained least squares for the weights, means
and variances.  Key sets are (n, m) int64 arrays (``learning_keys``,
``covariance_keys``, the tensor path's ``omega_keys``); only
``MomentSet.values`` keys its moments by sorted tuples.  The designs, and
the exact moments, are products over key arrays from the tensor path's
``component_products``, and each stage reads its moments with one
``MomentSet.gather``.  The simplex refinement fits the tensor LM's
``product_model`` with the weights added, and takes its normal equations
from it: no Jacobian or grid is formed.

The kernels that touch every sample are matrix products.  Sample moments
run in power coordinates, where a run of t equal slots c is one slot
reading c's row of Y^t: per row chunk of the samples, held component-major
as z = [Y, Y^2, ..., Y^T]^T, they are the tensor path's
``PrefixTree.reconstruction`` on the keys of each number of runs, with the
chunk's samples in place of the components.  Each distinct prefix costs
one multiply per sample and each of the tree's blocks of prefixes one
GEMM, so the working memory is O(chunk * prefixes) whatever N is.

The log-density of every component is linear in [y, y * y] with one
constant, so it is a product with one (r, 2d) coefficient matrix instead
of an (N, r, d) difference.  EM runs each iteration as one pass over row
chunks in the same layout, z = [Y, Y^2]^T: per chunk, one (r, 2d) x (2d,
chunk) product gives the log-densities, floored at e^-500 below each
column's largest before they are exponentiated, and one (r, chunk) x
(chunk, 2d) product adds the chunk's responsibilities to the next M-step,
so no array of N rows is built.  ``classify`` runs the same log-density
product per chunk and takes each column's argmax.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import binomial, subsets_lex
from .decomposition import approximate, choose_params, omega_gram, product_model
from .errors import (
    CovDesignDegenerate,
    DegenerateWeight,
    InvalidMomentKey,
    InvalidSamples,
    MissingEntry,
    OrderConflict,
    RankTooLarge,
    TooFewSamples,
)
from .numerics import nnls, rng_from, simplex_nlls
from .tensor_store import (
    IncompleteSymmetricTensor,
    PrefixTree,
    component_products,
    omega_keys,
)

_BETA_FLOOR = 1e-12
# Rows per chunk of the sample-moment passes: enough for each block's GEMM
# in a chunk's reconstruction to be a BLAS call of useful size (at m = 3 a
# chunk makes 5 GEMMs, most groups sharing a block), few enough that its
# (n_prefix, chunk) prefix products stay a few megabytes, 5.6 MiB for
# the 1,365 leaf prefixes of the d=15, m=5 learning keys.  At 2048 rows
# they took 22 MiB, allocated afresh for every chunk, and those moments
# page faulted about 2,700 times per chunk and took 1.5 s instead of 0.5 s
# (N=1e5, one BLAS thread).
_MOMENT_CHUNK = 512
# Rows per chunk of the EM passes: EM's two chunk buffers stay under a
# megabyte at d=15.
_EM_CHUNK = 2048
# Floor of EM's log-ratios to a column's largest term, applied before they
# are exponentiated: exp takes a slow path on inputs that underflow (below
# about -708 its result is subnormal, below -745 zero), and subnormal
# responsibilities slow the M-step product too.  A term e^-500 below its
# column's largest is under 1e-200 of the column sum, so flooring it moves
# no likelihood or sum that has a component's weight in it.
_EM_LOG_FLOOR = -500.0


@dataclass
class GmmModel:
    weights: np.ndarray  # (r,) on the simplex
    means: np.ndarray  # (r, d)
    variances: np.ndarray  # (r, d) nonnegative
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if self.weights.ndim != 1:
            raise ValueError(f"weights must have shape (r,), not {self.weights.shape}")
        want = (self.r, self.means.shape[-1])
        for name in ("means", "variances"):
            if getattr(self, name).shape != want:
                raise ValueError(f"{name} must have shape (r, d) = {want}, "
                                 f"not {getattr(self, name).shape}")
        for name in ("weights", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not math.isclose(self.weights.sum(), 1.0, abs_tol=1e-8):
            raise ValueError("weights must sum to 1")
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        if np.any(self.variances < -1e-12):
            raise ValueError("variances must be nonnegative")

    @property
    def r(self) -> int:
        return self.weights.size

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass
class SampleSet:
    data: np.ndarray  # (N, d)
    labels: np.ndarray | None = None  # true component indices, if known

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass
class MomentSet:
    """Moments of one order.  ``values``, keyed by sorted tuples, is the
    record the tests and the benchmark read; the stages use ``gather``."""

    order: int
    values: dict[tuple[int, ...], float]

    def gather(self, keys) -> np.ndarray:
        """Values at an (n, order) key array; MissingEntry names an absent key."""
        rows = map(tuple, np.sort(np.asarray(keys), axis=-1).tolist())
        try:
            return np.array(list(map(self.values.__getitem__, rows)))
        except KeyError as exc:
            raise MissingEntry(exc.args[0]) from None


def sample_gmm(model: GmmModel, N: int, seed: int) -> SampleSet:
    """Draw N i.i.d. samples; the component index follows the weights and
    the coordinates are independent normals.  True labels are retained.
    Raises ValueError naming N when it is negative."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    rng = rng_from(seed, "samples")
    labels = rng.choice(model.r, size=N, p=model.weights / model.weights.sum())
    noise = rng.standard_normal((N, model.d))
    data = model.means[labels] + np.sqrt(model.variances[labels]) * noise
    return SampleSet(data=data, labels=labels)


def sample_moments(samples: SampleSet, keys) -> MomentSet:
    """Empirical moments: for each key (all of one order m; an (n, m) array
    or a sequence of key tuples), the mean over samples of the product of
    the indexed coordinates.

    Order 1 is the column mean.  Above it every key is a distinct-index
    key over power coordinates (``_run_codes``): a run of t slots equal to
    c is one slot reading row (t-1)*d + c of z = [Y_b, Y_b^2, ...,
    Y_b^T]^T, T the longest run, which ``_power_chunks`` fills for each
    chunk of at most ``_MOMENT_CHUNK`` samples.  Ascending, a key's power
    coordinates are a full-length key of one ``PrefixTree`` per number of
    runs: a repeated-pair key (j, j, gamma) is the distinct key gamma
    followed by the Y^2 row of j.  Per chunk, each tree's
    ``reconstruction(z.T)``, the chunk's samples in place of the
    components, adds its keys' sums over the chunk: every prefix costs one
    multiply per sample, and each of the tree's blocks of prefixes one GEMM
    with the rows of z that its keys' last slots read.  One-run keys, such
    as (j, j, j), add row sums of z.  A key's moment is its sum divided by
    N >= 1 (InvalidSamples otherwise); a key listed twice reads one cell.
    Memory beyond the samples is O(_MOMENT_CHUNK * (T * d + n_prefix) +
    n_cells), n_prefix the prefixes of the largest tree and n_cells its
    cells, whatever N is.

    Keys of more than one order, non-integer slots and a slot outside
    range(d) raise InvalidMomentKey.  A non-finite sample coordinate makes
    every moment whose key holds it non-finite, so the samples are
    searched only when a moment is; that raises InvalidSamples naming the
    first bad sample, or, with finite samples, saying that their products
    overflow.
    """
    Y = np.ascontiguousarray(samples.data, dtype=float)
    if not len(Y):
        raise InvalidSamples("no samples: moments need at least one")
    d = Y.shape[1]

    def moments(key_arr):
        order = key_arr.shape[1]
        if order == 1:
            return Y.mean(axis=0)[key_arr[:, 0]]
        codes = np.sort(_run_codes(key_arr, d), axis=1)
        trees = _run_trees(codes)
        values = np.zeros(len(key_arr))
        for z in _power_chunks(Y, codes.max() // d + 1, _MOMENT_CHUNK):
            for at, tree, column in trees:
                values[at] += tree.reconstruction(z.T) if tree else z[column].sum(axis=1)
        return values / len(Y)

    def values_at(key_arr):
        # inf * 0 and inf - inf are invalid, a product past 1e308 overflows
        with np.errstate(invalid="ignore", over="ignore"):
            values = moments(key_arr)
        if not np.isfinite(values).all():
            _reject_non_finite(Y)
            raise InvalidSamples(
                f"order-{key_arr.shape[1]} sample moments overflow: the samples are "
                "finite but too large for their products"
            )
        return values

    return _moment_set(keys, d, values_at)


def _moment_set(keys, d: int, values_at) -> MomentSet:
    """Moments at ``keys``, each sorted, from ``values_at`` of their sorted
    (n, order) array, or 1 at order 0; no keys give an empty order-0 set.
    Keys of more than one order, a slot that is not an integer and a slot
    outside range(d) each raise InvalidMomentKey naming the first key at
    fault."""
    if not len(keys):
        return MomentSet(order=0, values={})
    try:
        key_arr = np.asarray(keys)
    except ValueError:  # keys of more than one order
        key = next(k for k in keys if len(k) != len(keys[0]))
        raise InvalidMomentKey(f"moment key {tuple(key)} is not of order {len(keys[0])}") from None
    if key_arr.dtype.kind not in "iu":
        raise InvalidMomentKey(
            f"moment keys must have integer slots, not {key_arr.dtype}: {tuple(keys[0])}"
        )
    outside = ((key_arr < 0) | (key_arr >= d)).any(axis=1)
    if outside.any():
        key = tuple(key_arr[np.argmax(outside)].tolist())
        raise InvalidMomentKey(f"moment key {key} has a slot outside range({d})")
    key_arr = np.sort(key_arr.astype(np.intp, copy=False), axis=1)
    values = values_at(key_arr) if key_arr.shape[1] else np.ones(len(key_arr))
    values = dict(zip(map(tuple, key_arr.tolist()), values.tolist()))
    return MomentSet(order=key_arr.shape[1], values=values)


def _run_codes(key_arr: np.ndarray, d: int) -> np.ndarray:
    """The power coordinates of sorted (n, m) keys: (t-1) * d + c at the
    last slot of each run of t slots equal to c, -1 at the other slots."""
    run_length = (key_arr[:, :, None] == key_arr[:, None, :]).sum(axis=2)
    run_end = np.diff(key_arr, axis=1, append=-1) != 0
    return np.where(run_end, (run_length - 1) * d + key_arr, -1)


def _run_trees(codes: np.ndarray) -> list[tuple]:
    """Keys by their number of runs n, from each key's power coordinates
    ascending with its -1 slots first: per n, the keys' rows, ascending in
    their last n codes, the ``PrefixTree`` of those codes (None at n = 1),
    and their first one."""
    order = codes.shape[1]
    runs = (codes >= 0).sum(axis=1)
    trees = []
    for n in np.unique(runs).tolist():
        at = np.flatnonzero(runs == n)
        walk = codes[at, order - n :]
        row_order = np.lexsort(walk.T[::-1])
        at, walk = at[row_order], walk[row_order]
        trees.append((at, PrefixTree(walk) if n > 1 else None, walk[:, 0]))
    return trees


def univariate_gaussian_moment(mu: float, var: float, t: int) -> float:
    """E[z^t] for z ~ N(mu, var) by the standard two-term recurrence."""
    if t < 0:
        raise ValueError("moment order must be nonnegative")
    prev2, prev1 = 1.0, mu  # E[z^0], E[z^1]
    if t == 0:
        return prev2
    for s in range(2, t + 1):
        prev2, prev1 = prev1, mu * prev1 + (s - 1) * var * prev2
    return prev1


def exact_moments(model: GmmModel, keys) -> MomentSet:
    """Population moments of a diagonal mixture: coordinates factor, so a
    key's value is a weight-sum of products of univariate moments at the
    key's per-coordinate multiplicities.  Column (t-1) * d + c of the table
    holds E[z_c^t] and its last column E[z^0] = 1, so a key's power
    coordinates (``_run_codes``, with -1 reading the last column) index
    its factors.  Keys are checked as by ``sample_moments``."""

    def values_at(key_arr):
        m = key_arr.shape[1]
        mu, var = model.means, model.variances
        per_order = [univariate_gaussian_moment(mu, var, t) for t in range(1, m + 1)]
        table = np.hstack(per_order + [np.ones((model.r, 1))])
        codes = _run_codes(key_arr, model.d)
        # summed one component at a time, as the per-key sum was
        return (model.weights[:, None] * component_products(table, codes)).sum(axis=0)

    return _moment_set(keys, model.d, values_at)


def covariance_keys(d: int, m: int, j: int) -> np.ndarray:
    """Keys (j, j, i_1, ..., i_{m-2}) with the trailing labels distinct
    and different from j, each sorted, as the rows of an int64 array in
    the lexicographic order of the trailing labels."""
    gammas = _others(d, m - 2, j)
    return np.sort(np.column_stack([np.full((len(gammas), 2), j), gammas]), axis=1)


def _others(d: int, size: int, j: int) -> np.ndarray:
    """The size-subsets of range(d) without j, lexicographic order: those of
    range(d - 1) with every label from j on shifted past j."""
    subsets = subsets_lex(0, d - 2, size)
    return subsets + (subsets >= j)


def learning_keys(d: int, m: int) -> np.ndarray:
    """The order-m keys that learning reads, as the rows of an int64 array
    in lexicographic order: the distinct-index keys and the repeated-pair
    keys of ``covariance_keys``, disjoint sets."""
    keys = np.concatenate([omega_keys(d, m)] + [covariance_keys(d, m, j) for j in range(d)])
    return keys[np.lexsort(keys.T[::-1])]


def realify(qs: np.ndarray, m: int) -> np.ndarray:
    """Rotate each complex component by the m-th root of unity minimizing
    its imaginary norm (ties to the smallest root index), then drop the
    imaginary part."""
    qs = np.atleast_2d(np.asarray(qs, dtype=complex))
    etas = np.exp(2j * np.pi * np.arange(m) / m)
    rotated = etas[:, None, None] * qs  # (m, r, d)
    imag = np.ascontiguousarray(rotated.imag)[:, :, None, :]
    # Stacked dot products of contiguous rows, the sums np.linalg.norm
    # forms for one vector: at even m, eta and -eta differ in imaginary
    # norm only by rounding, so the sums must round alike for the same
    # root to win.
    best = np.argmin(np.sqrt(imag @ imag.swapaxes(2, 3)), axis=0)[:, 0, 0]
    return rotated[best, np.arange(qs.shape[0])].real


def choose_t(d: int, r: int) -> int:
    """Smallest moment order t with C(d, t) >= r; RankTooLarge when no
    order t <= d has one."""
    t = 1
    while binomial(d, t) < r:
        if t >= d:
            raise RankTooLarge(r)
        t += 1
    return t


def recover_weights(
    qs_real: np.ndarray, Mt: MomentSet, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and means from the moments Mt of order t = ``Mt.order`` < m:
    nonnegative least squares for beta_i, then the exponent round trip
    omega_i = beta_i^(m/(m-t)), mu_i = q_i / beta_i^(1/(m-t))."""
    t = Mt.order
    if t >= m:
        raise OrderConflict(f"t={t} must be smaller than m={m}")
    qs_real = np.atleast_2d(qs_real)
    keys = omega_keys(qs_real.shape[1], t)
    design = component_products(qs_real, keys).T
    b = Mt.gather(keys)
    if m % 2 == 0 and t % 2 == 1:
        # Even-order entries cannot see a component's sign, so the scaled
        # vector may come out negated.  The odd-order moments can: a
        # negative unconstrained coefficient marks a flipped component.
        coef = np.linalg.lstsq(design, b, rcond=None)[0]
        flipped = coef < 0.0
        if flipped.any():
            qs_real = qs_real.copy()
            qs_real[flipped] *= -1.0
            design[:, flipped] *= -1.0
    beta = nnls(design, b)
    for i, bi in enumerate(beta):
        if bi < _BETA_FLOOR:
            raise DegenerateWeight(i)
    omega = beta ** (m / (m - t))
    mus = qs_real / beta[:, None] ** (1.0 / (m - t))
    return omega, mus


def _moment_residual(Mm: MomentSet, Mt: MomentSet, d: int):
    """Residual of the weighted mean products against the order-m and
    order-t distinct-index moments, and its Gauss-Newton normal equations
    in (omega, mu) without the Jacobian.  Per order o, J = D B: D is the
    Jacobian of the unweighted products in mu, and B scales column (i, a)
    by omega_i and gives omega_i the column sum_a (mu_ia / o) D[:, (i, a)]
    (Euler's identity for degree-o products).  So J^T J = B^T (D^T D) B and
    J^T f = B^T (D^T f), with the products, D^T f and D^T D from the
    order's ``product_model``, or D the identity per component at order 1.
    J^T J comes as a function of no arguments, formed only when called."""
    orders = []
    for M in (Mm, Mt):
        keys = omega_keys(d, M.order)
        target = M.gather(keys)
        kernel = (product_model(IncompleteSymmetricTensor._from_arrays(d, M.order, keys, target))
                  if M.order > 1 else  # the model, adjoint and gram of the identity
                  (lambda mu, w: (w[:, None] * mu).sum(0),
                   lambda mu, f: np.broadcast_to(f, mu.shape), lambda mu: omega_gram(mu, 1)))
        orders.append((M.order, target, *kernel))

    def residual(omega, mu):
        return np.concatenate([model(mu, omega) - target for _, target, model, *_ in orders])

    def gram(omega, mu):
        r = len(omega)
        H = np.zeros((r * (d + 1), r * (d + 1)))
        wide = np.repeat(omega, d)  # omega_i at each column (i, a)
        for o, *_, gram_o in orders:
            DtD = gram_o(mu).reshape(r * d, r * d)
            c = mu / o
            cDtD = (c.reshape(-1, 1) * DtD).reshape(r, d, -1).sum(axis=1)  # (r, r * d)
            H[:r, :r] += (cDtD.reshape(r, r, d) * c).sum(axis=2)
            H[:r, r:] += cDtD * wide
            H[r:, r:] += wide[:, None] * DtD * wide
        H[r:, :r] = H[:r, r:].T
        return H

    def normal_equations(omega, mu, f):
        r = len(omega)
        g = np.zeros(r * (d + 1))
        wide = np.repeat(omega, d)
        for o, target, _, adjoint, _ in orders:
            Dtf, f = adjoint(mu, f[: len(target)]), f[len(target) :]
            g[:r] += ((mu / o) * Dtf).sum(axis=1)
            g[r:] += wide * Dtf.ravel()
        return (lambda: gram(omega, mu)), g

    return residual, normal_equations


def refine_params(
    omega0: np.ndarray,
    mus0: np.ndarray,
    Mm: MomentSet,
    Mt: MomentSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Simplex-constrained refinement of weights and means on the two-term
    moment-matching objective, with closed-form Gauss-Newton normal
    equations (``_moment_residual``), by ``simplex_nlls`` at its defaults.
    omega0 must already be on the simplex."""
    d = np.atleast_2d(mus0).shape[1]
    residual, normal_equations = _moment_residual(Mm, Mt, d)
    return simplex_nlls(residual, omega0, mus0, normal_equations=normal_equations)


def recover_covariances(
    Mm: MomentSet,
    omega: np.ndarray,
    mus: np.ndarray,
) -> np.ndarray:
    """Diagonal variances: per coordinate j, a nonnegative least squares of
    the repeated-pair moment residual against the weighted mean products.
    The mean part is that of q_i = omega_i^(1/m) mu_i, m = ``Mm.order``."""
    mus = np.atleast_2d(mus)
    r, d = mus.shape
    m = Mm.order
    qs_real = omega[:, None] ** (1.0 / m) * mus
    variances = np.empty((r, d))
    for j in range(d):
        gammas = _others(d, m - 2, j)
        keys_j = np.column_stack([np.full((len(gammas), 2), j), gammas])
        # the mean part q_ij^2 * prod_gamma q_i is the product over the key
        response = Mm.gather(keys_j) - component_products(qs_real, keys_j).sum(0)
        design = (omega[:, None] * component_products(mus, gammas)).T
        if np.linalg.matrix_rank(design) < r:
            raise CovDesignDegenerate(j)
        variances[:, j] = nnls(design, response)
    return variances


def learn_from_moments(
    Mm: MomentSet,
    Mt: MomentSet,
    d: int,
    r: int,
    seed: int = 0,
) -> GmmModel:
    """Full recovery from moment sets: tensor approximation on the order-m
    distinct-index subtensor, phase correction, weight/mean recovery,
    simplex refinement, then covariance recovery; each stage reads m or t
    from its moment set.  meta["decomp"] holds the approximation's
    diagnostics and meta["lm_stop"] why each refinement ended,
    ``{"tensor": ..., "simplex": ...}`` (``Refined``)."""
    m = Mm.order
    params = choose_params(d - 1, m, r, seed=seed)
    keys = omega_keys(d, m)
    F_hat = IncompleteSymmetricTensor._from_arrays(d, m, keys, Mm.gather(keys))
    dec = approximate(F_hat, params)
    qs_real = realify(dec.components, m)
    omega_hat, mus_hat = recover_weights(qs_real, Mt, m)
    omega_hat = omega_hat / omega_hat.sum()
    omega_star, mus_star = refine_params(omega_hat, mus_hat, Mm, Mt)
    variances = recover_covariances(Mm, omega_star, mus_star)
    return GmmModel(
        weights=omega_star,
        means=mus_star,
        variances=variances,
        meta={
            "decomp": dec.diagnostics,
            "lm_stop": {"tensor": dec.diagnostics["lm_stop"], "simplex": omega_star.stop},
        },
    )


def learn(samples: SampleSet, r: int, m: int, seed: int = 0) -> GmmModel:
    """Moment-based learning from samples: estimate the order-m moments on
    the distinct-index and repeated-pair keys plus the order-t moments,
    then recover all parameters.

    It needs at least one sample per order-m moment it estimates, N >=
    len(learning_keys(d, m)) (50 at d=6, m=3; 665 at d=15, m=3): fewer
    raise TooFewSamples, an InvalidSamples, and no samples at all
    InvalidSamples."""
    if m < 3:
        raise ValueError("moment order m must be at least 3")
    d = samples.d
    t = choose_t(d, r)
    keys = learning_keys(d, m)
    if 0 < len(samples.data) < len(keys):
        raise TooFewSamples(
            f"{len(samples.data)} samples for {len(keys)} order-{m} moments: "
            "learn needs at least one sample per moment"
        )
    Mm = sample_moments(samples, keys)
    Mt = sample_moments(samples, omega_keys(d, t))
    return learn_from_moments(Mm, Mt, d, r, seed=seed)


def em_baseline(
    samples: SampleSet,
    r: int,
    max_iters: int = 100,
    reg_value: float = 1e-3,
    seed: int = 0,
) -> GmmModel:
    """Standard EM for diagonal mixtures, initialized by seeded random
    responsibilities; the regularization value is added to every variance
    each M-step.  Returns the best-likelihood iterate.

    Each iteration is one fused pass over row chunks of at most
    ``_EM_CHUNK`` samples, held component-major: ``_power_chunks`` copies
    the chunk into z = [Y_b, Y_b * Y_b]^T, its (r, b) log-densities are one
    product ``W @ z`` plus a per-component constant, and each column is
    normalised into responsibilities R that at once add the chunk's share
    of the log-likelihood and of the next M-step's sums ``R.sum(1)`` and
    ``R @ z^T``.  Before each column is exponentiated, its log-densities
    less the column's largest are floored at ``_EM_LOG_FLOOR`` (-500): a
    term below e^-500 relative to its column's largest term counts as
    e^-500, so no exponential underflows into numpy's slow path and no
    responsibility is subnormal.  The first M-step reads the random
    responsibilities chunk by chunk from one stream, so they equal a
    single (N, r) draw.  Memory beyond the samples is
    O(_EM_CHUNK * (2d + r)).
    """
    Y = np.ascontiguousarray(samples.data, dtype=float)
    N, d = Y.shape
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if r > N:
        raise ValueError("more components than samples")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    # a non-finite coordinate makes the sum non-finite; only then are the
    # samples searched, which needs an (N, d) mask
    if not math.isfinite(Y.sum()):
        _reject_non_finite(Y)
    rng = rng_from(seed, "em")
    R_buf = np.empty((r, _EM_CHUNK))
    nk = np.zeros(r)
    sums = np.zeros((r, 2 * d))
    for z in _power_chunks(Y, 2, _EM_CHUNK):
        R = R_buf[:, : z.shape[1]]
        R[...] = rng.random((z.shape[1], r)).T
        R /= R.sum(axis=0)
        nk += R.sum(axis=1)
        sums += R @ z.T
    history: list[float] = []
    best = None
    for _ in range(max_iters):
        # M-step from the sums of the previous pass
        weights = nk / N
        means = sums[:, :d] / nk[:, None]
        variances = sums[:, d:] / nk[:, None] - means**2 + reg_value
        # E-step and likelihood under the fresh parameters, fused with the
        # next M-step's sums
        W, c = _density_coefficients(weights, means, variances)
        c = c[:, None]
        nk = np.zeros(r)
        sums = np.zeros((r, 2 * d))
        ll = 0.0
        for z in _power_chunks(Y, 2, _EM_CHUNK):
            R = R_buf[:, : z.shape[1]]
            np.matmul(W, z, out=R)
            R += c
            top = R.max(axis=0)
            R -= top
            np.maximum(R, _EM_LOG_FLOOR, out=R)
            np.exp(R, out=R)
            total = R.sum(axis=0)
            ll += float((top + np.log(total)).sum())
            R /= total
            nk += R.sum(axis=1)
            sums += R @ z.T
        history.append(ll)
        if best is None or ll >= best[0]:
            best = (ll, weights, means, variances)
    _, weights, means, variances = best
    return GmmModel(
        weights=weights / weights.sum(),
        means=means,
        variances=variances,
        meta={"loglik_history": history},
    )


def _power_chunks(Y, T, rows):
    """Per chunk of at most ``rows`` rows of the (N, d) samples, the chunk
    component-major in powers, z = [Y_b, Y_b^2, ..., Y_b^T]^T of shape
    (T * d, b): a C-contiguous view of one buffer reused across chunks, each
    power the one below it times Y_b."""
    N, d = Y.shape
    buf = np.empty(T * d * min(N, rows))
    for start in range(0, N, rows):
        chunk = Y[start : start + rows]
        z = buf[: T * d * len(chunk)].reshape(T * d, len(chunk))
        z[:d] = chunk.T
        for t in range(d, T * d, d):
            np.multiply(z[t - d : t], z[:d], out=z[t : t + d])
        yield z


_VAR_FLOOR = 1e-3


def _density_coefficients(weights, means, variances):
    """(W, c) with log omega_i + log N(y; mu_i, diag var_i) equal to
    W[i] . [y, y * y] + c[i]: W = [mu / var, -1 / (2 var)] and
    c = log omega - (sum mu^2 / var + sum log var + d log 2 pi) / 2."""
    # Nonnegative least squares can return exactly-zero variances for
    # coordinates whose true spread is below the sampling noise; the
    # Gaussian density is singular there, so likelihoods are evaluated
    # with variances floored at the same scale the EM baseline uses for
    # its variance regularization.
    var = np.maximum(variances, _VAR_FLOOR)
    inv = 1.0 / var
    W = np.hstack([means * inv, -0.5 * inv])
    c = np.log(np.maximum(weights, 1e-300)) - 0.5 * (
        (means * means * inv).sum(axis=1)
        + np.log(var).sum(axis=1)
        + means.shape[1] * math.log(2 * math.pi)
    )
    return W, c


def _reject_non_finite(Y):
    bad = ~np.isfinite(Y)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InvalidSamples(f"sample {row} is non-finite at coordinate {col}")


def classify(model: GmmModel, samples: SampleSet) -> np.ndarray:
    """Per-sample argmax of the weighted component likelihood, whose
    log-densities are ``W @ z + c`` per chunk of at most ``_EM_CHUNK``
    samples, z = [Y_b, Y_b * Y_b]^T, as in ``em_baseline``.  Raises
    InvalidSamples naming both dimensions when the samples' differs from
    the model's, and naming the first sample with a non-finite coordinate."""
    Y = np.ascontiguousarray(samples.data, dtype=float)
    if Y.shape[1] != model.d:
        raise InvalidSamples(f"samples have dimension {Y.shape[1]}, the model {model.d}")
    # as in em_baseline: only a non-finite sum makes the samples searched
    if not math.isfinite(Y.sum()):
        _reject_non_finite(Y)
    W, c = _density_coefficients(model.weights, model.means, model.variances)
    labels = [(W @ z + c[:, None]).argmax(axis=0) for z in _power_chunks(Y, 2, _EM_CHUNK)]
    return np.concatenate(labels) if labels else np.empty(0, dtype=np.intp)


def accuracy(labels: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of correct assignments after the maximum-agreement
    matching of predicted components to true components.  Raises
    ValueError when the lengths differ, and InvalidSamples for no labels
    and naming the first label that is not a nonnegative integer."""
    import scipy.optimize

    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.size != truth.size:
        raise ValueError(f"{labels.size} labels for {truth.size} true labels")
    if not labels.size:
        raise InvalidSamples("no labels: accuracy needs at least one")
    for name, values in (("label", labels), ("true label", truth)):
        bad = ~(np.isfinite(values) & (values >= 0) & (values == np.floor(values)))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidSamples(
                f"{name} {values.flat[i]} at position {i} is not a nonnegative integer")
    # numbered by the labels present, so the matrix is no larger than they
    # are many; an absent label's row or column would hold only zeros
    found, labels = np.unique(labels.ravel(), return_inverse=True)
    present, truth = np.unique(truth.ravel(), return_inverse=True)
    shape = (len(found), len(present))
    confusion = np.bincount(labels * shape[1] + truth,
                            minlength=shape[0] * shape[1]).reshape(shape)
    rows, cols = scipy.optimize.linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / labels.size)


def random_model(d: int, r: int, seed: int) -> GmmModel:
    """Synthetic model: normalized positive weights, Gaussian means, and
    squared-Gaussian diagonal variances.  Raises ValueError naming d or r
    when it is below 1."""
    for name, value in (("d", d), ("r", r)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = rng_from(seed, "model")
    s = np.abs(rng.standard_normal(r)) + 0.1
    weights = s / s.sum()
    means = rng.standard_normal((r, d))
    variances = rng.standard_normal((r, d)) ** 2
    return GmmModel(weights=weights, means=means, variances=variances)


def model_to_json(model: GmmModel) -> str:
    return json.dumps(
        {
            "r": model.r,
            "weights": [float(w) for w in model.weights],
            "means": [[float(v) for v in row] for row in model.means],
            "variances": [[float(v) for v in row] for row in model.variances],
        },
        indent=1,
    )


def model_from_json(text: str) -> GmmModel:
    """Model from ``model_to_json`` text; raises ValueError naming a
    missing field."""
    doc = json.loads(text)
    fields = ("weights", "means", "variances")
    for name in fields:
        if not isinstance(doc, dict) or name not in doc:
            raise ValueError(f"model document has no {name!r} field")
    return GmmModel(**{name: np.asarray(doc[name], dtype=float) for name in fields})
