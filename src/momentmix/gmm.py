"""Diagonal Gaussian mixture machinery: sampling, sample and exact
moments, moment-based parameter recovery, an EM baseline, and
classification metrics.

Coordinates are conditionally independent within each component, so every
mixed moment factors into univariate Gaussian moments.  The recovery
pipeline runs the incomplete tensor approximation on the order-m moment
subtensor, phase-corrects the components to real vectors, then solves
nonnegative and simplex-constrained least squares for the weights, means
and variances.  Their designs, and the exact moments, are products over
key arrays from the tensor path's ``component_products``, and each stage
reads its moments with one ``MomentSet.gather``.

The kernels that touch every sample are matrix products.  Sample moments
group their sorted keys by the first m-1 slots: over row chunks of the
samples, the products of each prefix's coordinates form a (chunk, prefixes)
matrix whose product with the chunk gives every last slot at once, so the
working memory is O(chunk * prefixes) whatever the number of samples.  The
EM E-step and ``classify`` expand the diagonal quadratic form into two
(N, d) x (d, r) products instead of building an (N, r, d) difference.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .combinatorics import binomial
from .decomposition import approximate, choose_params
from .errors import (
    CovDesignDegenerate,
    DegenerateWeight,
    InvalidSamples,
    MissingEntry,
    OrderConflict,
)
from .numerics import nnls, rng_from, simplex_nlls
from .tensor_store import (
    IncompleteSymmetricTensor,
    component_products,
    omega_keys,
    product_jacobian,
)

TensorKey = tuple[int, ...]

_BETA_FLOOR = 1e-12
# Rows per chunk of the sample-moment products: large enough that each
# product is a BLAS call of useful size, small enough that the (chunk,
# n_prefix) prefix matrix stays a few megabytes for the Table-4 moment set.
_MOMENT_CHUNK = 2048


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
    seed: int = 0
    labels: np.ndarray | None = None  # true component indices, if known

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass
class MomentSet:
    """Moments of one order.  ``values``, keyed by sorted tuples, is the
    record the tests and the benchmark read; the stages use ``gather``."""

    order: int
    values: dict[TensorKey, float]

    def __getitem__(self, key) -> float:
        return self.values[tuple(sorted(key))]

    def gather(self, keys) -> np.ndarray:
        """Values at an (n, order) key array; MissingEntry names an absent key."""
        rows = map(tuple, np.sort(np.asarray(keys), axis=-1).tolist())
        try:
            return np.array(list(map(self.values.__getitem__, rows)))
        except KeyError as exc:
            raise MissingEntry(exc.args[0]) from None


def sample_gmm(model: GmmModel, N: int, seed: int) -> SampleSet:
    """Draw N i.i.d. samples; the component index follows the weights and
    the coordinates are independent normals.  True labels are retained."""
    rng = rng_from(seed, "samples")
    labels = rng.choice(model.r, size=N, p=model.weights / model.weights.sum())
    noise = rng.standard_normal((N, model.d))
    data = model.means[labels] + np.sqrt(model.variances[labels]) * noise
    return SampleSet(data=data, seed=seed, labels=labels)


def sample_moments(samples: SampleSet, keys: list[TensorKey]) -> MomentSet:
    """Empirical moments: for each key (all of one order m), the mean over
    samples of the product of the indexed coordinates.

    Order 1 is the column mean.  Above it, the sorted keys are grouped by
    their first m-1 slots.  For each chunk of at most ``_MOMENT_CHUNK``
    rows, the products of every prefix's coordinates are folded one slot
    at a time into a (chunk, n_prefix) matrix P, and ``P.T @ chunk``
    accumulates the prefix times every coordinate; a key's moment is the
    entry at its prefix and last slot, divided by N.  Memory beyond the
    samples is O(_MOMENT_CHUNK * n_prefix + n_prefix * d).
    """
    if not keys:
        return MomentSet(order=0, values={})
    Y = np.ascontiguousarray(samples.data, dtype=float)
    key_arr = np.sort(np.asarray(keys, dtype=np.intp), axis=1)
    order = key_arr.shape[1]
    if order == 0:
        flat = np.ones(key_arr.shape[0])
    elif order == 1:
        flat = Y.mean(axis=0)[key_arr[:, 0]]
    else:
        prefixes, row = np.unique(key_arr[:, :-1], axis=0, return_inverse=True)
        sums = np.zeros((prefixes.shape[0], Y.shape[1]))
        for start in range(0, Y.shape[0], _MOMENT_CHUNK):
            chunk = Y[start : start + _MOMENT_CHUNK]
            P = chunk[:, prefixes[:, 0]]
            for t in range(1, order - 1):
                P *= chunk[:, prefixes[:, t]]
            sums += P.T @ chunk
        flat = sums[row.ravel(), key_arr[:, -1]] / Y.shape[0]
    values = dict(zip(map(tuple, key_arr.tolist()), flat.tolist()))
    return MomentSet(order=order, values=values)


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


def exact_moments(model: GmmModel, keys: list[TensorKey]) -> MomentSet:
    """Population moments of a diagonal mixture: coordinates factor, so a
    key's value is a weight-sum of products of univariate moments at the
    key's per-coordinate multiplicities.  Column c * (m + 1) + t of the
    table holds E[z_c^t]; a key's code is that column at the last slot of
    each run of t slots equal to c, and column 0, E[z_0^0] = 1, elsewhere."""
    if not keys:
        return MomentSet(order=0, values={})
    key_arr = np.sort(np.asarray(keys, dtype=np.intp), axis=1)
    m = key_arr.shape[1]
    mu, var = model.means, model.variances
    per_order = [univariate_gaussian_moment(mu, var, t) for t in range(m + 1)]
    table = np.stack(np.broadcast_arrays(*per_order), axis=2).reshape(model.r, -1)
    run_length = (key_arr[:, :, None] == key_arr[:, None, :]).sum(axis=2)
    run_end = np.diff(key_arr, axis=1, append=-1) != 0
    codes = np.where(run_end, key_arr * (m + 1) + run_length, 0)
    # summed one component at a time, as the per-key sum was
    flat = (model.weights[:, None] * component_products(table, codes)).sum(axis=0)
    return MomentSet(m, dict(zip(map(tuple, key_arr.tolist()), flat.tolist())))


def covariance_keys(d: int, m: int, j: int) -> list[TensorKey]:
    """Keys (j, j, i_1, ..., i_{m-2}) with the trailing labels distinct
    and different from j, sorted."""
    others = [s for s in range(d) if s != j]
    return [
        tuple(sorted((j, j) + gamma))
        for gamma in itertools.combinations(others, m - 2)
    ]


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
    """Smallest moment order t with C(d, t) >= r."""
    t = 1
    while binomial(d, t) < r:
        t += 1
    return t


def recover_weights(
    qs_real: np.ndarray, Mt: MomentSet, m: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and means from the order-t moments: nonnegative least
    squares for beta_i, then the exponent round trip
    omega_i = beta_i^(m/(m-t)), mu_i = q_i / beta_i^(1/(m-t))."""
    if t >= m:
        raise OrderConflict(f"t={t} must be smaller than m={m}")
    qs_real = np.atleast_2d(qs_real)
    keys = np.array(omega_keys(qs_real.shape[1], t))
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
    order-t distinct-index moments, and its analytic Jacobian: the
    derivative in omega_i is component i's product at each key, and in
    mu_ia omega_i times the key's slot partial at coordinate a."""
    arr_m = np.array(omega_keys(d, Mm.order))
    arr_t = np.array(omega_keys(d, Mt.order))
    target_m = Mm.gather(arr_m)
    target_t = Mt.gather(arr_t)

    def residual(omega, mu):
        vm = (omega[:, None] * component_products(mu, arr_m)).sum(0) - target_m
        vt = (omega[:, None] * component_products(mu, arr_t)).sum(0) - target_t
        return np.concatenate([vm, vt])

    def jacobian(omega, mu):
        J_omega = np.concatenate(
            [component_products(mu, arr_m).T, component_products(mu, arr_t).T]
        )
        J_mu = np.concatenate(
            [product_jacobian(mu, arr_m), product_jacobian(mu, arr_t)]
        )
        J_mu *= omega[None, :, None]
        return J_omega, J_mu.reshape(J_mu.shape[0], -1)

    return residual, jacobian


def refine_params(
    omega0: np.ndarray,
    mus0: np.ndarray,
    Mm: MomentSet,
    Mt: MomentSet,
    max_iters: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Simplex-constrained refinement of weights and means on the two-term
    moment-matching objective, with analytic derivatives.  omega0 must
    already be on the simplex."""
    d = np.atleast_2d(mus0).shape[1]
    residual, jacobian = _moment_residual(Mm, Mt, d)
    return simplex_nlls(
        residual, omega0, mus0, max_iters=max_iters, jacobian=jacobian
    )


def recover_covariances(
    Mm: MomentSet,
    qs_real: np.ndarray,
    omega: np.ndarray,
    mus: np.ndarray,
) -> np.ndarray:
    """Diagonal variances: per coordinate j, a nonnegative least squares of
    the repeated-pair moment residual against the weighted mean products."""
    qs_real = np.atleast_2d(qs_real)
    mus = np.atleast_2d(mus)
    r, d = mus.shape
    m = Mm.order
    # the (m-2)-subsets of range(d - 1), shifted past j, are those of the
    # coordinates other than j in lexicographic order
    subsets = np.array(list(itertools.combinations(range(d - 1), m - 2)))
    variances = np.empty((r, d))
    for j in range(d):
        gammas = subsets + (subsets >= j)
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
    simplex refinement, then covariance recovery."""
    m = Mm.order
    t = Mt.order
    params = choose_params(d - 1, m, r, seed=seed)
    keys = np.array(omega_keys(d, m), dtype=np.int64)
    F_hat = IncompleteSymmetricTensor._from_arrays(d, m, keys, Mm.gather(keys))
    dec = approximate(F_hat, params)
    qs_real = realify(dec.components, m)
    omega_hat, mus_hat = recover_weights(qs_real, Mt, m, t)
    omega_hat = omega_hat / omega_hat.sum()
    omega_star, mus_star = refine_params(omega_hat, mus_hat, Mm, Mt)
    # Rebuild the scaled vectors from the refined weights and means so the
    # mean contribution subtracted from the moments matches the design.
    qs_star = omega_star[:, None] ** (1.0 / m) * mus_star
    variances = recover_covariances(Mm, qs_star, omega_star, mus_star)
    return GmmModel(
        weights=omega_star,
        means=mus_star,
        variances=variances,
        meta={"decomp": dec.diagnostics},
    )


def learn(samples: SampleSet, r: int, m: int, seed: int = 0) -> GmmModel:
    """Moment-based learning from samples: estimate the order-m moments on
    the distinct-index and repeated-pair keys plus the order-t moments,
    then recover all parameters."""
    if m < 3:
        raise ValueError("moment order m must be at least 3")
    d = samples.d
    t = choose_t(d, r)
    keys_m = set(omega_keys(d, m))
    for j in range(d):
        keys_m.update(covariance_keys(d, m, j))
    Mm = sample_moments(samples, sorted(keys_m))
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
    each M-step.  Returns the best-likelihood iterate."""
    # The samples are the right operand of the M-step products, which run
    # about 3x slower on a strided one.
    Y = np.ascontiguousarray(samples.data, dtype=float)
    N, d = Y.shape
    if r > N:
        raise ValueError("more components than samples")
    _reject_non_finite(Y)
    YY = Y * Y
    rng = rng_from(seed, "em")
    resp = rng.random((N, r))
    resp /= resp.sum(axis=1, keepdims=True)
    history: list[float] = []
    best = None
    for _ in range(max_iters):
        # M-step
        nk = resp.sum(axis=0)
        weights = nk / N
        means = (resp.T @ Y) / nk[:, None]
        sq = resp.T @ YY / nk[:, None]
        variances = sq - means**2 + reg_value
        # E-step / likelihood under the fresh parameters
        log_prob = _log_component_densities(Y, YY, weights, means, variances)
        log_norm = _logsumexp(log_prob)
        ll = float(log_norm.sum())
        history.append(ll)
        if best is None or ll >= best[0]:
            best = (ll, weights.copy(), means.copy(), variances.copy())
        resp = np.exp(log_prob - log_norm[:, None])
    _, weights, means, variances = best
    return GmmModel(
        weights=weights / weights.sum(),
        means=means,
        variances=variances,
        meta={"loglik_history": history},
    )


_VAR_FLOOR = 1e-3


def _log_component_densities(Y, YY, weights, means, variances):
    """(N, r) log omega_i + log N(y; mu_i, diag var_i) for (N, d) samples
    Y and their squares YY."""
    # Nonnegative least squares can return exactly-zero variances for
    # coordinates whose true spread is below the sampling noise; the
    # Gaussian density is singular there, so likelihoods are evaluated
    # with variances floored at the same scale the EM baseline uses for
    # its variance regularization.
    var = np.maximum(variances, _VAR_FLOOR)
    inv = 1.0 / var
    # sum_j (y_j - mu_ij)^2 / var_ij expanded into two (N, d) x (d, r)
    # products.
    out = YY @ inv.T
    out += Y @ (-2.0 * means * inv).T
    out += (
        (means * means * inv).sum(axis=1)
        + np.log(var).sum(axis=1)
        + Y.shape[1] * math.log(2 * math.pi)
    )
    out *= -0.5
    out += np.log(np.maximum(weights, 1e-300))
    return out


def _logsumexp(a):
    # Row-wise log-sum-exp of an (N, r) array, reduced one column at a time:
    # with few components, numpy's per-row reductions cost several times
    # more than r whole-column passes.
    cols = a.T
    mx = cols[0].copy()
    for c in cols[1:]:
        np.maximum(mx, c, out=mx)
    total = np.exp(cols[0] - mx)
    for c in cols[1:]:
        total += np.exp(c - mx)
    return mx + np.log(total)


def _reject_non_finite(Y):
    bad = ~np.isfinite(Y)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InvalidSamples(f"sample {row} is non-finite at coordinate {col}")


def classify(model: GmmModel, samples: SampleSet) -> np.ndarray:
    """Per-sample argmax of the weighted component likelihood.  Raises
    InvalidSamples naming the first sample with a non-finite coordinate."""
    Y = np.ascontiguousarray(samples.data, dtype=float)
    # A non-finite coordinate makes its row of log-densities non-finite
    # (an infinite one through inf - inf, hence the errstate), so the
    # samples are searched only when that cheaper check fails.
    with np.errstate(invalid="ignore"):
        log_prob = _log_component_densities(
            Y, Y * Y, model.weights, model.means, model.variances
        )
    if not np.isfinite(log_prob).all():
        _reject_non_finite(Y)
    return np.argmax(log_prob, axis=1)


def accuracy(labels: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of correct assignments after the maximum-agreement
    matching of predicted components to true components."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.size != truth.size:
        raise ValueError(f"{labels.size} labels for {truth.size} true labels")
    r = int(max(labels.max(), truth.max())) + 1
    confusion = np.bincount(labels * r + truth, minlength=r * r).reshape(r, r)
    rows, cols = scipy.optimize.linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / labels.size)


def random_model(d: int, r: int, seed: int) -> GmmModel:
    """Synthetic model: normalized positive weights, Gaussian means, and
    squared-Gaussian diagonal variances."""
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
