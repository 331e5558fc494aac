"""Checks made apart from momentmix.

Every expected value here comes from this file's own numpy code, never
from the package's helpers.  Each check returns a list of problems; an
empty list means the output passed.  The tolerances and how they were
chosen are listed in README.md.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# exact-m5: worst seen at rank 55 over the seeds swept were a relative
# reconstruction error of 8e-8 and a component error of 3e-7.
EXACT_RECON_TOL = 1e-5
EXACT_COMPONENT_TOL = 1e-4
# noisy-m4: the planted tensor is a feasible point whose residual is the
# noise, so rel_err <= 1; abs_err <= epsilon.  The benchmark's own
# recomputation and the package's diagnostics must agree to this share.
DIAGNOSTIC_RTOL = 1e-6
# mixture-m3: worst seen for the planted model over 130 sample/learn
# seeds were a weight error of 0.008, a relative mean error of 0.028 and
# an accuracy 0.091 below the planted model's own classifier.
WEIGHT_TOL = 0.03
MEAN_TOL = 0.15
ACCURACY_GAP_TOL = 0.2
SIMPLEX_TOL = 1e-9
# classify and the likelihoods floor variances at this value, as the
# package documents for its density evaluation.
VAR_FLOOR = 1e-3
# Labels that may differ from the benchmark's own argmax (near-ties).
LABEL_MISMATCH_MAX = 10
# sample moments: |package - own| <= MOMENT_TOL * (1 + |own|).
MOMENT_TOL = 1e-9
# EM: |own log-likelihood - max(history)| <= EM_LL_RTOL * |own|.
EM_LL_RTOL = 1e-10


def distinct_keys(d: int, m: int) -> np.ndarray:
    """All sorted distinct-index keys, lexicographic, as an (n, m) array."""
    return np.array(list(itertools.combinations(range(d), m)), dtype=np.intp)


def tensor_values(components: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """sum_i prod_t q_i[key_t] at every key, multiplied one slot at a time."""
    prod = components[:, keys[:, 0]]
    for t in range(1, keys.shape[1]):
        prod = prod * components[:, keys[:, t]]
    return prod.sum(axis=0)


def weighted_norm(values: np.ndarray, m: int) -> float:
    """sqrt(m! sum |v|^2): each sorted key stands for m! ordered ones."""
    return math.sqrt(math.factorial(m) * float(np.vdot(values, values).real))


def entries_of(keys: np.ndarray, values: np.ndarray) -> dict:
    return {tuple(k): complex(v) for k, v in zip(keys.tolist(), values.tolist())}


def roundtrip_problems(expected: dict, tensor, d: int, m: int) -> list[str]:
    """The loaded tensor must hold exactly the expected entries, bit for bit."""
    if (tensor.d, tensor.m) != (d, m):
        return [f"loaded shape (d={tensor.d}, m={tensor.m}) != ({d}, {m})"]
    if tensor.entries.keys() != expected.keys():
        return ["loaded key set differs from the written one"]
    keys = list(expected)
    want = np.array([expected[k] for k in keys], dtype=complex)
    got = np.array([tensor.entries[k] for k in keys], dtype=complex)
    bad = np.flatnonzero(
        (want.view(np.uint64) != got.view(np.uint64)).reshape(-1, 2).any(axis=1)
    )
    if bad.size:
        return [f"{bad.size} entries differ after the JSON round trip, first at {keys[bad[0]]}"]
    return []


def component_mismatch(truth: np.ndarray, recovered: np.ndarray, m: int) -> float:
    """Largest relative vector error after matching components over
    permutations and m-th roots of unity."""
    etas = np.exp(2j * np.pi * np.arange(m) / m)
    diff = truth[:, None, None, :] - etas[None, None, :, None] * recovered[None, :, None, :]
    dist = np.linalg.norm(diff, axis=3).min(axis=2)
    dist /= np.linalg.norm(truth, axis=1)[:, None]
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def exact_problems(planted, planted_values, keys, recovered, m) -> list[str]:
    recovered = np.asarray(recovered)
    if recovered.shape != planted.shape:
        return [f"components have shape {recovered.shape}, planted {planted.shape}"]
    if not np.all(np.isfinite(recovered)):
        return ["components are not finite"]
    problems = []
    rebuilt = tensor_values(recovered, keys)
    recon = weighted_norm(rebuilt - planted_values, m) / weighted_norm(planted_values, m)
    if not recon <= EXACT_RECON_TOL:
        problems.append(f"reconstruction error {recon:.3e} > {EXACT_RECON_TOL}")
    comp = component_mismatch(planted.astype(complex), recovered, m)
    if not comp <= EXACT_COMPONENT_TOL:
        problems.append(f"component error {comp:.3e} > {EXACT_COMPONENT_TOL}")
    return problems


def noisy_problems(truth_values, noisy_values, keys, recovered, m, epsilon, diagnostics):
    recovered = np.asarray(recovered)
    if not np.all(np.isfinite(recovered)):
        return ["components are not finite"]
    rebuilt = tensor_values(recovered, keys)
    abs_err = weighted_norm(rebuilt - truth_values, m)
    rel_err = weighted_norm(rebuilt - noisy_values, m) / weighted_norm(
        noisy_values - truth_values, m
    )
    problems = []
    if not abs_err <= epsilon:
        problems.append(f"abs_err {abs_err:.3e} > epsilon {epsilon}")
    if not rel_err <= 1.0:
        problems.append(f"rel_err {rel_err:.6f} > 1")
    for name, own in (("abs_err", abs_err), ("rel_err", rel_err)):
        reported = diagnostics.get(name)
        if reported is None or not abs(reported - own) <= DIAGNOSTIC_RTOL * own:
            problems.append(f"reported {name} {reported} != recomputed {own:.9e}")
    return problems


def log_weighted_densities(data, weights, means, variances) -> np.ndarray:
    """(N, r): log w_i + log N(y; mu_i, diag var_i), in GEMM form."""
    var = np.maximum(variances, VAR_FLOOR)
    inv = 1.0 / var
    quad = (data * data) @ inv.T - 2.0 * (data @ (means * inv).T)
    quad += (means * means * inv).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    const = np.log(var).sum(axis=1) + data.shape[1] * math.log(2 * math.pi)
    return log_w - 0.5 * (quad + const)


def log_likelihood(data, weights, means, variances) -> float:
    a = log_weighted_densities(data, weights, means, variances)
    top = a.max(axis=1, keepdims=True)
    return float((top[:, 0] + np.log(np.exp(a - top).sum(axis=1))).sum())


def matched_accuracy(labels, truth, r: int) -> float:
    confusion = np.bincount(labels * r + truth, minlength=r * r).reshape(r, r)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / labels.size)


def model_invariant_problems(model, r: int, d: int) -> list[str]:
    w, mu, var = model.weights, model.means, model.variances
    if w.shape != (r,) or mu.shape != (r, d) or var.shape != (r, d):
        return [f"model shapes {w.shape}, {mu.shape}, {var.shape}"]
    problems = []
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
        problems.append("model has non-finite parameters")
    if np.any(w < 0) or not abs(w.sum() - 1.0) <= SIMPLEX_TOL:
        problems.append(f"weights off the simplex: min {w.min():.3e}, sum {w.sum():.12f}")
    if np.any(var < 0):
        problems.append(f"negative variance {var.min():.3e}")
    return problems


def recovery_problems(planted, learned, accuracy, planted_accuracy) -> list[str]:
    """The learned mixture must lie near the planted one after matching."""
    cost = np.linalg.norm(planted.means[:, None, :] - learned.means[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    mean_err = float((cost[rows, cols] / np.linalg.norm(planted.means[rows], axis=1)).max())
    weight_err = float(np.abs(planted.weights[rows] - learned.weights[cols]).max())
    problems = []
    if not weight_err <= WEIGHT_TOL:
        problems.append(f"weight error {weight_err:.4f} > {WEIGHT_TOL}")
    if not mean_err <= MEAN_TOL:
        problems.append(f"relative mean error {mean_err:.4f} > {MEAN_TOL}")
    if not accuracy >= planted_accuracy - ACCURACY_GAP_TOL:
        problems.append(
            f"accuracy {accuracy:.4f} below planted classifier {planted_accuracy:.4f} "
            f"by more than {ACCURACY_GAP_TOL}"
        )
    return problems


def own_labels(model, data) -> np.ndarray:
    return np.argmax(
        log_weighted_densities(data, model.weights, model.means, model.variances), axis=1
    )


def label_problems(labels, model, data) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != (data.shape[0],):
        return [f"labels have shape {labels.shape}, expected ({data.shape[0]},)"]
    if labels.min() < 0 or labels.max() >= model.weights.size:
        return ["labels out of range"]
    mismatch = int(np.count_nonzero(labels != own_labels(model, data)))
    if mismatch > LABEL_MISMATCH_MAX:
        return [f"{mismatch} labels differ from the weighted-density argmax"]
    return []


def em_problems(model, data, r: int) -> list[str]:
    problems = model_invariant_problems(model, r, data.shape[1])
    history = model.meta.get("loglik_history") or []
    if not history:
        return problems + ["empty log-likelihood history"]
    own = log_likelihood(data, model.weights, model.means, model.variances)
    tol = EM_LL_RTOL * abs(own)
    if not abs(own - max(history)) <= tol:
        problems.append(f"log-likelihood {own:.10e} != history maximum {max(history):.10e}")
    if not own >= history[0] - tol:
        problems.append(f"log-likelihood {own:.10e} below the first iterate {history[0]:.10e}")
    return problems


def moment_problems(data, moments) -> list[str]:
    """Compare a MomentSet with moments computed here as GEMMs."""
    n, d = data.shape
    keys = np.array(sorted(moments.values), dtype=np.intp)
    got = np.array([moments.values[tuple(k)] for k in keys.tolist()])
    order = keys.shape[1]
    if order == 1:
        want = data.mean(axis=0)[keys[:, 0]]
    elif order == 2:
        want = (data.T @ data / n)[keys[:, 0], keys[:, 1]]
    elif order == 3:
        cube = np.stack([(data * data[:, j : j + 1]).T @ data for j in range(d)]) / n
        want = cube[keys[:, 0], keys[:, 1], keys[:, 2]]
    else:
        want = np.array([np.prod(data[:, k], axis=1).mean() for k in keys])
    err = np.abs(got - want) / (1.0 + np.abs(want))
    if not err.max() <= MOMENT_TOL:
        worst = int(err.argmax())
        key = tuple(int(k) for k in keys[worst])
        return [f"sample moment at {key} is {float(got[worst])!r}, own {float(want[worst])!r}"]
    return []
