"""Mixture sampling, moments, parameter recovery, EM baseline, metrics."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from momentmix import gmm
from momentmix.errors import (
    InvalidMomentKey,
    InvalidSamples,
    MissingEntry,
    MomentmixError,
    OrderConflict,
    RankTooLarge,
    TooFewSamples,
)
from momentmix.gmm import (
    GmmModel,
    MomentSet,
    SampleSet,
    accuracy,
    choose_t,
    classify,
    covariance_keys,
    em_baseline,
    exact_moments,
    learn,
    learn_from_moments,
    learning_keys,
    model_from_json,
    model_to_json,
    random_model,
    realify,
    recover_covariances,
    recover_weights,
    refine_params,
    sample_gmm,
    sample_moments,
    univariate_gaussian_moment,
)
from momentmix import numerics
from momentmix.numerics import rng_from, simplex_nlls
from momentmix.tensor_store import component_products, omega_keys, product_jacobian


def match_error(model, learned):
    """Worst per-component parameter error after optimal matching."""
    r = model.r
    C = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            C[i, j] = max(
                abs(model.weights[i] - learned.weights[j]),
                np.abs(model.means[i] - learned.means[j]).max(),
                np.abs(model.variances[i] - learned.variances[j]).max(),
            )
    rows, cols = linear_sum_assignment(C)
    return C[rows, cols].max()


def moments_for_learning(model, d, m, r):
    t = choose_t(d, r)
    keys_m = set(map(tuple, omega_keys(d, m).tolist()))
    for j in range(d):
        keys_m.update(map(tuple, covariance_keys(d, m, j).tolist()))
    Mm = exact_moments(model, sorted(keys_m))
    Mt = exact_moments(model, omega_keys(d, t))
    return Mm, Mt


def test_sample_gmm_degenerate_weight():
    model = GmmModel(
        weights=np.array([1.0, 0.0]),
        means=np.array([[0.0, 0.0], [5.0, 5.0]]),
        variances=np.ones((2, 2)),
    )
    s = sample_gmm(model, 500, seed=1)
    assert np.all(s.labels == 0)


@pytest.mark.parametrize("make, name", [
    (lambda: random_model(3, 0, seed=1), "r"),
    (lambda: random_model(0, 2, seed=1), "d"),
    (lambda: sample_gmm(random_model(3, 2, seed=1), -1, seed=1), "N"),
], ids=["r-zero", "d-zero", "N-negative"])
def test_random_model_and_sample_gmm_reject_bad_sizes(make, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        make()


def test_sample_gmm_zero_variance():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[1.0, 2.0], [3.0, 4.0]]),
        variances=np.zeros((2, 2)),
    )
    s = sample_gmm(model, 200, seed=2)
    assert np.allclose(s.data, model.means[s.labels])


def test_sample_gmm_mean_concentration():
    model = GmmModel(
        weights=np.array([1.0]),
        means=np.array([[0.5, -1.0, 2.0]]),
        variances=np.ones((1, 3)),
    )
    s = sample_gmm(model, 100_000, seed=3)
    assert np.abs(s.data.mean(axis=0) - model.means[0]).max() < 0.03


def test_sample_moments_arithmetic():
    s = SampleSet(data=np.array([[1.0, 2.0], [3.0, 4.0]]))
    ms = sample_moments(s, [(0, 1)])
    assert ms[(0, 1)] == pytest.approx(7.0)
    z = SampleSet(data=np.zeros((4, 3)))
    msz = sample_moments(z, [(0, 1, 2)])
    assert msz[(0, 1, 2)] == 0.0


def test_sample_moments_match_exact_in_the_limit():
    model = random_model(4, 2, seed=5)
    N = 200_000
    s = sample_gmm(model, N, seed=5)
    keys = omega_keys(4, 3)
    est = sample_moments(s, keys)
    exact = exact_moments(model, keys)
    Y = s.data
    for key in keys:
        prods = np.prod(Y[:, list(key)], axis=1)
        bound = 5.0 * prods.std() / np.sqrt(N)
        assert abs(est[key] - exact[key]) <= bound


def test_univariate_moments_closed_forms():
    mu, var = 0.7, 2.3
    s2 = var
    closed = {
        0: 1.0,
        1: mu,
        2: mu**2 + s2,
        3: mu**3 + 3 * mu * s2,
        4: mu**4 + 6 * mu**2 * s2 + 3 * s2**2,
        5: mu**5 + 10 * mu**3 * s2 + 15 * mu * s2**2,
        6: mu**6 + 15 * mu**4 * s2 + 45 * mu**2 * s2**2 + 15 * s2**3,
    }
    for t, want in closed.items():
        assert univariate_gaussian_moment(mu, var, t) == pytest.approx(
            want, rel=1e-12
        )
    assert univariate_gaussian_moment(0.0, 1.0, 4) == pytest.approx(3.0)


def test_exact_moments_values():
    model = GmmModel(
        weights=np.array([1.0]),
        means=np.array([[1.0, 1.0, 1.0]]),
        variances=np.array([[4.0, 1.0, 1.0]]),
    )
    ms = exact_moments(model, [(0, 0, 1), (0, 1, 2)])
    assert ms[(0, 0, 1)] == pytest.approx(5.0)  # (mu^2 + var) * mu
    assert ms[(0, 1, 2)] == pytest.approx(1.0)  # pure mean product
    # repeated-pair entry minus the mean part isolates the variance term
    assert ms[(0, 0, 1)] - 1.0 == pytest.approx(4.0)


def test_covariance_keys():
    keys = covariance_keys(4, 3, 1)
    assert keys.tolist() == [[0, 1, 1], [1, 1, 2], [1, 1, 3]]
    for k in keys.tolist():
        assert sorted(k) == k


@pytest.mark.parametrize("d, m", [(4, 3), (6, 3), (7, 4)])
def test_learning_keys(d, m):
    keys = learning_keys(d, m)
    union = set(map(tuple, omega_keys(d, m).tolist()))
    for j in range(d):
        union.update(map(tuple, covariance_keys(d, m, j).tolist()))
    assert keys.tolist() == [list(k) for k in sorted(union)]
    # the repeated pair fixes j, so the two key families never overlap
    n_distinct = len(list(itertools.combinations(range(d), m)))
    n_pairs = d * len(list(itertools.combinations(range(d - 1), m - 2)))
    assert len(keys) == n_distinct + n_pairs


def test_realify():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(realify(v.astype(complex), 3), [v])
    # for even order the first root of unity reaching a real vector wins,
    # so i*v comes back negated (the sign is unobservable at this stage)
    assert np.allclose(realify(1j * v, 4), [-v])


def test_realify_minimality():
    rng = np.random.default_rng(8)
    for m in (3, 4, 5):
        for _ in range(100 // 3 + 1):
            q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            out = realify(q, m)[0]
            chosen = min(
                np.linalg.norm((np.exp(2j * np.pi * t / m) * q).imag)
                for t in range(m)
            )
            # the returned vector is the real part under some eta whose
            # imaginary norm attains the minimum
            attained = [
                t for t in range(m)
                if np.allclose((np.exp(2j * np.pi * t / m) * q).real, out)
            ]
            assert attained
            t = attained[0]
            assert np.linalg.norm(
                (np.exp(2j * np.pi * t / m) * q).imag
            ) == pytest.approx(chosen)


def test_choose_t():
    assert choose_t(8, 3) == 1
    assert choose_t(8, 9) == 2
    assert choose_t(4, 5) == 2


def test_choose_t_rejects_rank_above_every_binomial():
    # C(3, t) is at most 3, so no order holds 5 components
    with pytest.raises(RankTooLarge, match="rank 5"):
        choose_t(3, 5)
    assert choose_t(3, 3) == 1


def test_recover_weights_round_trip():
    omega = np.array([0.25, 0.75])
    mus = np.array([[1.0, 2.0, -1.0], [0.5, -0.5, 2.0]])
    m, t = 3, 1
    qs = omega[:, None] ** (1 / m) * mus
    model = GmmModel(weights=omega, means=mus, variances=np.zeros((2, 3)))
    Mt = exact_moments(model, omega_keys(3, t))
    w, mu_hat = recover_weights(qs, Mt, m, t)
    assert np.allclose(np.sort(w), [0.25, 0.75], atol=1e-10)
    order = np.argsort(w)
    assert np.allclose(mu_hat[order], mus[np.argsort(omega)], atol=1e-9)


def test_recover_weights_order_conflict():
    with pytest.raises(OrderConflict):
        recover_weights(np.ones((2, 3)), None, m=3, t=3)


def test_refine_params_truth_is_fixed_point():
    model = random_model(5, 2, seed=9)
    Mm, Mt = moments_for_learning(model, 5, 3, 2)
    w, mu = refine_params(model.weights, model.means, Mm, Mt)
    assert np.allclose(w, model.weights, atol=1e-8)
    assert np.allclose(mu, model.means, atol=1e-8)


def test_refine_params_recovers_from_perturbed_start():
    model = random_model(5, 2, seed=10)
    Mm, Mt = moments_for_learning(model, 5, 3, 2)
    rng = np.random.default_rng(0)
    w0 = model.weights + 1e-3 * rng.standard_normal(2)
    w0 = np.abs(w0) / np.abs(w0).sum()
    mu0 = model.means + 1e-3 * rng.standard_normal(model.means.shape)
    w, mu = refine_params(w0, mu0, Mm, Mt)
    assert np.allclose(w, model.weights, atol=1e-6)
    assert np.allclose(mu, model.means, atol=1e-6)


def test_recover_covariances_closed_case():
    model = GmmModel(
        weights=np.array([1.0]),
        means=np.array([[1.0, 1.0, 1.0]]),
        variances=np.array([[4.0, 1.0, 1.0]]),
    )
    keys = set(map(tuple, omega_keys(3, 3).tolist()))
    for j in range(3):
        keys.update(map(tuple, covariance_keys(3, 3, j).tolist()))
    Mm = exact_moments(model, sorted(keys))
    qs = model.weights[:, None] ** (1 / 3) * model.means
    var = recover_covariances(Mm, qs, model.weights, model.means)
    assert np.allclose(var, [[4.0, 1.0, 1.0]], atol=1e-9)


def test_recover_covariances_zero_variance():
    model = random_model(6, 2, seed=11)
    model = GmmModel(
        weights=model.weights,
        means=model.means,
        variances=np.zeros_like(model.variances),
    )
    keys = set(map(tuple, omega_keys(6, 3).tolist()))
    for j in range(6):
        keys.update(map(tuple, covariance_keys(6, 3, j).tolist()))
    Mm = exact_moments(model, sorted(keys))
    qs = model.weights[:, None] ** (1 / 3) * model.means
    var = recover_covariances(Mm, qs, model.weights, model.means)
    assert np.abs(var).max() <= 1e-9


def test_learn_from_exact_moments():
    model = random_model(8, 3, seed=12)
    Mm, Mt = moments_for_learning(model, 8, 3, 3)
    learned = learn_from_moments(Mm, Mt, 8, 3, seed=1)
    assert match_error(model, learned) <= 1e-6


def test_learn_single_gaussian():
    model = GmmModel(
        weights=np.array([1.0]),
        means=np.array([[1.0, -2.0, 0.5, 3.0, -1.5]]),
        variances=np.array([[1.0, 0.5, 2.0, 1.5, 0.8]]),
    )
    s = sample_gmm(model, 100_000, seed=13)
    learned = learn(s, 1, 3, seed=13)
    assert learned.weights == pytest.approx([1.0])
    assert np.abs(learned.means[0] - model.means[0]).max() < 0.05
    assert np.abs(learned.variances[0] - model.variances[0]).max() < 0.1


def test_learn_rejects_nan_samples():
    s = sample_gmm(random_model(6, 2, seed=21), 2000, seed=21)
    s.data[5, 3] = np.nan
    # a sample fault, not a fault of the moment tensor built from them
    with pytest.raises(InvalidSamples, match="sample 5 is non-finite at coordinate 3"):
        learn(s, 2, 3, seed=21)


def test_em_single_component_closed_form():
    rng = np.random.default_rng(14)
    Y = rng.standard_normal((5000, 3)) + np.array([1.0, 2.0, 3.0])
    s = SampleSet(data=Y)
    model = em_baseline(s, 1, seed=0)
    assert np.allclose(model.means[0], Y.mean(axis=0), atol=1e-9)
    assert np.allclose(model.variances[0], Y.var(axis=0) + 1e-3, atol=1e-9)


def test_em_loglik_monotone():
    model = random_model(4, 2, seed=15)
    s = sample_gmm(model, 2000, seed=15)
    em = em_baseline(s, 2, seed=15)
    hist = np.array(em.meta["loglik_history"])
    assert np.all(np.diff(hist) >= -1e-6 * np.abs(hist[:-1]))


def test_em_separated_clusters():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [20.0, 20.0]]),
        variances=np.ones((2, 2)),
    )
    s = sample_gmm(model, 5000, seed=16)
    em = em_baseline(s, 2, seed=16)
    assert accuracy(classify(em, s), s.labels) >= 0.99


def test_classify_truth_model():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [10.0, 10.0]]),
        variances=np.full((2, 2), 1e-6),
    )
    s = sample_gmm(model, 1000, seed=17)
    assert accuracy(classify(model, s), s.labels) == 1.0


def test_accuracy_permutation_invariant():
    model = random_model(4, 3, seed=18)
    s = sample_gmm(model, 2000, seed=18)
    labels = classify(model, s)
    perm = np.array([2, 0, 1])
    permuted = GmmModel(
        weights=model.weights[perm],
        means=model.means[perm],
        variances=model.variances[perm],
    )
    labels_p = classify(permuted, s)
    assert accuracy(labels, s.labels) == pytest.approx(
        accuracy(labels_p, s.labels)
    )


def test_accuracy_single_component():
    labels = np.zeros(100, dtype=int)
    assert accuracy(labels, labels) == 1.0


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        accuracy(np.zeros(100, dtype=int), np.zeros(99, dtype=int))


def test_random_model_valid():
    model = random_model(6, 3, seed=19)
    assert model.weights.sum() == pytest.approx(1.0)
    assert np.all(model.weights > 0)
    assert np.all(model.variances >= 0)


def test_model_json_round_trip():
    model = random_model(5, 2, seed=20)
    back = model_from_json(model_to_json(model))
    assert np.allclose(back.weights, model.weights)
    assert np.allclose(back.means, model.means)
    assert np.allclose(back.variances, model.variances)


# The GEMM-form kernels against the per-key and (N, r, d) forms they replaced.


def _moment_keys(d, order):
    if order == 1:
        return [(j,) for j in range(d)]
    keys = set(map(tuple, omega_keys(d, order).tolist()))
    for j in range(d):
        keys.update(map(tuple, covariance_keys(d, order, j).tolist()))
        keys.add((j,) * order)
    # unsorted orientations must land on their sorted key
    return [k[::-1] if i % 3 == 0 else k for i, k in enumerate(sorted(keys))]


def _product_mean(data, key):
    """The mean over the samples of a key's product, in numpy's extended
    precision: a moment can be a small fraction of its terms (1.6e-5 of
    their mean magnitude for key (1, 2) of the 512 samples below), and a
    float64 mean of them is then off by more than the 1e-12 allowed."""
    return float(np.prod(data[:, list(key)].astype(np.longdouble), axis=1).mean())


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows", ["below", "equal", "ragged"])
def test_sample_moments_equal_per_key_products(order, rows):
    chunk = gmm._MOMENT_CHUNK
    n = {"below": chunk - 1, "equal": chunk, "ragged": 2 * chunk + 37}[rows]
    s = sample_gmm(random_model(6, 2, seed=22), n, seed=22)
    keys = _moment_keys(6, order)
    got = sample_moments(s, keys)
    assert got.order == order
    assert sorted(got.values) == sorted({tuple(sorted(k)) for k in keys})
    for key in keys:
        want = _product_mean(s.data, key)
        assert abs(got[key] - want) <= 1e-12 * abs(want)


def _diff_form_log_densities(Y, weights, means, variances):
    var = np.maximum(variances, gmm._VAR_FLOOR)
    diff = Y[:, None, :] - means[None, :, :]
    quad = (diff * diff / var[None, :, :]).sum(axis=2)
    logdet = np.log(var).sum(axis=1)
    return np.log(np.maximum(weights, 1e-300))[None, :] - 0.5 * (
        quad + logdet[None, :] + Y.shape[1] * np.log(2 * np.pi)
    )


@pytest.mark.parametrize("case", ["random", "floored", "chunks"])
def test_log_component_densities_match_diff_form(case):
    # the log-densities W [y, y * y] + c that EM and classify form, and
    # classify's labels, against the difference form
    if case == "floored":  # the setting of test_classify_truth_model: variances below the floor
        model = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [10.0, 10.0]]),
            variances=np.full((2, 2), 1e-6),
        )
    else:
        model = random_model(5, 3, seed=23)
    # "chunks": several of classify's chunks and a remainder
    n = 2 * gmm._EM_CHUNK + 5 if case == "chunks" else 1000
    Y = sample_gmm(model, n, seed=23).data
    args = (model.weights, model.means, model.variances)
    W, c = gmm._density_coefficients(*args)
    got = np.hstack([Y, Y * Y]) @ W.T + c
    want = _diff_form_log_densities(Y, *args)
    assert np.abs(got - want).max() <= 1e-9
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    assert np.array_equal(classify(model, SampleSet(Y)), want.argmax(axis=1))


def _diff_form_em_means(Y, r, iters, seed, reg_value=1e-3):
    N = Y.shape[0]
    resp = rng_from(seed, "em").random((N, r))
    resp /= resp.sum(axis=1, keepdims=True)
    for _ in range(iters):
        nk = resp.sum(axis=0)
        means = (resp.T @ Y) / nk[:, None]
        variances = resp.T @ (Y * Y) / nk[:, None] - means**2 + reg_value
        log_prob = _diff_form_log_densities(Y, nk / N, means, variances)
        mx = log_prob.max(axis=1)
        log_norm = mx + np.log(np.exp(log_prob - mx[:, None]).sum(axis=1))
        resp = np.exp(log_prob - log_norm[:, None])
    return means


def test_em_matches_diff_form_and_is_deterministic():
    s = sample_gmm(random_model(5, 3, seed=24), 3000, seed=24)
    em = em_baseline(s, 3, max_iters=5, seed=24)
    again = em_baseline(s, 3, max_iters=5, seed=24)
    for a, b in [(em.weights, again.weights), (em.means, again.means),
                 (em.variances, again.variances)]:
        assert np.array_equal(a, b)
    assert em.meta["loglik_history"] == again.meta["loglik_history"]
    # the log-likelihood rises here, so the best iterate is the last one
    assert np.argmax(em.meta["loglik_history"]) == 4
    assert np.abs(em.means - _diff_form_em_means(s.data, 3, 5, 24)).max() <= 1e-10


def test_accuracy_equals_confusion_loop():
    rng = np.random.default_rng(25)
    for r_labels, r_truth in [(4, 4), (3, 5), (6, 2)]:
        labels = rng.integers(r_labels, size=1000)
        truth = rng.integers(r_truth, size=1000)
        r = int(max(labels.max(), truth.max())) + 1
        confusion = np.zeros((r, r))
        for a, b in zip(labels, truth):
            confusion[a, b] += 1
        rows, cols = linear_sum_assignment(-confusion)
        assert accuracy(labels, truth) == confusion[rows, cols].sum() / 1000


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_em_rejects_non_finite_samples(bad):
    s = sample_gmm(random_model(4, 2, seed=26), 500, seed=26)
    s.data[7, 2] = bad
    with pytest.raises(InvalidSamples) as exc:
        em_baseline(s, 2, seed=26)
    assert isinstance(exc.value, MomentmixError)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("field", ["weights", "means", "variances"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gmm_model_rejects_non_finite(field, bad):
    params = dict(
        weights=np.array([0.5, 0.5]),
        means=np.zeros((2, 3)),
        variances=np.ones((2, 3)),
    )
    params[field] = params[field].copy()
    params[field].flat[1] = bad
    with pytest.raises(ValueError):
        GmmModel(**params)


@pytest.mark.parametrize("m,t", [(3, 1), (3, 2), (4, 2), (5, 1), (5, 3)])
def test_moment_jacobian_through_simplex_matches_central_differences(
    monkeypatch, m, t
):
    d, r = 6, 3
    model = random_model(d, r, seed=30 + m + t)
    Mm = exact_moments(model, omega_keys(d, m))
    Mt = exact_moments(model, omega_keys(d, t))
    residual, normal_equations = gmm._moment_residual(Mm, Mt, d)
    captured = {}

    def capture(wrapped, x0, **kwargs):
        captured.update(wrapped=wrapped, x0=x0, **kwargs)
        return x0

    monkeypatch.setattr(numerics, "nlls_refine", capture)
    rng = np.random.default_rng(m * 10 + t)
    w0 = model.weights + 0.05 * rng.random(r)
    mu0 = model.means + 0.1 * rng.standard_normal((r, d))
    simplex_nlls(residual, w0 / w0.sum(), mu0, normal_equations=normal_equations)
    wrapped, x = captured["wrapped"], captured["x0"]
    f = wrapped(x)
    JtJ, Jtf = captured["normal_equations"](x, f)
    J = np.empty((f.size, x.size))
    for k in range(x.size):
        h = 1e-6 * (1.0 + abs(x[k]))
        step = np.zeros_like(x)
        step[k] = h
        J[:, k] = (wrapped(x + step) - wrapped(x - step)) / (2 * h)
    assert np.abs(JtJ - J.T @ J).max() <= 1e-7 * np.abs(JtJ).max()
    assert np.abs(Jtf - J.T @ f).max() <= 1e-7 * np.abs(Jtf).max()


def dense_moment_jacobian(Mm, Mt, omega, mu):
    """Reference (n_keys, r + r * d) Jacobian of the moment residual in
    (omega, mu): component i's product at each key, and omega_i times the
    product's derivative in mu_ia (the identity at order 1)."""
    r, d = mu.shape
    blocks = []
    for M in (Mm, Mt):
        keys = omega_keys(d, M.order)
        if M.order == 1:
            D = np.zeros((d, r, d))
            D[np.arange(d), :, np.arange(d)] = 1.0
        else:
            D = product_jacobian(mu, keys)
        D *= omega[None, :, None]
        blocks.append(np.hstack([component_products(mu, keys).T, D.reshape(len(keys), -1)]))
    return np.vstack(blocks)


@pytest.mark.parametrize("d,r,m,t", [
    (15, 6, 3, 1), (15, 8, 4, 1), (15, 12, 5, 1), (8, 5, 4, 2), (9, 4, 5, 3),
])
def test_moment_normal_equations_match_dense_jacobian(d, r, m, t):
    model = random_model(d, r, seed=d + r + m + t)
    samples = sample_gmm(model, 5000, seed=m + t)
    Mm = sample_moments(samples, omega_keys(d, m))
    Mt = sample_moments(samples, omega_keys(d, t))
    residual, normal_equations = gmm._moment_residual(Mm, Mt, d)
    rng = np.random.default_rng(d * r)
    omega = model.weights + 0.05 * rng.random(r)
    omega /= omega.sum()
    mu = model.means + 0.1 * rng.standard_normal((r, d))
    f = residual(omega, mu)
    JtJ, Jtf = normal_equations(omega, mu, f)
    J = dense_moment_jacobian(Mm, Mt, omega, mu)
    assert np.abs(JtJ - J.T @ J).max() <= 1e-12 * np.abs(J.T @ J).max()
    assert np.abs(Jtf - J.T @ f).max() <= 1e-12 * np.abs(J.T @ f).max()


def test_moment_normal_equations_peak_memory_below_dense_jacobian():
    # no (n_keys, r * (d + 1)) Jacobian, nor anything half that large
    import tracemalloc

    d, r, m = 15, 12, 5
    model = random_model(d, r, seed=15)
    Mm = exact_moments(model, omega_keys(d, m))
    Mt = exact_moments(model, omega_keys(d, 1))
    residual, normal_equations = gmm._moment_residual(Mm, Mt, d)
    f = residual(model.weights, model.means)
    n_keys = len(Mm.values) + len(Mt.values)
    tracemalloc.start()
    try:
        normal_equations(model.weights, model.means, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_keys == 3018
    assert peak < n_keys * r * (d + 1) * np.dtype(float).itemsize / 2


def test_refine_params_matches_finite_difference_path():
    model = random_model(5, 2, seed=12)
    samples = sample_gmm(model, 3000, seed=12)
    Mm = sample_moments(samples, omega_keys(5, 3))
    Mt = sample_moments(samples, omega_keys(5, 1))
    rng = np.random.default_rng(1)
    w0 = np.abs(model.weights + 0.02 * rng.standard_normal(2))
    w0 /= w0.sum()
    mu0 = model.means + 0.02 * rng.standard_normal(model.means.shape)
    residual, _ = gmm._moment_residual(Mm, Mt, 5)
    w_fd, mu_fd = simplex_nlls(residual, w0, mu0)
    w, mu = refine_params(w0, mu0, Mm, Mt)
    assert np.abs(w - w_fd).max() <= 1e-6
    assert np.abs(mu - mu_fd).max() <= 1e-6


@pytest.mark.parametrize("order", [1, 3])
def test_sample_moments_reject_empty_samples(order):
    empty = SampleSet(data=np.empty((0, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN moments behind a RuntimeWarning
        with pytest.raises(InvalidSamples, match="no samples"):
            sample_moments(empty, omega_keys(4, order))


def test_learn_rejects_empty_samples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSamples, match="no samples"):
            learn(SampleSet(data=np.empty((0, 6))), 2, 3, seed=1)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_moments_reject_non_finite_samples(order, bad):
    s = sample_gmm(random_model(6, 2, seed=5), 300, seed=5)
    s.data[7, 2] = bad
    s.data[9, 4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN moments behind a RuntimeWarning
        with pytest.raises(InvalidSamples, match="sample 7 is non-finite at coordinate 2"):
            sample_moments(s, omega_keys(6, order))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_learn_rejects_non_finite_samples(bad):
    s = sample_gmm(random_model(6, 2, seed=5), 300, seed=5)
    s.data[0, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSamples, match="sample 0 is non-finite at coordinate 5"):
            learn(s, 2, 3, seed=5)


def test_sample_moments_reject_overflowing_products():
    s = sample_gmm(random_model(6, 2, seed=5), 300, seed=5)
    s.data *= 1e120  # finite, but cubes pass 1e308
    assert np.isfinite(sample_moments(s, omega_keys(6, 2)).values[(0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSamples, match="finite but too large"):
            sample_moments(s, omega_keys(6, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classify_rejects_non_finite_samples(bad):
    model = random_model(4, 3, seed=1)
    s = sample_gmm(model, 10, seed=1)
    s.data[2, 1] = bad
    with pytest.raises(InvalidSamples, match="sample 2 "):
        classify(model, s)


_SAMPLE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def sample_arrays(draw):
    """(N, d) finite samples, N <= 12 and d <= 5, zeros included."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    cells = draw(st.lists(_SAMPLE_FLOATS, min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=float).reshape(n, d)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sample_arrays(), st.integers(1, 4), st.data())
def test_sample_moments_slot_permutation_property(Y, m, data):
    # keys with their slots shuffled have the moments of the sorted keys
    every = list(itertools.combinations_with_replacement(range(Y.shape[1]), m))
    keys = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=15, unique=True))
    shuffled = [tuple(data.draw(st.permutations(key))) for key in keys]
    sorted_set = sample_moments(SampleSet(Y), keys)
    shuffled_set = sample_moments(SampleSet(Y), shuffled)
    assert shuffled_set.values == sorted_set.values
    assert np.array_equal(sorted_set.gather(shuffled), sorted_set.gather(keys))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sample_arrays(), st.integers(1, 4), st.data())
def test_sample_moments_reject_non_finite_at_any_position_property(Y, m, data):
    i = data.draw(st.integers(0, len(Y) - 1))
    j = data.draw(st.integers(0, Y.shape[1] - 1))
    Y[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    keys = list(itertools.combinations_with_replacement(range(Y.shape[1]), m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN moments behind a RuntimeWarning
        with pytest.raises(InvalidSamples, match=f"sample {i} is non-finite at coordinate {j}$"):
            sample_moments(SampleSet(Y), keys)


# The moment-recovery stages on the shared product kernel against the
# per-key loops they replaced.


def _exact_moment_loop(model, key):
    mult = {}
    for s in sorted(key):
        mult[s] = mult.get(s, 0) + 1
    total = 0.0
    for i in range(model.r):
        prod = 1.0
        for coord, t in mult.items():
            prod *= univariate_gaussian_moment(
                model.means[i, coord], model.variances[i, coord], t
            )
        total += model.weights[i] * prod
    return total


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_exact_moments_equal_per_key_loop(order):
    d = 6
    model = random_model(d, 4, seed=40 + order)
    rng = np.random.default_rng(order)
    # one run of every length 1..order, then random keys with mixed runs
    keys = [(d - 1,) * t + tuple(range(order - t)) for t in range(1, order + 1)]
    keys += [tuple(rng.integers(0, d, order).tolist()) for _ in range(60)]
    keys.append((0, 0, 2, 2, 2)[:order])
    # unsorted orientations and duplicates, also duplicates after sorting
    keys += [k[::-1] for k in keys[:10]] + keys[:5]
    got = exact_moments(model, keys)
    assert got.order == order
    assert list(got.values) == list(dict.fromkeys(tuple(sorted(k)) for k in keys))
    for key in keys:
        want = _exact_moment_loop(model, key)
        assert abs(got[key] - want) <= 1e-12 * abs(want)


def _recover_covariances_loop(Mm, qs_real, omega, mus):
    r, d = mus.shape
    m = Mm.order
    variances = np.empty((r, d))
    for j in range(d):
        others = [s for s in range(d) if s != j]
        gammas = list(itertools.combinations(others, m - 2))
        response = np.empty(len(gammas))
        design = np.empty((len(gammas), r))
        for gi, gamma in enumerate(gammas):
            recon = sum(
                qs_real[i, j] ** 2 * np.prod(qs_real[i, list(gamma)])
                for i in range(r)
            )
            response[gi] = Mm[(j, j) + gamma] - recon
            design[gi, :] = omega * np.prod(mus[:, list(gamma)], axis=1)
        variances[:, j] = numerics.nnls(design, response)
    return variances


@pytest.mark.parametrize("m", [3, 4])
def test_recover_covariances_equal_per_key_loop(m):
    d, r = 7, 3
    model = random_model(d, r, seed=50 + m)
    keys = set()
    for j in range(d):
        keys.update(map(tuple, covariance_keys(d, m, j).tolist()))
    Mm = exact_moments(model, sorted(keys))
    # a perturbed start, so that the mean part does not cancel exactly
    mus = model.means + 0.01 * rng_from(m, "cov-test").standard_normal((r, d))
    qs = model.weights[:, None] ** (1 / m) * mus
    got = recover_covariances(Mm, qs, model.weights, mus)
    want = _recover_covariances_loop(Mm, qs, model.weights, mus)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _realify_loop(qs, m):
    qs = np.atleast_2d(np.asarray(qs, dtype=complex))
    out = np.empty(qs.shape, dtype=float)
    etas = np.exp(2j * np.pi * np.arange(m) / m)
    for i, q in enumerate(qs):
        imag_norms = [np.linalg.norm((eta * q).imag) for eta in etas]
        out[i] = (etas[int(np.argmin(imag_norms))] * q).real
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_realify_equals_row_loop(m, kind):
    rng = np.random.default_rng(m)
    qs = rng.standard_normal((5, 6))
    if kind == "complex":
        qs = qs + 1j * rng.standard_normal((5, 6))
    got = realify(qs, m)
    assert np.array_equal(got, _realify_loop(qs, m))
    if kind == "real":
        # the identity rotation wins over eta = -1 at even m
        assert np.array_equal(got, qs)


def test_moment_set_gather():
    ms = MomentSet(order=2, values={(0, 1): 1.5, (1, 1): -2.0})
    assert ms.gather(np.array([[1, 0], [1, 1], [0, 1]])).tolist() == [1.5, -2.0, 1.5]
    with pytest.raises(MissingEntry, match=r"\(0, 2\)") as exc:
        ms.gather([(1, 1), (2, 0)])
    assert exc.value.key == (0, 2)


def test_moment_set_getitem_raises_missing_entry():
    ms = sample_moments(SampleSet(data=np.arange(12.0).reshape(3, 4)), [(0, 1, 2)])
    assert ms[(2, 0, 1)] == ms.values[(0, 1, 2)]
    with pytest.raises(MissingEntry, match=r"\(0, 1, 3\)") as exc:
        ms[(0, 1, 3)]
    assert exc.value.key == (0, 1, 3)


# The chunked, component-major EM against the row-major diff-form loop.


def _diff_form_em_history(Y, r, iters, seed, reg_value=1e-3):
    """Log-likelihood of each iterate of the row-major diff-form EM."""
    N = Y.shape[0]
    resp = rng_from(seed, "em").random((N, r))
    resp /= resp.sum(axis=1, keepdims=True)
    history = []
    for _ in range(iters):
        nk = resp.sum(axis=0)
        means = (resp.T @ Y) / nk[:, None]
        variances = resp.T @ (Y * Y) / nk[:, None] - means**2 + reg_value
        log_prob = _diff_form_log_densities(Y, nk / N, means, variances)
        mx = log_prob.max(axis=1)
        log_norm = mx + np.log(np.exp(log_prob - mx[:, None]).sum(axis=1))
        history.append(log_norm.sum())
        resp = np.exp(log_prob - log_norm[:, None])
    return np.array(history)


@pytest.mark.parametrize("rows", ["below", "equal", "ragged"])
def test_chunked_em_matches_diff_form(rows):
    chunk = gmm._EM_CHUNK
    n = {"below": chunk - 1, "equal": chunk, "ragged": 2 * chunk + 37}[rows]
    s = sample_gmm(random_model(5, 3, seed=27), n, seed=27)
    em, again = (em_baseline(s, 3, max_iters=6, seed=27) for _ in range(2))
    assert np.abs(em.means - _diff_form_em_means(s.data, 3, 6, 27)).max() <= 1e-10
    want = _diff_form_em_history(s.data, 3, 6, 27)
    got = np.array(em.meta["loglik_history"])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # bit for bit per seed
    for name in ("weights", "means", "variances"):
        assert np.array_equal(getattr(em, name), getattr(again, name))
    assert em.meta["loglik_history"] == again.meta["loglik_history"]


def test_em_memory_stays_chunk_sized():
    import tracemalloc

    s = sample_gmm(random_model(15, 6, seed=29), 100_000, seed=29)
    tracemalloc.start()
    try:
        em_baseline(s, 6, max_iters=2, seed=29)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (N, 6) float array alone is 4.6 MiB
    assert peak < 4 * 2**20


def test_sample_moments_memory_stays_chunk_sized():
    import tracemalloc

    keys = learning_keys(15, 3)
    for n in (100_000, 300_000):
        s = sample_gmm(random_model(15, 6, seed=34), n, seed=34)
        tracemalloc.start()
        try:
            sample_moments(s, keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (1e5, 15) sample array alone is 11.4 MiB
        assert peak < 3 * 2**20, n


@pytest.mark.parametrize("kwargs, name", [
    ({"r": 0}, "r"), ({"r": -1}, "r"),
    ({"r": 2, "max_iters": 0}, "max_iters"),
    ({"r": 2, "max_iters": -3}, "max_iters"),
])
def test_em_rejects_empty_rank_and_iterations(kwargs, name):
    s = sample_gmm(random_model(4, 2, seed=30), 200, seed=30)
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1"):
        em_baseline(s, **kwargs)


# Power-coordinate sample moments: keys with runs of every length, in any
# slot order, against per-key products.


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows", ["below", "equal", "ragged"])
def test_power_coordinate_moments_equal_per_key_products(order, rows):
    chunk = gmm._MOMENT_CHUNK
    n = {"below": chunk - 1, "equal": chunk, "ragged": 2 * chunk + 37}[rows]
    s = sample_gmm(random_model(5, 2, seed=31), n, seed=31)
    rng = np.random.default_rng(31 + order)
    # every multiset of slots: runs of length 1..order, several runs per key
    keys = [tuple(rng.permutation(k).tolist())
            for k in itertools.combinations_with_replacement(range(5), order)]
    # half of them listed again in another slot order: one entry each
    keys += [k[::-1] for k in keys if rng.random() < 0.5]
    got = sample_moments(s, keys)
    assert sorted(got.values) == sorted({tuple(sorted(k)) for k in keys})
    for key in keys:
        want = _product_mean(s.data, key)
        assert abs(got[key] - want) <= 1e-12 * abs(want), key


@pytest.mark.parametrize("bad", [(0, 1, -1), (0, 4, 1), (2, 2, 7)])
def test_moment_keys_outside_the_coordinates_fail_loudly(bad):
    model = random_model(4, 2, seed=32)
    s = sample_gmm(model, 100, seed=32)
    keys = [(0, 1, 2), bad]
    for moments in (lambda: sample_moments(s, keys), lambda: exact_moments(model, keys)):
        with pytest.raises(InvalidMomentKey, match=rf"moment key \({bad[0]}, {bad[1]}, {bad[2]}\) "
                                                   r"has a slot outside range\(4\)"):
            moments()


def test_moment_keys_of_mixed_orders_or_fractional_slots_fail_loudly():
    model = random_model(4, 2, seed=32)
    s = sample_gmm(model, 100, seed=32)
    for keys, message in (([(0, 1, 2), (3,)], r"moment key \(3,\) is not of order 3"),
                          ([(0.5, 1.7, 2)], "moment keys must have integer slots, not float64")):
        for moments in (lambda: sample_moments(s, keys), lambda: exact_moments(model, keys)):
            with pytest.raises(InvalidMomentKey, match=message):
                moments()


def test_learn_rejects_fewer_samples_than_moments():
    s = sample_gmm(random_model(6, 2, seed=33), 20, seed=33)
    n_keys = len(learning_keys(6, 3))
    assert n_keys == 50
    with pytest.raises(TooFewSamples, match="20 samples for 50 order-3 moments"):
        learn(s, 2, 3, seed=33)
    assert issubclass(TooFewSamples, InvalidSamples)
    # the rule's boundary: one sample per moment passes it
    s = sample_gmm(random_model(6, 2, seed=33), n_keys, seed=33)
    try:
        learn(s, 2, 3, seed=33)
    except TooFewSamples:
        pytest.fail("N equal to the number of learning moments is enough")
    except MomentmixError:
        pass


def test_learn_records_why_each_refinement_stopped():
    # model 93's tensor refinement runs into its 200-iteration cap
    s = sample_gmm(random_model(15, 6, seed=93), 100_000, seed=93)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        learned = learn(s, 6, 3, seed=93)
    reasons = {"gradient", "step", "floor", "no-descent", "iterations"}
    assert learned.meta["lm_stop"]["tensor"] == "iterations"
    assert learned.meta["decomp"]["lm_stop"] == "iterations"
    assert learned.meta["decomp"]["lm_iterations"] == 200
    assert learned.meta["lm_stop"]["simplex"] in reasons
    assert type(learned.weights) is np.ndarray


# The floored EM pass: no underflow, and the same iterates as without it.


def _readme_samples():
    return sample_gmm(random_model(15, 6, seed=1), 100_000, seed=1)


def test_em_pass_does_not_underflow():
    s = _readme_samples()
    with np.errstate(under="raise"):
        em = em_baseline(s, 6, max_iters=20, seed=1)
    assert len(em.meta["loglik_history"]) == 20


def _unfloored_em(Y, r, max_iters, seed, reg_value=1e-3):
    """The fused EM loop without the log-ratio floor, as it was before it."""
    N, d = Y.shape
    rng = rng_from(seed, "em")
    R_buf = np.empty((r, gmm._EM_CHUNK))
    nk = np.zeros(r)
    sums = np.zeros((r, 2 * d))
    for z in gmm._power_chunks(Y, 2, gmm._EM_CHUNK):
        R = R_buf[:, : z.shape[1]]
        R[...] = rng.random((z.shape[1], r)).T
        R /= R.sum(axis=0)
        nk += R.sum(axis=1)
        sums += R @ z.T
    history, best = [], None
    for _ in range(max_iters):
        weights = nk / N
        means = sums[:, :d] / nk[:, None]
        variances = sums[:, d:] / nk[:, None] - means**2 + reg_value
        W, c = gmm._density_coefficients(weights, means, variances)
        c = c[:, None]
        nk = np.zeros(r)
        sums = np.zeros((r, 2 * d))
        ll = 0.0
        with np.errstate(under="ignore"):
            for z in gmm._power_chunks(Y, 2, gmm._EM_CHUNK):
                R = R_buf[:, : z.shape[1]]
                np.matmul(W, z, out=R)
                R += c
                top = R.max(axis=0)
                R -= top
                np.exp(R, out=R)
                total = R.sum(axis=0)
                ll += float((top + np.log(total)).sum())
                R /= total
                nk += R.sum(axis=1)
                sums += R @ z.T
        history.append(ll)
        if best is None or ll >= best[0]:
            best = (ll, weights, means, variances)
    return best[1] / best[1].sum(), best[2], best[3], history


@pytest.mark.parametrize("seed", [1, 2])
def test_floored_em_is_bit_identical_to_the_unfloored_loop(seed):
    s = _readme_samples()
    em = em_baseline(s, 6, max_iters=20, seed=seed)
    weights, means, variances, history = _unfloored_em(s.data, 6, 20, seed)
    assert np.array_equal(em.weights, weights)
    assert np.array_equal(em.means, means)
    assert np.array_equal(em.variances, variances)
    assert em.meta["loglik_history"] == history
