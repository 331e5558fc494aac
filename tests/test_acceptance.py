"""Acceptance gate: end-to-end accuracy, rank bounds, noise stability,
moment-based mixture recovery, and the standalone property suites.

Each test prints a single PASS line with its headline numbers so the
suite doubles as a report.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from momentmix.decomposition import (
    approximate,
    brute_force_max_rank,
    choose_params,
    component_error,
    decompose,
    max_rank_quiet,
)
from momentmix.experiments import random_components
from momentmix.generating import companion_matrices, solve_generating_matrix
from momentmix.gmm import (
    accuracy,
    choose_t,
    classify,
    em_baseline,
    exact_moments,
    learn,
    learn_from_moments,
    random_model,
    realify,
    sample_gmm,
    univariate_gaussian_moment,
)
from momentmix.numerics import nlls_refine, nnls
from momentmix.tensor_store import (
    block_matrix,
    from_components,
    omega_keys,
    perturb,
)
from oracles import learning_keys_by_set

GMM_BASE_SEED = 1026


def test_exact_decomposition_grid():
    cases = [(15, 3, 6), (15, 4, 8), (15, 5, 15), (25, 3, 11)]
    for d, m, r in cases:
        errs, vecs = [], []
        start = time.time()
        for i in range(20):
            seed = 7000 + i
            comps = random_components(d, r, seed)
            T = from_components(comps, m, omega_keys(d, m))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dec = decompose(T, choose_params(d - 1, m, r, seed=seed))
            errs.append(dec.diagnostics["decomp_err"])
            vecs.append(component_error(comps, dec.components, m))
        per_trial = (time.time() - start) / 20
        assert np.median(errs) <= 1e-9
        assert np.max(errs) <= 1e-6
        assert np.max(vecs) <= 1e-6
        assert per_trial <= 10.0
        print(
            f"PASS exact (d={d},m={m},r={r}): median={np.median(errs):.2e} "
            f"max={np.max(errs):.2e} vec={np.max(vecs):.2e} {per_trial:.2f}s/trial"
        )


def test_rank_bounds():
    for m in range(3, 8):
        lo = max(2 * m - 1, -(-m * m // 4) - 1)
        for n in range(lo, 61):
            assert max_rank_quiet(n, m)[0] == brute_force_max_rank(n, m)
    spots = {
        15: (6, 8, 15, 20, 20),
        25: (11, 16, 55, 84, 165),
        30: (14, 21, 91, 136, 364),
        40: (19, 29, 171, 286, 969),
    }
    for d, expected in spots.items():
        got = tuple(max_rank_quiet(d - 1, m)[0] for m in range(3, 8))
        assert got == expected
    print("PASS rank bounds: brute-force grid and all spot values match")


def test_noisy_approximation_grid():
    for m, r in ((3, 6), (4, 8)):
        for eps in (0.1, 0.01, 0.001):
            abss, rels = [], []
            start = time.time()
            for i in range(20):
                seed = 8000 + i
                comps = random_components(15, r, seed)
                T = from_components(comps, m, omega_keys(15, m))
                Th = perturb(T, eps, seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    dec = approximate(
                        Th, choose_params(14, m, r, seed=seed), truth=T
                    )
                abss.append(dec.diagnostics["abs_err"])
                rels.append(dec.diagnostics["rel_err"])
            per_trial = (time.time() - start) / 20
            assert np.mean(abss) <= eps
            assert np.max(rels) <= 1.0
            assert per_trial <= 30.0
            print(
                f"PASS noisy (m={m},r={r},eps={eps}): mean abs={np.mean(abss):.3g} "
                f"max rel={np.max(rels):.3f} {per_trial:.2f}s/trial"
            )


def _joint_error(model, learned):
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


def test_exact_moment_gmm_recovery():
    for d, r, m in ((8, 3, 3), (12, 5, 3), (10, 4, 4)):
        worst = 0.0
        for i in range(20):
            model = random_model(d, r, seed=600 + i)
            t = choose_t(d, r)
            keys_m = learning_keys_by_set(d, m)
            Mm = exact_moments(model, keys_m)
            Mt = exact_moments(model, omega_keys(d, t))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                learned = learn_from_moments(Mm, Mt, d, r, seed=3)
            worst = max(worst, _joint_error(model, learned))
        assert worst <= 1e-6
        print(f"PASS oracle gmm (d={d},r={r},m={m}): worst joint err {worst:.2e}")


def test_exact_moment_gmm_recovery_m5():
    # the paper's headline: order 5 learns twice the m=3 bound's rank
    d, r, m = 15, 12, 5
    t = choose_t(d, r)
    keys_m = learning_keys_by_set(d, m)
    worst = 0.0
    for seed in range(1, 9):
        model = random_model(d, r, seed=seed)
        Mm = exact_moments(model, keys_m)
        Mt = exact_moments(model, omega_keys(d, t))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            learned = learn_from_moments(Mm, Mt, d, r, seed=3)
        worst = max(worst, _joint_error(model, learned))
    assert worst <= 1e-6
    print(f"PASS oracle gmm (d={d},r={r},m={m}): worst joint err {worst:.2e}")


def test_sampled_gmm_vs_em():
    start = time.time()
    accs, ems = [], []
    for i in range(10):
        seed = GMM_BASE_SEED + i
        model = random_model(15, 6, seed)
        samples = sample_gmm(model, 100_000, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            learned = learn(samples, 6, 3, seed=seed)
        accs.append(accuracy(classify(learned, samples), samples.labels))
        em = em_baseline(samples, 6, seed=seed)
        ems.append(accuracy(classify(em, samples), samples.labels))
    elapsed = time.time() - start
    wins = sum(a >= b for a, b in zip(accs, ems))
    assert np.median(accs) >= 0.93
    assert wins >= 6
    assert elapsed <= 300.0
    print(
        f"PASS sampled gmm: median acc={np.median(accs):.4f} "
        f"wins {wins}/10 vs EM, {elapsed:.0f}s total"
    )


def test_property_suites():
    rng = np.random.default_rng(77)

    # commuting companion family on exact input
    comps = rng.standard_normal((3, 8))
    T = from_components(comps, 3, omega_keys(8, 3))
    Ns = companion_matrices(solve_generating_matrix(T, r=3, p=1, k=3))
    worst_comm = max(
        np.linalg.norm(Ns[a] @ Ns[b] - Ns[b] @ Ns[a])
        for a in range(len(Ns))
        for b in range(a + 1, len(Ns))
    )
    assert worst_comm <= 1e-8

    # block factorization of a component sum
    rows, cols = [(1,), (2,), (3,)], [(4,), (5,), (6,), (7,)]
    M = block_matrix(T, rows, cols, pad_with_zero_label=True)
    expected = sum(
        comps[i, 0] * np.outer(comps[i, [1, 2, 3]], comps[i, [4, 5, 6, 7]])
        for i in range(3)
    )
    rel = np.linalg.norm(M - expected) / np.linalg.norm(expected)
    assert rel <= 1e-12

    # univariate moment recurrence vs closed forms up to order six
    mu, s2 = 1.3, 0.7
    closed = [
        1.0,
        mu,
        mu**2 + s2,
        mu**3 + 3 * mu * s2,
        mu**4 + 6 * mu**2 * s2 + 3 * s2**2,
        mu**5 + 10 * mu**3 * s2 + 15 * mu * s2**2,
        mu**6 + 15 * mu**4 * s2 + 45 * mu**2 * s2**2 + 15 * s2**3,
    ]
    for t, want in enumerate(closed):
        got = univariate_gaussian_moment(mu, s2, t)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    # nnls KKT conditions
    for _ in range(25):
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        x = nnls(A, b)
        grad = A.T @ (A @ x - b)
        assert np.all(x >= 0)
        assert np.all(grad >= -1e-8)
        assert np.max(np.abs(x * grad)) <= 1e-8

    # refinement monotonicity on random starts
    for seed in range(100):
        r2 = np.random.default_rng(1000 + seed)
        c = r2.standard_normal(4)
        x0 = r2.standard_normal(4)
        before = np.linalg.norm(x0**2 - c) ** 2
        x = nlls_refine(lambda x: x**2 - c, x0, max_iters=20)
        assert np.linalg.norm(x**2 - c) ** 2 <= before + 1e-12

    # phase-correction minimality on random complex vectors
    for seed in range(100):
        r3 = np.random.default_rng(2000 + seed)
        m = int(r3.integers(3, 6))
        q = r3.standard_normal(5) + 1j * r3.standard_normal(5)
        out = realify(q, m)[0]
        best = min(
            np.linalg.norm((np.exp(2j * np.pi * t / m) * q).imag)
            for t in range(m)
        )
        achieved = min(
            np.linalg.norm((np.exp(2j * np.pi * t / m) * q).imag)
            for t in range(m)
            if np.allclose((np.exp(2j * np.pi * t / m) * q).real, out)
        )
        assert achieved == pytest.approx(best)

    print("PASS property suites: commutation, factorization, moments, "
          "nnls KKT, refinement monotonicity, phase minimality")
