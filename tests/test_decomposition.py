"""Rank bounds, parameter selection, and the decomposition pipelines."""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentmix import decomposition
from momentmix.combinatorics import binomial
from momentmix.decomposition import (
    GEN_COND_LIMIT,
    DecompositionParams,
    _k_range,
    _residual_builder,
    _scale_gram,
    _tail_blocks,
    PreconditionWarning,
    approximate,
    brute_force_max_rank,
    choose_params,
    component_error,
    decomp_err,
    decompose,
    max_rank,
    max_rank_quiet,
    omega_gram,
    rank_threshold,
    solve_heads,
    solve_scales,
    solve_tail_products,
    to_json,
)
from momentmix.errors import (
    HeadsDegenerate,
    IllConditioned,
    RankTooLarge,
    ScalesDegenerate,
    TailsDegenerate,
)
from momentmix.generating import (
    companion_matrices,
    extract_tails,
    solve_generating_matrix,
)
from momentmix.numerics import lstsq
from momentmix.tensor_store import (
    IncompleteSymmetricTensor,
    PrefixTree,
    component_products,
    from_components,
    omega_keys,
    omega_norm,
    perturb,
    product_jacobian,
)
from oracles import (
    block_matrix,
    decomposition_from_json,
    generating_matrix_by_label,
    heads_by_label,
    tails_by_full_eig,
)


def planted(d, m, r, seed):
    comps = np.random.default_rng(seed).standard_normal((r, d))
    T = from_components(comps, m, omega_keys(d, m))
    return comps, T


def test_max_rank_table_values():
    assert max_rank_quiet(14, 3)[0] == 6
    assert max_rank_quiet(14, 5)[0] == 15
    assert max_rank_quiet(39, 7)[0] == 969
    assert max_rank_quiet(24, 7)[0] == 165


def test_max_rank_warns_below_threshold():
    with pytest.warns(PreconditionWarning):
        max_rank(4, 3)


def test_brute_force_values():
    assert brute_force_max_rank(14, 4) == 8
    assert brute_force_max_rank(5, 3) == 2


def test_max_rank_matches_brute_force_sample():
    for m in range(3, 8):
        lo = max(2 * m - 1, -(-m * m // 4) - 1)
        for n in range(lo, lo + 6):
            assert max_rank_quiet(n, m)[0] == brute_force_max_rank(n, m)


def test_max_rank_below_threshold_is_accepted_by_choose_params():
    for m in range(3, 9):
        for n in range(1, rank_threshold(m) + 5):
            r = max_rank_quiet(n, m)[0]
            assert r <= brute_force_max_rank(n, m)
            if r >= 1:
                assert choose_params(n, m, r).r == r


def test_rank_too_large_names_an_accepted_rank():
    for m in range(3, 9):
        for n in range(m - 1, 40):
            r_max = brute_force_max_rank(n, m)
            with pytest.raises(RankTooLarge) as exc:
                choose_params(n, m, r_max + 1)
            assert exc.value.r_max == r_max
            if r_max >= 1:
                assert choose_params(n, m, r_max).r == r_max


def test_max_rank_is_zero_on_an_empty_k_range():
    # n = m leaves no k with p* + 1 <= k <= n - m + p*; n = m - 1 used to
    # raise on a negative binomial argument
    for m in range(3, 9):
        for n in (m - 1, m):
            assert max_rank_quiet(n, m)[0] == 0
            assert brute_force_max_rank(n, m) == 0


def test_choose_params():
    p = choose_params(14, 3, 6)
    assert (p.p, p.k) == (1, 6)
    p = choose_params(14, 5, 1)
    assert (p.p, p.k) == (2, 3)
    with pytest.raises(RankTooLarge):
        choose_params(14, 3, 7)


def test_decompose_rank_one():
    comps = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    T = from_components(comps, 3, omega_keys(6, 3))
    params = DecompositionParams(r=1, p=1, k=2, seed=0)
    dec = decompose(T, params)
    assert component_error(comps, dec.components, 3) <= 1e-8
    assert dec.diagnostics["decomp_err"] <= 1e-8


def test_decompose_two_components():
    comps, T = planted(6, 3, 2, seed=42)
    dec = decompose(T, choose_params(5, 3, 2, seed=42))
    assert component_error(comps, dec.components, 3) <= 1e-8


def test_decompose_larger():
    comps, T = planted(15, 3, 6, seed=3)
    dec = decompose(T, choose_params(14, 3, 6, seed=3))
    assert dec.diagnostics["decomp_err"] <= 1e-8


def test_plant_and_recover_grid():
    for (d, m, r) in ((6, 3, 2), (10, 4, 4), (12, 5, 10)):
        worst = 0.0
        for seed in range(50):
            comps, T = planted(d, m, r, seed=1000 + seed)
            dec = decompose(T, choose_params(d - 1, m, r, seed=1000 + seed))
            worst = max(worst, component_error(comps, dec.components, m))
        assert worst <= 1e-6


def test_decomp_err_self_consistency():
    comps, T = planted(8, 3, 2, seed=5)
    dec = decompose(T, choose_params(7, 3, 2, seed=5))
    recomputed = decomp_err(T, dec.components)
    assert abs(recomputed - dec.diagnostics["decomp_err"]) <= 1e-12


def test_decompose_reports_generating_rank():
    comps, T = planted(10, 4, 4, seed=14)
    dec = decompose(T, choose_params(9, 4, 4, seed=14))
    assert dec.diagnostics["gen_rank_min"] == 4


def test_solve_tail_products_zero_tensor():
    d, m = 7, 3
    keys = omega_keys(d, m)
    T = IncompleteSymmetricTensor(d, m, {k: 0.0 for k in map(tuple, keys.tolist())})
    params = DecompositionParams(r=2, p=1, k=2, seed=0)
    tails = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]], dtype=complex)
    gammas = solve_tail_products(T, tails, params)
    assert np.allclose(gammas, 0.0)


def test_solve_scales_linearity():
    comps, T = planted(8, 3, 2, seed=6)
    params = choose_params(7, 3, 2, seed=6)
    full = (comps / comps[:, :1]).astype(complex)
    lam = solve_scales(T, full)[0]
    scaled = IncompleteSymmetricTensor(
        8, 3, {k: 7.0 * v for k, v in T.entries.items()}
    )
    lam7 = solve_scales(scaled, full)[0]
    assert np.allclose(lam7, 7.0 * lam)
    # true scales are lambda_i = q_{i,0}^m
    assert np.allclose(np.sort(lam.real), np.sort(comps[:, 0] ** 3), atol=1e-9)


def test_solve_scales_rank_one_weight():
    comps = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    # weight 2 on the one component: the vector scaled by 2^(1/3)
    T = from_components(comps * 2.0 ** (1 / 3), 3, omega_keys(6, 3))
    lam = solve_scales(T, comps.astype(complex))[0]
    assert lam[0] == pytest.approx(2.0, abs=1e-10)


def test_solve_tail_products_equal_tails_degenerate():
    comps, T = planted(10, 3, 3, seed=24)
    params = choose_params(9, 3, 3, seed=24)
    tails = (comps[:, params.k + 1:] / comps[:, :1]).astype(complex)
    solve_tail_products(T, tails, params)  # distinct tails solve
    tails[1] = tails[0]
    # the rank report alone signals the degeneracy: no IllConditioned first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TailsDegenerate):
            solve_tail_products(T, tails, params)
    assert caught == []


def test_approximate_noiseless_fixed_point():
    comps, T = planted(8, 3, 2, seed=9)
    params = choose_params(7, 3, 2, seed=9)
    dec0 = decompose(T, params)
    dec1 = approximate(T, params)
    assert np.allclose(dec0.components, dec1.components, atol=1e-9)


def test_approximate_noisy_metrics():
    comps, T = planted(15, 3, 6, seed=10)
    Th = perturb(T, 0.01, 10)
    params = choose_params(14, 3, 6, seed=10)
    dec = approximate(Th, params, truth=T)
    assert dec.diagnostics["abs_err"] <= 0.01
    assert dec.diagnostics["rel_err"] <= 1.0
    assert (
        dec.diagnostics["decomp_err"]
        <= dec.diagnostics["pre_refine_decomp_err"] + 1e-12
    )


def test_approximate_decomp_err_matches_decomp_err():
    comps, T = planted(10, 3, 3, seed=11)
    Th = perturb(T, 0.01, 11)
    dec = approximate(Th, choose_params(9, 3, 3, seed=11))
    assert dec.diagnostics["decomp_err"] == decomp_err(Th, dec.components)
    # the array-form diagnostics equal the tensor-form ones bit for bit
    dec = approximate(Th, choose_params(9, 3, 3, seed=11), truth=T)
    assert dec.diagnostics["decomp_err"] == decomp_err(Th, dec.components)
    # the reconstruction is the tree's GEMM form, which agrees with the
    # per-component sum of ``from_components`` to rounding
    rec = Th.with_values(Th.tree.reconstruction(dec.components))
    summed = from_components(dec.components, 3, Th.key_array)
    assert np.abs(rec.values - summed.values).max() <= 1e-12 * np.abs(Th.values).max()
    diff = rec.with_values(rec.values - T.gather(rec.key_array))
    assert dec.diagnostics["abs_err"] == omega_norm(diff, Th.key_array)
    fit = np.linalg.norm(rec.values - Th.values)
    noise = np.linalg.norm(Th.values - T.values)
    assert dec.diagnostics["rel_err"] == float(fit / noise)


def test_decomposition_json_round_trip():
    comps, T = planted(6, 3, 2, seed=12)
    dec = decompose(T, choose_params(5, 3, 2, seed=12))
    back = decomposition_from_json(to_json(dec, 6, 3))
    assert np.allclose(back.components, dec.components)


def dense_complex_jacobian(T, Q):
    """Reference Jc[key, (i, a)]: the derivative of sum_i prod_t Q[i, key_t]
    in Q[i, a], one key, component and slot at a time."""
    r, d = Q.shape
    Jc = np.zeros((len(T.key_array), r, d), dtype=complex)
    for row, key in enumerate(T.key_array.tolist()):
        for i in range(r):
            for t, a in enumerate(key):
                Jc[row, i, a] += np.prod(Q[i, key[:t] + key[t + 1:]])
    return Jc.reshape(len(Jc), r * d)


def spread_components(d, r, seed, across):
    """Complex components whose norms (across=True) or coordinates
    (across=False) span 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    if across:
        return Q * np.logspace(-3, 3, r)[:, None]
    return Q * np.logspace(-3, 3, d)[rng.permutation(d)]


def dropped_tensor():
    """d=10, m=4, r=3 planted tensor without three distinct-index keys
    that ``approximate`` does not need."""
    _, T = planted(10, 4, 3, seed=3)
    entries = dict(T.entries)
    for key in [(0, 1, 2, 3), (5, 6, 7, 8), (6, 7, 8, 9)]:
        del entries[key]
    return IncompleteSymmetricTensor(10, 4, entries)


def repeated_tensor():
    """d=7, m=3 planted tensor plus two stored repeated-index keys."""
    _, T = planted(7, 3, 2, seed=4)
    entries = dict(T.entries)
    entries[(0, 0, 1)] = 0.3
    entries[(2, 2, 2)] = -0.1
    return IncompleteSymmetricTensor(7, 3, entries)


@pytest.mark.parametrize(
    "case",
    ["m3", "m4", "m5", "m4-coordinates", "m5-coordinates", "dropped", "repeated"],
)
def test_normal_equations_match_dense_jacobian(case):
    if case == "dropped":
        T, r = dropped_tensor(), 3
        approximate(T, choose_params(9, 4, 3, seed=3))  # accepted
    elif case == "repeated":
        T, r = repeated_tensor(), 2
    else:
        m = int(case[1])
        _, T = planted(8, m, 3, seed=m)
        r = 3
    Q = spread_components(T.d, r, seed=len(case), across="-" not in case)
    residual, normal_equations = _residual_builder(T, r)
    q = Q.ravel()
    f = residual(q)
    gram, g = normal_equations(q, f)
    G = gram()
    Jc = dense_complex_jacobian(T, Q)
    ref, ref_g = Jc.conj().T @ Jc, Jc.conj().T @ f
    d = T.d
    for bi in range(r):
        rows = slice(bi * d, (bi + 1) * d)
        assert np.abs(g[rows] - ref_g[rows]).max() <= 1e-12 * np.abs(ref_g[rows]).max()
        for bj in range(r):
            cols = slice(bj * d, (bj + 1) * d)
            block = ref[rows, cols]
            assert np.abs(G[rows, cols] - block).max() <= 1e-12 * np.abs(block).max()


def test_approximate_counts_lm_iterations_exact():
    comps, T = planted(8, 3, 2, seed=9)
    dec = approximate(T, choose_params(7, 3, 2, seed=9))
    assert dec.diagnostics["lm_iterations"] == 1
    # the gradient test ends the refinement before any damping is tried
    assert dec.diagnostics["lm_residual_calls"] == 1


def test_approximate_counts_lm_iterations_noisy():
    comps, T = planted(15, 3, 6, seed=10)
    Th = perturb(T, 0.01, 10)
    dec = approximate(Th, choose_params(14, 3, 6, seed=10))
    assert dec.diagnostics["lm_iterations"] >= 1
    assert dec.diagnostics["decomp_err"] <= dec.diagnostics["pre_refine_decomp_err"]
    # the start, then at least one damping per iteration but a last one
    # that meets the gradient test
    assert dec.diagnostics["lm_residual_calls"] >= dec.diagnostics["lm_iterations"]


def test_approximate_names_why_the_refinement_stopped():
    comps, T = planted(8, 3, 2, seed=9)
    assert approximate(T, choose_params(7, 3, 2, seed=9)).diagnostics["lm_stop"] == "gradient"
    # a draw of the noisy order-4 setting ends well before the cap
    comps, T = planted(25, 4, 16, seed=12)
    dec = approximate(perturb(T, 0.01, 12), choose_params(24, 4, 16, seed=12))
    assert dec.diagnostics["lm_stop"] in {"gradient", "step", "floor", "no-descent"}
    assert dec.diagnostics["lm_iterations"] < 200
    assert type(dec.components) is np.ndarray


def test_approximate_counts_lm_factorizations():
    # an exact tensor meets the gradient test before any damped system
    comps, T = planted(8, 3, 2, seed=9)
    assert approximate(T, choose_params(7, 3, 2, seed=9)).diagnostics["lm_factorizations"] == 0
    # the draw above: the factor of its first accepted step is kept for
    # the steps after it
    comps, T = planted(25, 4, 16, seed=12)
    dec = approximate(perturb(T, 0.01, 12), choose_params(24, 4, 16, seed=12))
    assert 1 <= dec.diagnostics["lm_factorizations"] < dec.diagnostics["lm_iterations"]


def test_approximate_forms_a_gram_only_to_factor_it(monkeypatch):
    # reused steps take J^H f alone: the closed-form Gram is formed once
    # per damping loop, not once per iteration
    grams = []

    def counted(Q, m):
        grams.append(m)
        return omega_gram(Q, m)

    monkeypatch.setattr(decomposition, "omega_gram", counted)
    comps, T = planted(15, 3, 6, seed=10)
    dec = approximate(perturb(T, 0.01, 10), choose_params(14, 3, 6, seed=10))
    assert len(grams) < dec.diagnostics["lm_iterations"]
    assert len(grams) <= dec.diagnostics["lm_factorizations"]


def scale_case(case):
    """A tensor and the normalised components full_i = q_i / q_i0 whose
    scales it is fitted with."""
    if case == "dropped":
        comps, T = planted(10, 4, 3, seed=3)[0], dropped_tensor()
        approximate(T, choose_params(9, 4, 3, seed=3))  # accepted
    elif case == "repeated":
        comps, T = planted(7, 3, 2, seed=4)[0], repeated_tensor()
    elif case == "perturbed":
        comps, T = planted(12, 4, 6, seed=21)
        T = perturb(T, 0.01, 21)
    elif case == "spread":
        comps = spread_components(8, 4, seed=22, across=True)
        T = from_components(comps, 3, omega_keys(8, 3))
    else:
        d, m, r = {"m3": (15, 3, 6), "m4": (15, 4, 8), "m5": (12, 5, 10)}[case]
        comps, T = planted(d, m, r, seed=20 + m)
    full = (comps / comps[:, :1]).astype(complex)
    full[:, 0] = 1.0  # complex x / x need not round to 1
    return T, full


@pytest.mark.parametrize(
    "case", ["m3", "m4", "m5", "perturbed", "dropped", "repeated", "spread"]
)
def test_scale_fit_matches_equilibrated_lstsq(case):
    T, full = scale_case(case)
    design = component_products(full, T.key_array).T
    norms = np.linalg.norm(design, axis=0)
    ref = lstsq(design / norms, T.values)
    ref_lambdas = ref.solution / norms
    lambdas, rec, cond = solve_scales(T, full)
    b_norm = np.linalg.norm(T.values)
    assert np.linalg.norm(lambdas - ref_lambdas) <= 1e-10 * np.linalg.norm(ref_lambdas)
    assert abs(np.linalg.norm(rec - T.values) - ref.residual_norm) <= 1e-12 * b_norm
    assert np.abs(rec - design @ lambdas).max() <= 1e-12 * np.abs(T.values).max()
    assert 1.0 <= cond < 10.0
    # (1, heads, tails) joined as ``decompose`` joins them
    r = full.shape[0]
    joined = np.concatenate([np.ones((r, 1), dtype=complex), full[:, 1:2], full[:, 2:]], axis=1)
    assert np.array_equal(solve_scales(T, joined)[0], lambdas)


def test_scale_fit_identical_components_degenerate():
    comps, T = planted(8, 3, 2, seed=23)
    full = comps / comps[:, :1]
    with pytest.raises(ScalesDegenerate):
        solve_scales(T, full[[0, 0, 1]])


def test_decompose_decomp_err_matches_decomp_err_noisy():
    comps, T = planted(15, 5, 15, seed=24)
    Th = perturb(T, 1e-3, 24)
    dec = decompose(Th, choose_params(14, 5, 15, seed=24))
    err = dec.diagnostics["decomp_err"]
    assert abs(err - decomp_err(Th, dec.components)) <= 1e-12 * err


def test_decompose_reports_scale_cond():
    comps, T = planted(15, 5, 15, seed=25)
    params = choose_params(14, 5, 15, seed=25)
    assert 1.0 <= decompose(T, params).diagnostics["scale_cond"] < 10.0
    assert "scale_cond" in approximate(T, params).diagnostics
    assert 1.0 <= decompose(T, params).diagnostics["heads_cond"] < 10.0
    assert "heads_cond" in approximate(T, params).diagnostics


@pytest.mark.parametrize("seed", [1, 2])
def test_decompose_reports_gen_cond(seed):
    # rank-55 tensors at d=25: one component of the [215, 4, 5] tensor has
    # |q[0]| = 2e-5, which makes every generating-matrix design (whose
    # columns are padded with label 0) ill-conditioned; the first
    # benchmark pool tensor has no such component
    params = choose_params(24, 5, 55, seed=seed)
    _, T = planted(25, 5, 55, seed=[215, 4, 5])
    with pytest.warns(IllConditioned, match="gen_cond 1.71e[+]07 above 1e[+]06"):
        assert decompose(T, params).diagnostics["gen_cond"] > GEN_COND_LIMIT
    _, T = planted(25, 5, 55, seed=[5, 55, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditioned)
        assert 1.0 <= decompose(T, params).diagnostics["gen_cond"] < GEN_COND_LIMIT
    assert "gen_cond" in approximate(T, params).diagnostics


def closed_form_rank(n, m):
    """``max_rank``'s bound as first written: max(C(k*, p*), C(n-2-k*,
    m-1-p*)) with k* the largest k of the range satisfying C(k, p*) <=
    C(n-k-1, m-p*-1), or p* when none does; 0 on an empty range."""
    p = (m - 1) // 2
    ks = _k_range(n, m, p)
    if not ks:
        return 0
    k = max((k for k in ks if binomial(k, p) <= binomial(n - k - 1, m - p - 1)),
            default=p)
    return max(binomial(k, p), binomial(n - 2 - k, m - 1 - p))


def test_max_rank_k_star_lies_in_the_k_range():
    for m in range(3, 9):
        for n in range(1, 61):
            r_max, p_star, k_star = max_rank_quiet(n, m)
            assert r_max == closed_form_rank(n, m), (n, m)
            if r_max > 0:
                assert k_star in _k_range(n, m, p_star), (n, m)
        # at n = m + 1 no k satisfies the inequality; the one k of the range
        # is reported, with bound 1
        assert max_rank_quiet(m + 1, m) == (1, (m - 1) // 2, (m - 1) // 2 + 1)


def head_case(case, m):
    """A tensor, its (p, k) and the normalised tails its heads are solved
    with: exact planted, perturbed by 1e-3, or with coordinates spanning
    1e-3 to 1e3."""
    d, r = 12, {3: 4, 4: 6, 5: 10}[m]
    seed = 30 + m
    if case == "spread":
        comps = spread_components(d, r, seed, across=False)
        T = from_components(comps, m, omega_keys(d, m))
    else:
        comps, T = planted(d, m, r, seed)
        if case == "perturbed":
            T = perturb(T, 1e-3, seed)
    params = choose_params(d - 1, m, r, seed=seed)
    tails = (comps[:, params.k + 1:] / comps[:, :1]).astype(complex)
    return T, params, tails


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("case", ["exact", "perturbed", "spread"])
def test_solve_heads_matches_equilibrated_lstsq(case, m):
    T, params, tails = head_case(case, m)
    k, r = params.k, params.r
    gammas = solve_tail_products(T, tails, params)
    heads, cond = solve_heads(T, tails, gammas, params)
    J1, J2, W = _tail_blocks(T, tails, params)
    ref_cond = 0.0
    for j in range(1, k + 1):
        rows = [i for i, beta in enumerate(J1.tolist()) if j not in beta]
        B = block_matrix(T, np.column_stack([np.full(len(rows), j), J1[rows]]), J2)
        # the row-wise Khatri-Rao design the Gram solve never forms
        design = (gammas[rows][:, None, :] * W[None, :, :]).reshape(-1, r)
        norms = np.linalg.norm(design, axis=0)
        ref = lstsq(design / norms, B.ravel()).solution / norms
        err = np.linalg.norm(heads[:, j - 1] - ref)
        assert err <= 1e-10 * np.linalg.norm(ref), j
        ref_cond = max(ref_cond, np.linalg.cond(design / norms))
    assert abs(cond - ref_cond) <= 1e-8 * ref_cond


def test_solve_heads_duplicate_columns_degenerate():
    T, params, tails = head_case("exact", 4)
    gammas = solve_tail_products(T, tails, params)
    solve_heads(T, tails, gammas, params)  # distinct columns solve
    tails[1] = tails[0]
    gammas[:, 1] = gammas[:, 0]
    # the rank test raises before any IllConditioned warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(HeadsDegenerate, match="head design rank-deficient"):
            solve_heads(T, tails, gammas, params)
    assert caught == []


def test_scale_fit_peak_memory_is_two_designs():
    # the product design and one gathered factor; no third design-sized
    # array while the last slot is multiplied in
    d, m, r = 20, 5, 30
    comps, T = planted(d, m, r, seed=27)
    full = (comps / comps[:, :1]).astype(complex)
    design_bytes = len(T.values) * r * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        solve_scales(T, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.05 * design_bytes


def test_scale_fit_peak_memory_below_one_design():
    # the Gram is closed-form and A x, A^H b go through the leaf products,
    # so no (n_keys, r) design is formed
    d, m, r = 20, 5, 30
    comps, T = planted(d, m, r, seed=27)
    full = (comps / comps[:, :1]).astype(complex)
    design_bytes = len(T.values) * r * np.dtype(complex).itemsize
    T.tree  # built once per tensor, outside the scale stage
    tracemalloc.start()
    try:
        solve_scales(T, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * design_bytes


def gram_case(name):
    """A d=14, m=4 tensor of noisy rank-6 values and complex components, on
    the distinct-index keys, every sorted key, a random half of those, or
    a sparse 5% of the distinct-index keys with one component scaled x3."""
    rng = np.random.default_rng(70)
    d, m, r = 14, 4, 6
    full = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    distinct = omega_keys(d, m)
    every = np.array(
        list(itertools.combinations_with_replacement(range(d), m)), dtype=np.int64
    )
    if name == "omega":
        keys = distinct
    elif name == "repeated":
        keys = every
    elif name == "dropped":
        keys = every[rng.random(len(every)) < 0.5]
    else:
        keys = distinct[np.sort(rng.choice(len(distinct), len(distinct) // 20, replace=False))]
        full[2] *= 3.0
    design = component_products(full, keys).T
    values = design @ rng.standard_normal(r) + 0.01 * rng.standard_normal(len(keys))
    T = IncompleteSymmetricTensor(d, m, dict(zip(map(tuple, keys.tolist()), values)))
    return T, full, design


@pytest.mark.parametrize("name", ["omega", "repeated", "dropped", "sparse"])
def test_scale_gram_equals_design_gram(name):
    T, full, design = gram_case(name)
    want = design.conj().T @ design
    got = _scale_gram(T, full)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_scale_fit_sparse_matches_equilibrated_lstsq():
    T, full, design = gram_case("sparse")
    assert len(T.values) <= 0.05 * binomial(T.d, T.m)
    norms = np.linalg.norm(design, axis=0)
    ref_lambdas = lstsq(design / norms, T.values).solution / norms
    lambdas, rec, _ = solve_scales(T, full)
    assert np.linalg.norm(lambdas - ref_lambdas) <= 1e-10 * np.linalg.norm(ref_lambdas)
    assert np.abs(rec - design @ lambdas).max() <= 1e-12 * np.abs(T.values).max()


@st.composite
def feasible_problems(draw):
    """(d, m, r, seed) with d <= 10 and 1 <= r <= the computable rank."""
    m = draw(st.integers(3, 5))
    d = draw(st.integers(m + 2, 10))  # n >= m + 1 keeps the k range nonempty
    r = draw(st.integers(1, max_rank_quiet(d - 1, m)[0]))
    return d, m, r, draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(feasible_problems())
def test_decompose_recovers_planted_components_property(problem):
    d, m, r, seed = problem
    comps, T = planted(d, m, r, seed)
    params = choose_params(d - 1, m, r, seed=seed)
    first, second = decompose(T, params), decompose(T, params)
    assert component_error(comps, first.components, m) <= 1e-6
    assert np.array_equal(first.components, second.components)
    assert first.diagnostics == second.diagnostics


def tree_key_sets(d, m, rng):
    """Strictly ascending key arrays: the distinct-index keys, every sorted
    key (repeated indices included), a random half of the latter without
    any key starting at 1 or 3, so the first slots are sparse, and that
    half without any key whose prefix ends at 2, 3 or 4 (its first slot at
    m = 2), so those groups of the tree's cells are empty."""
    distinct = omega_keys(d, m)
    every = np.array(
        list(itertools.combinations_with_replacement(range(d), m)), dtype=np.int64
    )
    keep = (rng.random(len(every)) < 0.5) & ~np.isin(every[:, 0], [1, 3])
    dropped = every[keep]
    return {"omega": distinct, "repeated": every, "dropped": dropped,
            "empty-groups": dropped[~np.isin(dropped[:, -2], [2, 3, 4])]}


@pytest.mark.parametrize("keyset", ["omega", "repeated", "dropped", "empty-groups"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_tree_residual_and_gradient_match_product_jacobian(m, keyset):
    rng = np.random.default_rng(50 + m)
    d, r = 8, 3
    keys = tree_key_sets(d, m, rng)[keyset]
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    T = IncompleteSymmetricTensor(d, m, dict(zip(map(tuple, keys.tolist()), values)))
    Q = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    residual, normal_equations = _residual_builder(T, r)
    q = Q.ravel()
    f = residual(q)
    ref_f = component_products(Q, T.key_array).sum(axis=0) - T.values
    assert np.abs(f - ref_f).max() <= 1e-12 * np.abs(ref_f).max()
    _, g = normal_equations(q, f)
    J = product_jacobian(Q, T.key_array).reshape(len(keys), r * d)
    ref_g = J.conj().T @ f
    assert np.abs(g - ref_g).max() <= 1e-12 * np.abs(ref_g).max()
    # the tree's adjoint on its own, at any f
    f = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    ref_g = (J.conj().T @ f).reshape(r, d)
    g = T.tree.adjoint(Q, f)
    assert np.abs(g - ref_g).max() <= 1e-12 * np.abs(ref_g).max()


def test_approximate_builds_one_prefix_tree(monkeypatch):
    # the scale fit, the residual and J^H f share the noisy tensor's
    # cached tree, which holds its one cell layout
    built = []
    init = PrefixTree.__init__

    def counted(tree, keys):
        built.append((tree, len(keys)))
        init(tree, keys)

    monkeypatch.setattr(PrefixTree, "__init__", counted)
    comps, T = planted(10, 4, 3, seed=41)
    Th = perturb(T, 0.01, 41)
    dec = approximate(Th, choose_params(9, 4, 3, seed=41), truth=T)
    assert dec.diagnostics["lm_iterations"] >= 1
    assert built == [(Th.tree, len(Th.values))]


@pytest.mark.parametrize("keyset", ["omega", "repeated", "empty-groups"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_normal_equations_reuse_the_residuals_products(m, keyset):
    # J^H f from the products the residual formed at q is a fresh
    # ``T.tree.adjoint`` there bit for bit, also after a residual at
    # another point, which forms them again
    rng = np.random.default_rng(60 + m)
    d, r = 8, 3
    keys = tree_key_sets(d, m, rng)[keyset]
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    T = IncompleteSymmetricTensor(d, m, dict(zip(map(tuple, keys.tolist()), values)))
    residual, normal_equations = _residual_builder(T, r)
    q = (rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))).ravel()
    f = residual(q)
    _, g = normal_equations(q, f)
    assert np.array_equal(g, T.tree.adjoint(q.reshape(r, d), f).ravel())
    other = q + 0.1
    residual(other)
    _, g_again = normal_equations(q, f)
    assert np.array_equal(g_again, g)


def test_approximate_forms_products_once_per_point(monkeypatch):
    # one tree pass per residual evaluation plus the scale stage's, and
    # one Gram-term split per tensor: J^H f, the Gram and the truth
    # diagnostics form none again
    passes, splits = [], []
    products = PrefixTree.products
    split = IncompleteSymmetricTensor.gram_terms.func

    def counted_products(tree, vectors):
        passes.append(tree)
        return products(tree, vectors)

    def counted_split(T):
        splits.append(T)
        return split(T)

    counted_terms = functools.cached_property(counted_split)
    counted_terms.__set_name__(IncompleteSymmetricTensor, "gram_terms")
    monkeypatch.setattr(PrefixTree, "products", counted_products)
    monkeypatch.setattr(IncompleteSymmetricTensor, "gram_terms", counted_terms)
    comps, T = planted(12, 4, 5, seed=43)
    Th = perturb(T, 0.01, 43)
    dec = approximate(Th, choose_params(11, 4, 5, seed=43), truth=T)
    assert dec.diagnostics["lm_iterations"] >= 2
    assert len(passes) == dec.diagnostics["lm_residual_calls"] + 1
    assert set(passes) == {Th.tree}
    assert splits == [Th]


@pytest.mark.parametrize("d, m, r, seed", [(12, 4, 5, 44), (15, 3, 6, 45)])
def test_approximate_truth_errors_match_a_fresh_reconstruction(d, m, r, seed):
    comps, T = planted(d, m, r, seed)
    Th = perturb(T, 0.01, seed)
    dec = approximate(Th, choose_params(d - 1, m, r, seed=seed), truth=T)
    rec = component_products(dec.components, Th.key_array).sum(axis=0)
    abs_err = np.sqrt(math.factorial(m)) * np.linalg.norm(rec - T.values)
    rel_err = np.linalg.norm(rec - Th.values) / np.linalg.norm(Th.values - T.values)
    assert dec.diagnostics["abs_err"] == pytest.approx(abs_err, rel=1e-12, abs=0)
    assert dec.diagnostics["rel_err"] == pytest.approx(rel_err, rel=1e-12, abs=0)


def test_normal_equations_peak_memory_below_slot_partials():
    # no (n_keys, m, r) array of slot partials, nor anything that large
    d, m, r = 25, 4, 16
    comps, T = planted(d, m, r, seed=28)
    rng = np.random.default_rng(28)
    Q = comps + 0.01 * (rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d)))
    residual, normal_equations = _residual_builder(T, r)
    q = Q.ravel()
    f = residual(q)
    tracemalloc.start()
    try:
        normal_equations(q, f)[0]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(T.values) * m * r * np.dtype(complex).itemsize / 2


def stored_fraction(d, m, r, fraction, seed):
    """A planted rank-r tensor on a random ``fraction`` of its
    distinct-index keys."""
    comps, T = planted(d, m, r, seed)
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(len(T.values), round(fraction * len(T.values)), replace=False))
    keys = map(tuple, T.key_array[keep].tolist())
    return comps, IncompleteSymmetricTensor(d, m, dict(zip(keys, T.values[keep])))


@pytest.mark.parametrize("fraction", [0.5, 0.1])
def test_normal_equations_on_sparse_tensors_match_dense_jacobian(fraction):
    # half stored: the closed form less the absent keys' Gram; a tenth
    # stored: fewer keys than absent ones, so the stored keys' own Gram
    d, m, r = 12, 4, 4
    comps, T = stored_fraction(d, m, r, fraction, seed=29)
    assert T.gram_terms[0] == (fraction == 0.5)
    rng = np.random.default_rng(29)
    Q = comps + 0.1 * (rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d)))
    residual, normal_equations = _residual_builder(T, r)
    q = Q.ravel()
    f = residual(q)
    gram, g = normal_equations(q, f)
    G = gram()
    J = product_jacobian(Q, T.key_array).reshape(len(T.values), r * d)
    ref, ref_g = J.conj().T @ J, J.conj().T @ f
    assert np.linalg.norm(G - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(g - ref_g) <= 1e-12 * np.linalg.norm(ref_g)


def test_normal_equations_on_a_tenth_stored_pay_for_the_stored_keys():
    # the 11,385 absent keys' Jacobian alone would take 73 MB; the stored
    # keys' 1,265 rows take 8.1 MB
    d, m, r = 25, 4, 16
    comps, T = stored_fraction(d, m, r, 0.1, seed=28)
    rng = np.random.default_rng(28)
    Q = comps + 0.01 * (rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d)))
    residual, normal_equations = _residual_builder(T, r)
    q = Q.ravel()
    f = residual(q)
    tracemalloc.start()
    try:
        normal_equations(q, f)[0]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(T.values) * r * d * np.dtype(complex).itemsize


@pytest.mark.parametrize("case", ["m2", "m2-repeated", "empty-groups", "repeated-absent"])
def test_scale_fit_on_ragged_cells_matches_equilibrated_lstsq(case):
    # m = 2, where the tree has no levels and the coordinates are the leaf
    # prefixes; keys leaving whole coordinate groups empty; and keys with
    # repeated indices stored and distinct-index keys absent
    rng = np.random.default_rng(31)
    d, m, r = {"m2": (10, 2, 4), "m2-repeated": (10, 2, 4)}.get(case, (11, 4, 5))
    full = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    full[:, 0] = 1.0
    every = np.array(list(itertools.combinations_with_replacement(range(d), m)))
    distinct = omega_keys(d, m)
    if case == "m2":
        keys = distinct
    elif case == "m2-repeated":
        keys = every[every[:, 0] != 3]
    elif case == "empty-groups":  # no prefix ends at 2, 5, 6 or 7
        keys = distinct[~np.isin(distinct[:, -2], [2, 5, 6, 7])]
    else:
        keys = every[rng.random(len(every)) < 0.5]
    design = component_products(full, keys).T
    values = design @ rng.standard_normal(r) + 0.01 * rng.standard_normal(len(keys))
    T = IncompleteSymmetricTensor(d, m, dict(zip(map(tuple, keys.tolist()), values)))
    norms = np.linalg.norm(design, axis=0)
    ref = lstsq(design / norms, T.values)
    ref_lambdas = ref.solution / norms
    lambdas, rec, _ = solve_scales(T, full)
    assert np.linalg.norm(lambdas - ref_lambdas) <= 1e-10 * np.linalg.norm(ref_lambdas)
    assert abs(np.linalg.norm(rec - T.values) - ref.residual_norm) <= 1e-12 * np.linalg.norm(values)
    assert np.abs(rec - design @ lambdas).max() <= 1e-12 * np.abs(T.values).max()


def test_scale_fit_of_an_empty_tensor_is_degenerate():
    T = IncompleteSymmetricTensor(6, 3, {})
    with pytest.raises(ScalesDegenerate):
        solve_scales(T, np.ones((2, 6), dtype=complex))


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("case", ["exact", "perturbed", "spread"])
def test_solve_heads_equals_per_label_block_reference(case, m):
    # one gather of the distinct head keys gives the same right-hand sides,
    # and the stacked solve the same numbers, so the heads equal the
    # per-label block_matrix solve bit for bit
    T, params, tails = head_case(case, m)
    gammas = solve_tail_products(T, tails, params)
    heads, cond = solve_heads(T, tails, gammas, params)
    ref, ref_cond = heads_by_label(T, tails, gammas, params)
    assert np.array_equal(heads, ref)
    assert cond == ref_cond


def assert_stages_equal_their_references(T, params):
    """Generating matrix, tails and heads of T equal, bit for bit, the
    label-by-label gathers, the full-eig screen of every xi candidate and
    the per-label head solves."""
    r, p, k = params.r, params.p, params.k
    G = solve_generating_matrix(T, r, p, k)
    ref = generating_matrix_by_label(T, r, p, k)
    for field in ("values", "residuals", "ranks", "conds"):
        assert np.array_equal(getattr(G, field), getattr(ref, field)), field
    Ns = companion_matrices(G)
    tails, vecs, gap = extract_tails(Ns, params.seed)
    ref_tails, ref_vecs, ref_gap = tails_by_full_eig(Ns, params.seed)
    assert np.array_equal(tails, ref_tails)
    assert np.array_equal(vecs, ref_vecs)
    assert gap == ref_gap
    gammas = solve_tail_products(T, tails, params)
    heads, cond = solve_heads(T, tails, gammas, params)
    ref_heads, ref_cond = heads_by_label(T, tails, gammas, params)
    assert np.array_equal(heads, ref_heads)
    assert cond == ref_cond


def test_exact_stages_equal_their_references_on_a_pool_tensor():
    # the first tensor of the benchmark's rank-55 pool at d=25
    _, T = planted(25, 5, 55, seed=[5, 55, 0])
    assert_stages_equal_their_references(T, choose_params(24, 5, 55, seed=1))


@st.composite
def stage_problems(draw):
    """(d, m, r, seed, noise) with d <= 12 and 1 <= r <= the computable
    rank; noise 0 or 1e-3."""
    m = draw(st.integers(3, 5))
    d = draw(st.integers(m + 2, 12))
    r = draw(st.integers(1, max_rank_quiet(d - 1, m)[0]))
    return d, m, r, draw(st.integers(0, 2**16)), draw(st.sampled_from([0.0, 1e-3]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stage_problems())
def test_exact_stages_equal_their_references_property(problem):
    d, m, r, seed, noise = problem
    _, T = planted(d, m, r, seed)
    assert_stages_equal_their_references(
        perturb(T, noise, seed), choose_params(d - 1, m, r, seed=seed))


@pytest.mark.parametrize("fault", ["duplicate", "zero"])
def test_heads_degenerate_names_the_first_bad_label(fault):
    # equal tails make the tail design's columns 0 and 1 equal; the head
    # design of label j then loses rank where gammas' columns 0 and 1 agree
    # on the J1 rows avoiding j, or where column 0 vanishes there.  Here
    # that holds for labels 2 and 3, and not for label 1, whose rows hold
    # (2, 3).
    T, params, tails = head_case("exact", 5)
    assert params.p == 2
    gammas = solve_tail_products(T, tails, params)
    tails[1] = tails[0]
    J1, _, _ = _tail_blocks(T, tails, params)
    rows = [i for i, beta in enumerate(J1.tolist()) if beta != [2, 3]]
    if fault == "duplicate":
        gammas[rows, 1] = gammas[rows, 0]
    else:
        gammas[rows, 0] = 0
    for solve in (solve_heads, heads_by_label):
        with pytest.raises(HeadsDegenerate, match="rank-deficient at label 2$"):
            solve(T, tails, gammas, params)

