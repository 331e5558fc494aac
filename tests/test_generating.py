"""Generating-matrix systems, companion matrices, and tail extraction."""

import numpy as np
import pytest

from momentmix.combinatorics import binomial
from momentmix.decomposition import choose_params
from momentmix.errors import EigenFailure, ShapeCondition
from momentmix.numerics import lstsq
from momentmix.generating import (
    CompanionSet,
    companion_matrices,
    extract_tails,
    solve_generating_matrix,
)
from momentmix.tensor_store import (
    ComponentList,
    IncompleteSymmetricTensor,
    from_components,
    omega_keys,
    perturb,
)
from oracles import assemble_system, basis_B0, basis_B1


def rank_one_tensor():
    # q = (1, 2, 3, 4): d=4, n=3, u = (2, 3, 4)
    return from_components(
        ComponentList(np.array([[1.0, 2.0, 3.0, 4.0]])), 3, omega_keys(4, 3)
    )


def test_assemble_system_rank_one():
    T = rank_one_tensor()
    B0 = basis_B0(1, 1, 1)
    A, b = assemble_system(T, (1, 2), B0, k=1, n=3, m=3, p=1)
    assert np.allclose(A, [[8.0]])   # entry at key {0,1,3} = 1*2*4
    assert np.allclose(b, [24.0])    # entry at key {1,2,3} = 2*3*4


def test_assemble_system_zero_tensor():
    keys = omega_keys(4, 3)
    T = IncompleteSymmetricTensor(4, 3, {k: 0.0 for k in keys})
    A, b = assemble_system(T, (1, 2), basis_B0(1, 1, 1), k=1, n=3, m=3, p=1)
    assert np.all(A == 0) and np.all(b == 0)


def test_assemble_system_shapes():
    d, m, r, p, k = 8, 4, 3, 1, 3
    n = d - 1
    comps = np.random.default_rng(0).standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    B0 = basis_B0(k, p, r)
    for alpha in basis_B1(k, p, n):
        A, b = assemble_system(T, alpha, B0, k, n, m, p)
        assert A.shape == (binomial(n - k - 1, m - p - 1), r)
        assert b.shape == (A.shape[0],)


def test_solve_generating_matrix_rank_one():
    T = rank_one_tensor()
    G = solve_generating_matrix(T, r=1, p=1, k=1)
    # G column at alpha={1,j}, index j - 2 (head-major, k=1), is [u_j]
    assert G.values[:, 0] == pytest.approx([3.0])
    assert G.values[:, 1] == pytest.approx([4.0])
    assert np.all(G.residuals <= 1e-10)


def test_solve_generating_matrix_scale_invariant():
    rng = np.random.default_rng(4)
    comps = rng.standard_normal((2, 8))
    T = from_components(ComponentList(comps), 3, omega_keys(8, 3))
    scaled = IncompleteSymmetricTensor(
        8, 3, {k: 7.0 * v for k, v in T.entries.items()}
    )
    G1 = solve_generating_matrix(T, r=2, p=1, k=2)
    G2 = solve_generating_matrix(scaled, r=2, p=1, k=2)
    assert np.allclose(G1.values, G2.values)


def test_solve_generating_matrix_shape_condition():
    T = rank_one_tensor()
    with pytest.raises(ShapeCondition):
        solve_generating_matrix(T, r=3, p=1, k=1)


def test_generating_residuals_vanish_on_exact_input():
    rng = np.random.default_rng(8)
    d, m, r = 9, 3, 3
    comps = rng.standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    from momentmix.tensor_store import omega_norm
    G = solve_generating_matrix(T, r=r, p=1, k=3)
    assert np.max(G.residuals) <= 1e-9 * omega_norm(T, omega_keys(d, m))


@pytest.mark.parametrize("p, k, r", [(1, 4, 4), (2, 4, 5)])
@pytest.mark.parametrize("epsilon", [0.0, 0.01])
def test_solve_generating_matrix_matches_per_column(p, k, r, epsilon):
    # reference: one assemble_system + lstsq per B1 column
    d, m = 12, 5
    n = d - 1
    comps = np.random.default_rng(40 + p).standard_normal((r, d))
    T = perturb(from_components(ComponentList(comps), m, omega_keys(d, m)), epsilon, 3)
    G = solve_generating_matrix(T, r=r, p=p, k=k)
    B0 = basis_B0(k, p, r)
    for ci, alpha in enumerate(basis_B1(k, p, n)):
        A, b = assemble_system(T, alpha, B0, k, n, m, p)
        ref = lstsq(A, b)
        scale = np.linalg.norm(ref.solution)
        assert np.linalg.norm(G.values[:, ci] - ref.solution) <= 1e-12 * scale
        assert abs(G.residuals[ci] - ref.residual_norm) <= 1e-12 * np.linalg.norm(b)
        # column ci's tail label is label ci % (n - k) of the design stack
        assert G.conds[ci % (n - k)] == pytest.approx(np.linalg.cond(A), rel=1e-10)
    assert G.ranks.shape == (n - k,)


def test_generating_rank_of_zero_tensor():
    keys = omega_keys(9, 3)
    T = IncompleteSymmetricTensor(9, 3, {k: 0.0 for k in keys})
    G = solve_generating_matrix(T, r=3, p=1, k=3)
    assert G.ranks.shape == (5,)
    assert G.ranks.min() < 3
    assert np.isinf(G.conds).all()


def test_companion_rank_one():
    T = rank_one_tensor()
    G = solve_generating_matrix(T, r=1, p=1, k=1)
    Ns = companion_matrices(G)
    assert Ns.matrices.shape == (2, 1, 1)
    assert Ns.matrices[0, 0, 0] == pytest.approx(3.0)  # N_2 = [u_2]
    assert Ns.matrices[1, 0, 0] == pytest.approx(4.0)  # N_3 = [u_3]


def test_companion_commutation():
    rng = np.random.default_rng(21)
    d, m, r = 8, 3, 3
    comps = rng.standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    G = solve_generating_matrix(T, r=r, p=1, k=3)
    Ns = companion_matrices(G)
    for a in range(Ns.matrices.shape[0]):
        for b in range(a + 1, Ns.matrices.shape[0]):
            Na, Nb = Ns.matrices[a], Ns.matrices[b]
            assert np.linalg.norm(Na @ Nb - Nb @ Na) <= 1e-8


def test_companion_eigen_relation():
    # N_l maps the B0-monomial vector of a planted component to its
    # l-th coordinate times the same vector
    rng = np.random.default_rng(30)
    d, m, r, p, k = 8, 3, 3, 1, 3
    comps = rng.standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    G = solve_generating_matrix(T, r=r, p=p, k=k)
    Ns = companion_matrices(G)
    us = comps / comps[:, :1]
    for i in range(r):
        vb0 = us[i, 1:k + 1]  # monomials x_1, x_2, x_3 at u_i
        for li in range(Ns.matrices.shape[0]):
            l = k + 1 + li
            lhs = Ns.matrices[li] @ vb0
            assert np.linalg.norm(lhs - us[i, l] * vb0) <= 1e-8


def test_extract_tails_rank_one():
    T = rank_one_tensor()
    G = solve_generating_matrix(T, r=1, p=1, k=1)
    tails, _, _ = extract_tails(companion_matrices(G), seed=0)
    assert np.allclose(tails, [[3.0, 4.0]])


def test_extract_tails_matches_planted():
    rng = np.random.default_rng(17)
    d, m, r, p, k = 9, 3, 3, 1, 3
    comps = rng.standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    G = solve_generating_matrix(T, r=r, p=p, k=k)
    tails, _, gap = extract_tails(companion_matrices(G), seed=2)
    true_tails = (comps / comps[:, :1])[:, k + 1:]
    # greedy multiset matching
    used = set()
    for i in range(r):
        dists = [
            np.linalg.norm(tails[i] - true_tails[j]) if j not in used else np.inf
            for j in range(r)
        ]
        j = int(np.argmin(dists))
        used.add(j)
        assert dists[j] <= 1e-7


def test_extract_tails_seed_invariant_multiset():
    rng = np.random.default_rng(18)
    d, m, r, p, k = 9, 3, 3, 1, 3
    comps = rng.standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    Ns = companion_matrices(solve_generating_matrix(T, r=r, p=p, k=k))
    t1, _, _ = extract_tails(Ns, seed=1)
    t2, _, _ = extract_tails(Ns, seed=99)
    s1 = sorted(tuple(np.round(row.real, 6)) for row in t1)
    s2 = sorted(tuple(np.round(row.real, 6)) for row in t2)
    assert np.allclose(s1, s2, atol=1e-6)


def test_extract_tails_matches_rayleigh_loop():
    rng = np.random.default_rng(8)
    comps = rng.standard_normal((15, 25)) + 1j * rng.standard_normal((15, 25))
    T = from_components(ComponentList(comps), 5, omega_keys(25, 5))
    params = choose_params(24, 5, 15, seed=8)
    Ns = companion_matrices(solve_generating_matrix(T, 15, params.p, params.k))
    tails, vecs, _ = extract_tails(Ns, seed=8)
    loop = np.array([
        [np.vdot(v, N @ v) for N in Ns.matrices] for v in vecs.T
    ])
    assert np.abs(tails - loop).max() <= 1e-13 * np.abs(loop).max()


def test_generating_matrix_gathers_each_key_once(monkeypatch):
    # the designs' rows are rows of one gather over the support pool, the
    # right-hand sides' rows of one gather over the tail subsets
    d, m, r = 14, 5, 10
    comps = np.random.default_rng(5).standard_normal((r, d))
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    params = choose_params(d - 1, m, r, seed=5)
    n, p, k = d - 1, params.p, params.k
    gathered = []
    gather = IncompleteSymmetricTensor.gather

    def counted(tensor, keys):
        gathered.append(np.asarray(keys).size // m)
        return gather(tensor, keys)

    monkeypatch.setattr(IncompleteSymmetricTensor, "gather", counted)
    solve_generating_matrix(T, r, p, k)
    pool = binomial(n - k, m - p - 1)
    assert sum(gathered) <= pool * r + binomial(n - k, m - p) * binomial(k, p)
    # every label's rows gathered again would take this many
    assert sum(gathered) < (n - k) * binomial(n - k - 1, m - p - 1) * (r + binomial(k, p))


def test_extract_tails_screen_fails_loud_on_nan():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((3, 4, 4)) + 0j
    mats[1, 2, 3] = np.nan
    with pytest.raises(EigenFailure):
        extract_tails(CompanionSet(matrices=mats), seed=0)
