"""Shows that the benchmark's checks can fail.

Each case runs momentmix on a small input, requires the check to pass on
the real output, then corrupts the output and requires the check to
reject it.  Run from the root of a checkout:

    python3 bench/selftest.py

Exits 0 when every check passes its real output and rejects its corrupted
one, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from momentmix import decomposition, gmm, tensor_store  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, real: list[str], corrupted: list[str]):
    ok = not real and bool(corrupted)
    RESULTS.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"     real output: {real or 'accepted'}")
    print(f"     corrupted:   {corrupted or 'accepted'}")


def planted_tensor(d, m, r, seed):
    planted = np.random.default_rng(seed).standard_normal((r, d))
    keys = checks.distinct_keys(d, m)
    values = checks.tensor_values(planted, keys)
    return planted, keys, values, checks.entries_of(keys, values)


def exact_case():
    d, m, r = 12, 5, 6
    planted, keys, values, entries = planted_tensor(d, m, r, 1)
    text = tensor_store.to_json(tensor_store.IncompleteSymmetricTensor(d, m, entries))
    T = tensor_store.from_json(text)
    changed = tensor_store.from_json(text)
    first = next(iter(changed.entries))
    changed.entries[first] = complex(np.nextafter(changed.entries[first].real, np.inf))
    expect("one tensor entry changed -> JSON round-trip check",
           checks.roundtrip_problems(entries, T, d, m),
           checks.roundtrip_problems(entries, changed, d, m))

    dec = decomposition.decompose(T, decomposition.choose_params(d - 1, m, r, seed=1))
    expect("components scaled by 1+1e-3 -> exact recovery check",
           checks.exact_problems(planted, values, keys, dec.components, m),
           checks.exact_problems(planted, values, keys, dec.components * (1 + 1e-3), m))


def noisy_case():
    d, m, r, eps = 12, 4, 6, 0.01
    planted, keys, truth, truth_entries = planted_tensor(d, m, r, 2)
    noise = np.random.default_rng(3).standard_normal(truth.size)
    noisy = truth + noise * eps / checks.weighted_norm(noise, m)
    T = tensor_store.IncompleteSymmetricTensor(d, m, checks.entries_of(keys, noisy))
    truth_T = tensor_store.IncompleteSymmetricTensor(d, m, truth_entries)
    dec = decomposition.approximate(
        T, decomposition.choose_params(d - 1, m, r, seed=2), truth=truth_T)
    expect("components scaled by 1+1e-3 -> noisy abs_err/rel_err check",
           checks.noisy_problems(truth, noisy, keys, dec.components, m, eps, dec.diagnostics),
           checks.noisy_problems(truth, noisy, keys, dec.components * (1 + 1e-3), m, eps,
                                 dec.diagnostics))


def mixture_case():
    d, r, n = 15, 6, 20_000
    model = gmm.random_model(d, r, seed=1)
    samples = gmm.sample_gmm(model, n, seed=1)
    labels = np.asarray(gmm.classify(model, samples))
    permuted = np.random.default_rng(4).permutation(labels)
    expect("permuted label vector -> classify check",
           checks.label_problems(labels, model, samples.data),
           checks.label_problems(permuted, model, samples.data))

    keys = [(0, 0, 1), (0, 1, 2), (2, 3, 4)]
    moments = gmm.sample_moments(samples, keys)
    changed = gmm.MomentSet(moments.order, dict(moments.values))
    changed.values[keys[1]] *= 1 + 1e-6
    expect("one sample moment changed -> moment check",
           checks.moment_problems(samples.data, moments),
           checks.moment_problems(samples.data, changed))

    em = gmm.em_baseline(samples, r, max_iters=8, seed=1)
    history = em.meta["loglik_history"]
    trimmed = gmm.GmmModel(em.weights, em.means, em.variances, meta={
        "loglik_history": [h for h in history if h != max(history)]})
    expect("EM history with its maximum removed -> EM log-likelihood check",
           checks.em_problems(em, samples.data, r),
           checks.em_problems(trimmed, samples.data, r))


def main() -> int:
    exact_case()
    noisy_case()
    mixture_case()
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} checks pass real outputs "
          "and reject corrupted ones")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
