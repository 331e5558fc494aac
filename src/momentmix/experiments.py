"""Seeded experiment grids: exact decomposition accuracy, noisy
approximation stability, and the mixture-learning comparison against EM.

Trials run in order in one process; trial i of a grid cell uses seed
base + i.  A trial whose solve raises counts as failed instead of
stopping the grid.  Tables 2 and 3 draw the same planted tensor per seed
and summarize each cell with the same min/average/max columns.
"""

from __future__ import annotations

import io

import numpy as np

from . import gmm
from .decomposition import (
    approximate,
    choose_params,
    component_error,
    decompose,
    max_rank_quiet,
)
from .numerics import rng_from
from .tensor_store import (
    ComponentList,
    from_components,
    omega_keys,
    perturb,
)

DEFAULT_SEED = 2024


def random_components(d: int, r: int, seed: int) -> np.ndarray:
    """Real Gaussian component vectors, one row per component."""
    return rng_from(seed, "components").standard_normal((r, d))


def _planted(d: int, m: int, r: int, seed: int):
    """Planted components, their exact order-m tensor on the distinct-index
    keys, and the parameters that decompose it at rank r."""
    comps = random_components(d, r, seed)
    T = from_components(ComponentList(comps), m, omega_keys(d, m))
    return comps, T, choose_params(d - 1, m, r, seed=seed)


def _tally(head: dict, results: list[dict]) -> tuple[dict, list[dict]]:
    """A summary row holding ``head`` and the trial and failure counts,
    and the results of the trials that did not fail."""
    ok = [x for x in results if "error" not in x]
    return {**head, "trials": len(results), "failed": len(results) - len(ok)}, ok


def _stats(values: list[float], prefix: str = "") -> dict:
    return {
        f"{prefix}min": float(np.min(values)),
        f"{prefix}average": float(np.mean(values)),
        f"{prefix}max": float(np.max(values)),
    }


def _decomp_trial(d, m, r, seed):
    comps, T, params = _planted(d, m, r, seed)
    try:
        dec = decompose(T, params)
    except Exception as exc:  # aggregate partial failures, keep the grid going
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "decomp_err": dec.diagnostics["decomp_err"],
        "vec_err_max": component_error(comps, dec.components, m),
    }


def run_table2(
    d: int = 15,
    orders: tuple[int, ...] = (3, 4, 5),
    trials: int = 20,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    rows = []
    for m in orders:
        r, _, _ = max_rank_quiet(d - 1, m)
        results = [_decomp_trial(d, m, r, seed + i) for i in range(trials)]
        row, ok = _tally({"d": d, "m": m, "r": r}, results)
        if ok:
            row.update(_stats([x["decomp_err"] for x in ok]))
            # the mean over trials of each trial's worst component error
            row["vec_err_max"] = float(np.mean([x["vec_err_max"] for x in ok]))
        rows.append(row)
    return rows


def _approx_trial(d, m, r, epsilon, seed):
    _, T, params = _planted(d, m, r, seed)
    T_hat = perturb(T, epsilon, seed)
    try:
        dec = approximate(T_hat, params, truth=T)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "abs_err": dec.diagnostics["abs_err"],
        "rel_err": dec.diagnostics["rel_err"],
    }


def run_table3(
    d: int = 15,
    orders: tuple[int, ...] = (3, 4),
    epsilons: tuple[float, ...] = (0.1, 0.01, 0.001),
    trials: int = 20,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    rows = []
    for m in orders:
        r, _, _ = max_rank_quiet(d - 1, m)
        for epsilon in epsilons:
            results = [
                _approx_trial(d, m, r, epsilon, seed + i) for i in range(trials)
            ]
            row, ok = _tally({"d": d, "m": m, "r": r, "epsilon": epsilon}, results)
            if ok:
                row.update(_stats([x["rel_err"] for x in ok], "rel_"))
                row.update(_stats([x["abs_err"] for x in ok], "abs_"))
            rows.append(row)
    return rows


def _gmm_trial(d, m, r, n_samples, seed):
    model = gmm.random_model(d, r, seed)
    samples = gmm.sample_gmm(model, n_samples, seed)
    try:
        learned = gmm.learn(samples, r, m, seed=seed)
        acc_alg = gmm.accuracy(gmm.classify(learned, samples), samples.labels)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    em = gmm.em_baseline(samples, r, seed=seed)
    acc_em = gmm.accuracy(gmm.classify(em, samples), samples.labels)
    return {"accuracy_alg": acc_alg, "accuracy_em": acc_em}


def run_table4(
    d: int = 15,
    m: int = 3,
    r: int | None = None,
    n_samples: int = 100_000,
    trials: int = 5,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    if r is None:
        r, _, _ = max_rank_quiet(d - 1, m)
    head = {"d": d, "m": m, "r": r}
    results = [_gmm_trial(d, m, r, n_samples, seed + i) for i in range(trials)]
    rows = [{**head, "trial": i, **x} for i, x in enumerate(results)]
    ok = [x for x in results if "error" not in x]
    if ok:
        rows.append({
            **head,
            "trial": "average",
            "accuracy_alg": float(np.mean([x["accuracy_alg"] for x in ok])),
            "accuracy_em": float(np.mean([x["accuracy_em"] for x in ok])),
        })
    return rows


def format_rows(rows: list[dict], fmt: str) -> str:
    """Render result rows as markdown, CSV, or JSON."""
    if fmt == "json":
        import json

        return json.dumps(rows, indent=1)
    if not rows:
        return ""
    cols: list[str] = []
    for row in rows:
        for c in row:
            if c not in cols:
                cols.append(c)
    out = io.StringIO()
    if fmt == "md":
        out.write("| " + " | ".join(cols) + " |\n")
        out.write("|" + "|".join(["---"] * len(cols)) + "|\n")
        for row in rows:
            out.write(
                "| " + " | ".join(_cell(row.get(c, "")) for c in cols) + " |\n"
            )
    elif fmt == "csv":
        out.write(",".join(cols) + "\n")
        for row in rows:
            out.write(",".join(_cell(row.get(c, "")) for c in cols) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return out.getvalue()


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
