"""Experiment grids: determinism, aggregation, formatting."""

import numpy as np
import pytest

from momentmix import experiments
from momentmix.errors import DegenerateSpectrum
from momentmix.experiments import (
    format_rows,
    random_components,
    run_table2,
    run_table3,
    run_table4,
)


def test_random_components_deterministic():
    a = random_components(8, 3, seed=4)
    b = random_components(8, 3, seed=4)
    assert np.array_equal(a, b)
    assert a.shape == (3, 8)


def test_run_table2_small():
    rows = run_table2(d=8, orders=(3,), trials=3, seed=1)
    assert len(rows) == 1
    row = rows[0]
    assert row["failed"] == 0
    assert row["min"] <= row["average"] <= row["max"]
    assert row["max"] <= 1e-8


def test_run_table2_deterministic():
    a = run_table2(d=8, orders=(3,), trials=2, seed=7)
    b = run_table2(d=8, orders=(3,), trials=2, seed=7)
    assert a == b


def test_run_table3_small():
    rows = run_table3(d=10, orders=(3,), epsilons=(0.01,), trials=3, seed=2)
    assert len(rows) == 1
    row = rows[0]
    assert row["failed"] == 0
    assert row["rel_max"] <= 1.0
    assert row["abs_average"] <= 0.01


def test_run_table4_small():
    rows = run_table4(d=8, m=3, r=2, n_samples=3000, trials=2, seed=1)
    assert [row["trial"] for row in rows] == [0, 1, "average"]
    for row in rows[:2]:
        assert "error" not in row
        assert 0.5 <= row["accuracy_alg"] <= 1 and 0.5 <= row["accuracy_em"] <= 1
    for col in ("accuracy_alg", "accuracy_em"):
        assert rows[2][col] == np.mean([row[col] for row in rows[:2]])
    assert run_table4(d=8, m=3, r=2, n_samples=3000, trials=2, seed=1) == rows


def test_format_rows():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "c": "x"}]
    md = format_rows(rows, "md")
    assert md.splitlines()[0] == "| a | b | c |"
    csv = format_rows(rows, "csv")
    assert csv.splitlines()[0] == "a,b,c"
    assert len(csv.splitlines()) == 3
    import json

    assert json.loads(format_rows(rows, "json")) == rows
    assert format_rows([], "md") == ""


# Each grid, the call its trials guard, a small run of it and one of its
# trials.
GRIDS = {
    "table2": (experiments, "decompose",
               lambda: run_table2(d=8, orders=(3,), trials=2, seed=1),
               lambda: experiments._decomp_trial(8, 3, 3, 1)),
    "table3": (experiments, "approximate",
               lambda: run_table3(d=10, orders=(3,), epsilons=(0.01,), trials=2, seed=2),
               lambda: experiments._approx_trial(10, 3, 4, 0.01, 2)),
    "table4": (experiments.gmm, "learn",
               lambda: run_table4(d=8, m=3, r=2, n_samples=3000, trials=2, seed=1),
               lambda: experiments._gmm_trial(8, 3, 2, 3000, 1)),
}


def _raising(exc):
    def solve(*args, **kwargs):
        raise exc

    return solve


@pytest.mark.parametrize("grid", GRIDS)
def test_trial_fault_propagates(monkeypatch, grid):
    # an exception that is not a MomentmixError is a fault, not a failed trial
    owner, name, run, _ = GRIDS[grid]
    monkeypatch.setattr(owner, name, _raising(RuntimeError("not a solve failure")))
    with pytest.raises(RuntimeError, match="not a solve failure"):
        run()


@pytest.mark.parametrize("grid", GRIDS)
def test_trial_typed_failure_counted(monkeypatch, grid):
    owner, name, run, trial = GRIDS[grid]
    monkeypatch.setattr(owner, name, _raising(DegenerateSpectrum("gap below tolerance")))
    error = "DegenerateSpectrum: gap below tolerance"
    assert trial() == {"error": error}
    rows = run()
    if grid == "table4":
        assert [(row["trial"], row["error"]) for row in rows] == [(0, error), (1, error)]
    else:
        assert [(row["trials"], row["failed"]) for row in rows] == [(2, 2)]
