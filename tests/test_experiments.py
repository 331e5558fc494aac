"""Experiment grids: determinism, aggregation, formatting."""

import numpy as np

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
