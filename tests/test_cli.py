"""Command-line driver: exit codes, file formats, determinism."""

import json

import numpy as np
import pytest

from momentmix.cli import main
from momentmix.decomposition import from_json as dec_from_json
from momentmix.gmm import model_from_json
from momentmix.tensor_store import from_json as tensor_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_maxrank(capsys):
    code, out, _ = run(capsys, "maxrank", "--d", "15", "--m", "5")
    assert code == 0
    assert "r_max=15" in out
    code, out, _ = run(capsys, "maxrank", "--d", "40", "--m", "7")
    assert code == 0
    assert "r_max=969" in out


def test_maxrank_infeasible(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maxrank", "--d", "3", "--m", "5"])
    assert exc.value.code == 2


def test_params(capsys):
    code, out, _ = run(capsys, "params", "--d", "15", "--m", "3", "--r", "6")
    assert code == 0
    assert "p=1 k=6" in out


def test_gen_tensor_and_decompose(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    comps = tmp_path / "c.json"
    code, _, _ = run(
        capsys, "gen-tensor", "--d", "8", "--m", "3", "--r", "2",
        "--seed", "5", "--out", str(tensor), "--components-out", str(comps),
    )
    assert code == 0
    T = tensor_from_json(tensor.read_text())
    assert T.d == 8 and T.m == 3
    out_file = tmp_path / "dec.json"
    code, out, _ = run(
        capsys, "decompose", "--tensor", str(tensor), "--r", "2",
        "--seed", "5", "--out", str(out_file),
    )
    assert code == 0
    assert "decomp-err" in out
    dec = dec_from_json(out_file.read_text())
    assert dec.components.shape == (2, 8)


def test_decompose_rank_too_large(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "6", "--m", "3", "--r", "2",
        "--out", str(tensor))
    code, _, err = run(
        capsys, "decompose", "--tensor", str(tensor), "--r", "40"
    )
    assert code == 2
    assert "rank" in err.lower()


def test_decompose_rejects_nan_tensor(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "8", "--m", "3", "--r", "2",
        "--seed", "5", "--out", str(tensor))
    doc = json.loads(tensor.read_text())
    doc["entries"][3]["re"] = float("nan")
    tensor.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "2")
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_decompose_deterministic(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "8", "--m", "3", "--r", "2",
        "--seed", "5", "--out", str(tensor))
    outs = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        run(capsys, "decompose", "--tensor", str(tensor), "--r", "2",
            "--seed", "9", "--out", str(out_file))
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


def test_approximate_with_synthetic_noise(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "10", "--m", "3", "--r", "3",
        "--seed", "2", "--out", str(tensor))
    code, out, _ = run(
        capsys, "approximate", "--tensor", str(tensor), "--r", "3",
        "--epsilon", "0.01", "--seed", "2",
    )
    assert code == 0
    assert "abs-err" in out and "rel-err" in out


def test_gmm_pipeline(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    samples = tmp_path / "samples.csv"
    labels = tmp_path / "labels.csv"
    code, _, _ = run(capsys, "gen-gmm", "--d", "6", "--r", "2",
                     "--seed", "3", "--out", str(model_file))
    assert code == 0
    model = model_from_json(model_file.read_text())
    assert model.weights.sum() == pytest.approx(1.0)
    code, _, _ = run(capsys, "sample", "--model", str(model_file),
                     "--n", "20000", "--seed", "3",
                     "--out", str(samples), "--labels-out", str(labels))
    assert code == 0
    data = np.loadtxt(samples, delimiter=",")
    assert data.shape == (20000, 6)
    learned_file = tmp_path / "learned.json"
    code, out, _ = run(capsys, "learn", "--samples", str(samples),
                       "--labels", str(labels), "--r", "2", "--m", "3",
                       "--seed", "3", "--out", str(learned_file))
    assert code == 0
    assert "accuracy" in out
    code, out, _ = run(capsys, "em", "--samples", str(samples),
                       "--labels", str(labels), "--r", "2", "--seed", "3")
    assert code == 0
    assert "accuracy" in out
    code, out, _ = run(capsys, "evaluate", "--model", str(learned_file),
                       "--samples", str(samples), "--labels", str(labels))
    assert code == 0
    assert "accuracy" in out


def test_moments_command(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    np.savetxt(samples, np.arange(12.0).reshape(3, 4), delimiter=",")
    out_file = tmp_path / "m.json"
    code, _, _ = run(capsys, "moments", "--samples", str(samples),
                     "--m", "3", "--with-pairs", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["m"] == 3
    keys = [tuple(e["key"]) for e in payload["entries"]]
    assert (0, 1, 2) in keys
    assert (0, 0, 1) in keys


def test_experiment_table2(capsys):
    code, out, _ = run(capsys, "experiment", "table2", "--d", "8",
                       "--orders", "3", "--trials", "2", "--format", "md")
    assert code == 0
    assert "min" in out and "average" in out and "max" in out


def test_experiment_zero_trials(capsys):
    code, out, _ = run(capsys, "experiment", "table2", "--d", "8",
                       "--orders", "3", "--trials", "0", "--format", "csv")
    assert code == 0


def test_config_echo(capsys):
    code, out, _ = run(capsys, "maxrank", "--d", "15", "--m", "3")
    assert code == 0
    assert "config:" in out


@pytest.mark.parametrize("m", ["0", "-1"])
def test_gen_tensor_rejects_order_below_one(tmp_path, capsys, m):
    code, _, err = run(capsys, "gen-tensor", "--d", "5", "--m", m, "--r", "1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_missing_tensor_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, _, err = run(capsys, "decompose", "--tensor", str(missing), "--r", "2")
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_unparsable_tensor_file_exits_2(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    tensor.write_text("{not json")
    code, _, err = run(capsys, "approximate", "--tensor", str(tensor), "--r", "2")
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_invalid_p_flag_exits_2(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "6", "--m", "3", "--r", "2",
        "--out", str(tensor))
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "2",
                       "--p", "5", "--k", "1")
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("doc", [
    {"m": 3, "entries": []},
    {"d": 6, "m": 3, "entries": [{"key": [0, 1, 2]}]},
    [{"key": [0, 1, 2], "re": 1.0}],
], ids=["no-d", "no-re", "list"])
def test_malformed_tensor_file_exits_1(tmp_path, capsys, doc):
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "2")
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", [{"re": "1.5"}, {"re": True}, {"re": 1.0, "im": [0.0]}],
                         ids=["numeric-string", "bool", "list"])
def test_non_number_tensor_value_exits_1(tmp_path, capsys, value):
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"d": 6, "m": 3, "entries": [{"key": [0, 1, 2], **value}]}))
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "1")
    assert code == 1
    assert err.startswith("error:") and "entry 0" in err
    assert len(err.strip().splitlines()) == 1


def test_model_file_missing_field_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"r": 2}))
    code, _, err = run(capsys, "sample", "--model", str(model), "--n", "10")
    assert code == 2
    assert err.startswith("error:") and "'weights'" in err
