"""Command-line driver: exit codes, file formats, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentmix.cli import build_parser, main
from momentmix.experiments import random_components
from momentmix.gmm import model_from_json
from momentmix.tensor_store import from_components, omega_keys, to_json
from momentmix.tensor_store import from_json as tensor_from_json
from oracles import decomposition_from_json as dec_from_json
from oracles import to_json_by_json


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


def test_maxrank_k_star_is_the_k_params_picks(capsys):
    # at d = m + 2 no k satisfies max_rank's inequality; the one k of the
    # range is reported, not p*
    code, out, _ = run(capsys, "maxrank", "--d", "5", "--m", "3")
    assert code == 0
    assert "r_max=1 p_star=1 k_star=2" in out
    code, out, _ = run(capsys, "params", "--d", "5", "--m", "3", "--r", "1")
    assert code == 0
    assert "p=1 k=2" in out


@pytest.mark.parametrize("d, m, guaranteed", [
    (10, 5, True), (9, 5, False), (6, 3, True), (5, 3, False),
])
def test_maxrank_guaranteed_at_threshold(capsys, d, m, guaranteed):
    code, out, _ = run(capsys, "maxrank", "--d", str(d), "--m", str(m))
    assert code == 0
    assert f"guaranteed={guaranteed}" in out


def test_params(capsys):
    code, out, _ = run(capsys, "params", "--d", "15", "--m", "3", "--r", "6")
    assert code == 0
    assert "p=1 k=6" in out


@pytest.mark.parametrize("m", [0, 1, 2])
def test_rank_helpers_reject_orders_below_3(capsys, m):
    for argv in (["maxrank", "--d", "10", "--m", str(m)],
                 ["params", "--d", "10", "--m", str(m), "--r", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert _error_lines(err) == [f"error: order m must be at least 3, got {m}"]
        assert "r_max" not in out and "p=" not in out


def test_approximate_noisy_empty_tensor_reports_the_missing_entry(tmp_path, capsys):
    tensor = tmp_path / "empty.json"
    tensor.write_text(json.dumps({"d": 6, "m": 3, "entries": []}))
    for noise in ([], ["--epsilon", "0.1"]):
        code, _, err = run(capsys, "approximate", "--tensor", str(tensor), "--r", "1", *noise)
        assert code == 3
        assert _error_lines(err) == ["error: tensor entry missing at key (0, 1, 3)"]
        assert "Traceback" not in err


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
    # a bad flag value is reported as such, not as a bad tensor file
    for epsilon in ("nan", "inf", "-inf", "-0.1"):
        code, _, err = run(capsys, "approximate", "--tensor", str(tensor),
                           "--r", "3", f"--epsilon={epsilon}")
        assert code == 2
        (line,) = _error_lines(err)
        assert f"epsilon must be finite and nonnegative, got {epsilon}" in line


def test_approximate_out_records_the_lm_stop(tmp_path, capsys):
    tensor, out_file = tmp_path / "t.json", tmp_path / "dec.json"
    run(capsys, "gen-tensor", "--d", "10", "--m", "3", "--r", "3",
        "--seed", "2", "--out", str(tensor))
    code, _, _ = run(capsys, "approximate", "--tensor", str(tensor), "--r", "3",
                     "--epsilon", "0.01", "--seed", "2", "--out", str(out_file))
    assert code == 0
    stop = json.loads(out_file.read_text())["diagnostics"]["lm_stop"]
    assert stop in {"gradient", "step", "floor", "no-descent", "iterations"}
    assert dec_from_json(out_file.read_text()).diagnostics["lm_stop"] == stop


def test_approximate_out_records_the_lm_counts(tmp_path, capsys):
    tensor, out_file = tmp_path / "t.json", tmp_path / "dec.json"
    run(capsys, "gen-tensor", "--d", "10", "--m", "3", "--r", "3",
        "--seed", "2", "--out", str(tensor))
    code, _, _ = run(capsys, "approximate", "--tensor", str(tensor), "--r", "3",
                     "--epsilon", "0.01", "--seed", "2", "--out", str(out_file))
    assert code == 0
    diagnostics = json.loads(out_file.read_text())["diagnostics"]
    assert diagnostics["lm_iterations"] >= 1 and diagnostics["lm_factorizations"] >= 0


def test_approximate_out_keeps_counts_integral(tmp_path, capsys):
    tensor, out_file = tmp_path / "t.json", tmp_path / "dec.json"
    run(capsys, "gen-tensor", "--d", "10", "--m", "3", "--r", "3",
        "--seed", "2", "--out", str(tensor))
    code, _, _ = run(capsys, "approximate", "--tensor", str(tensor), "--r", "3",
                     "--epsilon", "0.01", "--seed", "2", "--out", str(out_file))
    assert code == 0
    diagnostics = json.loads(out_file.read_text())["diagnostics"]
    for name in ("lm_iterations", "lm_factorizations", "lm_residual_calls", "gen_rank_min"):
        assert type(diagnostics[name]) is int, name
    for name in ("decomp_err", "gen_cond", "abs_err", "rel_err"):
        assert type(diagnostics[name]) is float, name


def test_learn_with_fewer_samples_than_moments_exits_1(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    np.savetxt(samples, np.random.default_rng(0).standard_normal((20, 6)), delimiter=",")
    code, _, err = run(capsys, "learn", "--samples", str(samples), "--r", "2", "--m", "3")
    assert code == 1
    (line,) = _error_lines(err)
    assert "20 samples for 50 order-3 moments" in line


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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_moments_rejects_non_finite_samples(tmp_path, capsys, bad):
    samples = tmp_path / "s.csv"
    samples.write_text(f"0,1,2,3\n4,{bad},6,7\n8,9,10,11\n")
    out_file = tmp_path / "m.json"
    code, _, err = run(capsys, "moments", "--samples", str(samples),
                       "--m", "3", "--out", str(out_file))
    assert code == 1
    assert "sample 1 is non-finite at coordinate 1" in err
    assert not out_file.exists()


def test_learn_rank_above_every_binomial_exits_2(tmp_path):
    # choose_t once looped forever here, so the CLI runs in a child process
    # that a timeout ends
    samples = tmp_path / "s.csv"
    np.savetxt(samples, np.random.default_rng(0).standard_normal((50, 3)), delimiter=",")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-m", "momentmix.cli", "learn", "--samples", str(samples),
         "--r", "5", "--m", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "rank 5 too large" in done.stderr


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


def test_gen_tensor_file_is_the_tensor_on_sorted_keys(tmp_path, capsys):
    # gen-tensor's keys come in lex order and are not sorted again; the
    # file is byte for byte the tensor that reversed keys sort into
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "7", "--m", "3", "--r", "2", "--seed", "6",
        "--out", str(tensor))
    T = from_components(random_components(7, 2, 6), 3, omega_keys(7, 3)[::-1])
    assert tensor.read_text() == to_json(T)
    # and the stdlib's compact dump of the same records
    assert tensor.read_text() == to_json_by_json(T)


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


@pytest.mark.parametrize("record", [
    '{"key": [0, 1, 2], "re": 1' + "0" * 400 + '}',
    f'{{"key": [0, 1, {2**64 - 1}], "re": 1.0}}',
], ids=["value-past-double", "slot-past-int64"])
def test_out_of_range_tensor_number_exits_1(tmp_path, capsys, record):
    tensor = tmp_path / "t.json"
    tensor.write_text('{"d": 6, "m": 3, "entries": [' + record + ']}')
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "1")
    assert code == 1
    assert err.startswith("error:") and "entry 0" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["decompose", "approximate"])
@pytest.mark.parametrize("flag", ["--p", "--k"])
def test_p_or_k_alone_exits_2(tmp_path, capsys, command, flag):
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "9", "--m", "4", "--r", "3", "--out", str(tensor))
    code, _, err = run(capsys, command, "--tensor", str(tensor), "--r", "3", flag, "2")
    assert code == 2
    (line,) = _error_lines(err)
    assert line == "error: --p and --k must be given together"


def _labeled_samples(tmp_path, capsys, d, labels):
    """A gen-gmm model at d=d, r=2, and three of its samples with ``labels``."""
    model, samples, labels_file = (tmp_path / n for n in ("model.json", "s.csv", "l.csv"))
    run(capsys, "gen-gmm", "--d", str(d), "--r", "2", "--out", str(model))
    run(capsys, "sample", "--model", str(model), "--n", "3", "--out", str(samples))
    labels_file.write_text("\n".join(map(str, labels)) + "\n")
    return model, samples, labels_file


def test_evaluate_negative_label_exits_1(tmp_path, capsys):
    model, samples, labels = _labeled_samples(tmp_path, capsys, 4, [0, -1, 1])
    code, _, err = run(capsys, "evaluate", "--model", str(model),
                       "--samples", str(samples), "--labels", str(labels))
    assert code == 1
    (line,) = _error_lines(err)
    assert "true label -1 at position 1 is not a nonnegative integer" in line


def test_evaluate_model_of_another_dimension_exits_1(tmp_path, capsys):
    _, samples, labels = _labeled_samples(tmp_path, capsys, 6, [0, 1, 1])
    model = tmp_path / "model4.json"
    run(capsys, "gen-gmm", "--d", "4", "--r", "2", "--out", str(model))
    code, _, err = run(capsys, "evaluate", "--model", str(model),
                       "--samples", str(samples), "--labels", str(labels))
    assert code == 1
    (line,) = _error_lines(err)
    assert "samples have dimension 6, the model 4" in line


def test_evaluate_model_with_misshapen_means_exits_2(tmp_path, capsys):
    model, samples, labels = _labeled_samples(tmp_path, capsys, 4, [0, 1, 1])
    doc = json.loads(model.read_text())
    doc["means"].append(doc["means"][0])  # three mean rows for two weights
    model.write_text(json.dumps(doc))
    code, _, err = run(capsys, "evaluate", "--model", str(model),
                       "--samples", str(samples), "--labels", str(labels))
    assert code == 2
    (line,) = _error_lines(err)
    assert line.startswith("error: means must have shape (r, d) = (2, 4), not (3, 4)")


def test_model_file_missing_field_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"r": 2}))
    code, _, err = run(capsys, "sample", "--model", str(model), "--n", "10")
    assert code == 2
    assert err.startswith("error:") and "'weights'" in err


@pytest.mark.parametrize("key", [[0, 1, 2.7], [False, True, 3]], ids=["fraction", "bools"])
def test_non_integer_key_slot_exits_1(tmp_path, capsys, key):
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"d": 6, "m": 3, "entries": [{"key": key, "re": 1.0}]}))
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "1")
    assert code == 1
    assert err.startswith("error:") and "integers" in err
    assert len(err.strip().splitlines()) == 1


def test_decompose_without_free_head_monomial_exits_1(tmp_path, capsys):
    # with k = p = 1 every head monomial holds label 1
    tensor = tmp_path / "t.json"
    run(capsys, "gen-tensor", "--d", "6", "--m", "3", "--r", "1", "--out", str(tensor))
    code, _, err = run(capsys, "decompose", "--tensor", str(tensor), "--r", "1",
                       "--p", "1", "--k", "1")
    assert code == 1
    assert err.startswith("error:") and "no head monomials avoid label 1" in err


# The flags each command reads; a change to a command's flags updates this.
COMMAND_OPTIONS = {
    "maxrank": {"--d", "--m"},
    "params": {"--d", "--m", "--r"},
    "gen-tensor": {"--d", "--m", "--r", "--components-out", "--seed", "--out"},
    "decompose": {"--tensor", "--r", "--p", "--k", "--seed", "--out"},
    "approximate": {"--tensor", "--r", "--p", "--k", "--epsilon", "--seed", "--out"},
    "gen-gmm": {"--d", "--r", "--seed", "--out"},
    "sample": {"--model", "--n", "--labels-out", "--seed", "--out"},
    "moments": {"--samples", "--m", "--with-pairs", "--out"},
    "learn": {"--samples", "--labels", "--r", "--m", "--seed", "--out"},
    "em": {"--samples", "--labels", "--r", "--max-iters", "--reg-value",
           "--seed", "--out"},
    "evaluate": {"--model", "--samples", "--labels"},
    "experiment table2": {"--d", "--orders", "--trials", "--seed", "--out",
                          "--format"},
    "experiment table3": {"--d", "--orders", "--epsilons", "--trials", "--seed",
                          "--out", "--format"},
    "experiment table4": {"--d", "--m", "--r", "--n-samples", "--trials",
                          "--seed", "--out", "--format"},
}


def _command_options(parser, prefix=""):
    """{command path: option strings} over the leaf subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix: {
            s for a in parser._actions for s in a.option_strings
            if s not in ("-h", "--help")
        }}
    found = {}
    for name, sub in subs[0].choices.items():
        found.update(_command_options(sub, f"{prefix} {name}".strip()))
    return found


def test_parser_options_match_table():
    found = _command_options(build_parser())
    assert found == COMMAND_OPTIONS
    assert sum(len(v) for k, v in found.items() if " " not in k) == 53


@pytest.mark.parametrize("argv", [
    ["maxrank", "--d", "15", "--m", "3", "--format", "json"],
    ["params", "--d", "15", "--m", "3", "--r", "6", "--seed", "1"],
    ["evaluate", "--model", "m.json", "--samples", "s.csv", "--labels", "l.csv",
     "--out", "x"],
    ["moments", "--samples", "s.csv", "--m", "3", "--seed", "1"],
    ["experiment", "table2", "--epsilons", "0.1"],
    ["experiment", "table3", "--n-samples", "10"],
    ["experiment", "table4", "--orders", "3"],
], ids=["maxrank-format", "params-seed", "evaluate-out", "moments-seed",
        "table2-epsilons", "table3-n-samples", "table4-orders"])
def test_unread_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_em_max_iters_zero_exits_2(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    np.savetxt(samples, np.random.default_rng(0).standard_normal((50, 3)),
               delimiter=",")
    code, _, err = run(capsys, "em", "--samples", str(samples), "--r", "2",
                       "--max-iters", "0")
    assert code == 2
    assert len(_error_lines(err)) == 1
    assert "max_iters" in err
    assert "Traceback" not in err


def test_maxrank_infeasible_says_why(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maxrank", "--d", "3", "--m", "5"])
    assert exc.value.code == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert "--d 3" in line and "--m 5" in line and "--d >= --m" in line


@pytest.mark.parametrize("argv, flag, bound", [
    (["table2", "--d", "8", "--orders", "3", "--trials", "-2"], "--trials -2", ">= 0"),
    (["table3", "--d", "8", "--orders", "3", "--trials", "-1"], "--trials -1", ">= 0"),
    (["table4", "--d", "8", "--trials", "-1"], "--trials -1", ">= 0"),
    (["table2", "--d", "4", "--orders", "5"], "--orders 5", "d-1 = 3"),
    (["table3", "--d", "8", "--orders", "3,2"], "--orders 2", "between 3 and d-1 = 7"),
    (["table3", "--d", "8", "--orders", "3", "--epsilons", "nan"], "epsilon", "got nan"),
    (["table3", "--d", "8", "--orders", "3", "--epsilons", "0.1,inf"], "epsilon",
     "finite and nonnegative, got inf"),
], ids=["table2-trials", "table3-trials", "table4-trials", "table2-order-above",
        "table3-order-below", "table3-epsilon-nan", "table3-epsilon-inf"])
def test_experiment_grid_flag_out_of_range_exits_2(capsys, argv, flag, bound):
    code, out, err = run(capsys, "experiment", *argv, "--format", "csv")
    assert code == 2
    (line,) = _error_lines(err)
    assert flag in line and bound in line
    # nothing ran: no table row was printed
    assert out.splitlines()[-1].startswith("config:")


@pytest.mark.parametrize("d, m", [(3, 3), (4, 3), (5, 5)])
def test_maxrank_agrees_with_params_at_small_d(capsys, d, m):
    code, out, _ = run(capsys, "maxrank", "--d", str(d), "--m", str(m))
    assert code == 0
    assert "r_max=0" in out
    code, _, err = run(capsys, "params", "--d", str(d), "--m", str(m), "--r", "1")
    assert code == 2
    (line,) = _error_lines(err)
    assert "maximum feasible rank is 0" in line


@pytest.mark.parametrize("argv, order", [
    (["table2", "--d", "4", "--orders", "3"], 3),
    (["table3", "--d", "5", "--orders", "3,4"], 4),
    (["table4", "--d", "4", "--m", "3"], 3),
], ids=["table2", "table3", "table4"])
def test_experiment_without_feasible_rank_exits_2(capsys, argv, order):
    code, out, err = run(capsys, "experiment", *argv, "--trials", "1",
                         "--format", "csv")
    assert code == 2
    (line,) = _error_lines(err)
    assert f"order {order} has no feasible rank at --d" in line
    assert out.splitlines()[-1].startswith("config:")


@pytest.mark.parametrize("argv, name", [
    (["gen-gmm", "--d", "3", "--r", "0"], "r"),
    (["gen-gmm", "--d", "0", "--r", "2"], "d"),
    (["sample", "--n", "-1"], "N"),
], ids=["gen-gmm-r", "gen-gmm-d", "sample-n"])
def test_bad_model_or_sample_size_exits_2(tmp_path, capsys, argv, name):
    model = tmp_path / "model.json"
    run(capsys, "gen-gmm", "--d", "3", "--r", "2", "--out", str(model))
    if argv[0] == "sample":
        argv = argv + ["--model", str(model)]
    out_file = tmp_path / "out.txt"
    code, _, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 2
    (line,) = _error_lines(err)
    assert line.startswith(f"error: {name} must be")
    assert not out_file.exists()
