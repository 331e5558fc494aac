"""The benchmark's span tracer (``bench/spans.py``) still finds every
function it wraps, puts each one back, and sees each exact stage that
``decompose`` calls, the scale stage included, and each mixture stage
that ``learn`` calls."""

import importlib
import importlib.util
from pathlib import Path

from momentmix import decomposition, gmm
from momentmix.decomposition import approximate, choose_params
from momentmix.experiments import random_components
from momentmix.tensor_store import (
    IncompleteSymmetricTensor,
    from_components,
    omega_keys,
    perturb,
)
from oracles import basis_B1

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_approximate_and_uninstalls():
    spans = load_bench("spans")
    targets = [(importlib.import_module(mod), attr) for mod, attr, _ in spans.SPANS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    getitem = IncompleteSymmetricTensor.__getitem__
    d, m, r = 9, 4, 3
    T = from_components(random_components(d, r, 3), m, omega_keys(d, m))
    params = choose_params(d - 1, m, r, seed=3)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises AttributeError when a wrapped name is gone
        dec = approximate(perturb(T, 1e-3, 3), params)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    assert IncompleteSymmetricTensor.__getitem__ is getitem
    assert dec.components.shape == (r, d)
    assert tracer.counts["generating.columns"] == len(basis_B1(params.k, params.p, d - 1))
    assert tracer.counts["numerics.nlls_residual_calls"] >= 1
    names = {span[0] for span in tracer.spans}
    assert {"decomposition.decompose", "numerics.nlls_refine", "numerics.eig"} <= names
    # the xi candidates are screened by their eigenvalues alone: one full
    # eigendecomposition per decompose
    span_names = [span[0] for span in tracer.spans]
    assert span_names.count("numerics.eig") == span_names.count("decomposition.decompose") == 1


def test_traced_decompose_records_one_scale_span():
    spans = load_bench("spans")
    d, m, r = 9, 4, 3
    T = from_components(random_components(d, r, 4), m, omega_keys(d, m))
    tracer = spans.Tracer()
    try:
        tracer.install()
        # looked up on the module, as the benchmark calls it
        decomposition.decompose(T, choose_params(d - 1, m, r, seed=4))
    finally:
        tracer.uninstall()
    span_names = [span[0] for span in tracer.spans]
    assert span_names.count("decomposition.decompose") == 1
    assert span_names.count("decomposition.solve_scales") == 1


def test_traced_learn_records_each_mixture_stage_and_its_moments():
    spans, checks = load_bench("spans"), load_bench("checks")
    d, r, m = 6, 2, 3
    samples = gmm.sample_gmm(gmm.random_model(d, r, seed=1), 5_000, seed=1)
    tracer = spans.Tracer()
    try:
        tracer.install()
        # looked up on the module, as the benchmark calls it
        learned = gmm.learn(samples, r, m, seed=1)
    finally:
        tracer.uninstall()
    captured = tracer.take_captured()
    assert [moments.order for _, moments in captured] == [m, gmm.choose_t(d, r)]
    for sample_set, moments in captured:
        assert checks.moment_problems(sample_set.data, moments) == []
    # the 50 learning keys of order 3 and the 6 of order t = 1
    assert tracer.counts["gmm.moment_keys"] == 56
    span_names = [span[0] for span in tracer.spans]
    for name in ("gmm.recover_weights", "gmm.refine_params", "gmm.recover_covariances"):
        assert span_names.count(name) == 1
    # the refinement's own count against the tracer's wrapped residual
    assert (tracer.counts["numerics.nlls_residual_calls"]
            == learned.meta["decomp"]["lm_residual_calls"])
