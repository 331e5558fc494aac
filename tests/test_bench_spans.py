"""The benchmark's span tracer (``bench/spans.py``) still finds every
function it wraps, and puts each one back."""

import importlib
import importlib.util
from pathlib import Path

from momentmix.decomposition import approximate, choose_params
from momentmix.experiments import random_components
from momentmix.tensor_store import (
    IncompleteSymmetricTensor,
    from_components,
    omega_keys,
    perturb,
)
from oracles import basis_B1

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_approximate_and_uninstalls():
    spans = load_spans()
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
