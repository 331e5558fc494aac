"""Inventory of the library's settable values: every defaulted parameter of
a public function or method and every dataclass field.  Adding or removing
one means updating this table."""

import dataclasses
import importlib
import inspect

MODULES = ("numerics", "gmm", "decomposition", "tensor_store", "generating")

# {"module.name": settable names}: a function's or method's defaulted
# parameters, a dataclass's fields.  Entries with none are left out.
KNOBS = {
    "numerics.LstsqReport": ("solution", "residual_norm", "rank", "cond", "ill_conditioned"),
    "numerics.nlls_refine": ("max_iters", "normal_equations"),
    "numerics.simplex_nlls": ("normal_equations",),
    "gmm.GmmModel": ("weights", "means", "variances", "meta"),
    "gmm.SampleSet": ("data", "labels"),
    "gmm.MomentSet": ("order", "values"),
    "gmm.learn_from_moments": ("seed",),
    "gmm.learn": ("seed",),
    "gmm.em_baseline": ("max_iters", "reg_value", "seed"),
    "decomposition.DecompositionParams": ("r", "p", "k", "seed"),
    "decomposition.choose_params": ("seed",),
    "decomposition.Decomposition": ("components", "diagnostics"),
    "decomposition.approximate": ("truth",),
    "tensor_store.block_matrix": ("pad_with_zero_label",),
    "generating.GeneratingMatrix": ("values", "residuals", "ranks", "conds"),
}


def _defaulted(fn):
    return tuple(
        p.name for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    )


def _knobs():
    """KNOBS as found in the modules: their own public functions, public
    classes' public methods and ``__init__``, and dataclass fields."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"momentmix.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{name}.{attr}"] = _defaulted(obj)
            elif dataclasses.is_dataclass(obj):
                found[f"{name}.{attr}"] = tuple(f.name for f in dataclasses.fields(obj))
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (
                            method == "__init__" or not method.startswith("_")):
                        found[f"{name}.{attr}.{method}"] = _defaulted(fn)
    return {k: v for k, v in found.items() if v}


def test_knobs_match_table():
    assert _knobs() == KNOBS
    assert sum(map(len, KNOBS.values())) == 34
