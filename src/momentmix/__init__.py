"""Incomplete symmetric tensor decomposition via generating polynomials,
and diagonal Gaussian mixture learning from sample moments."""

from .combinatorics import binomial, subsets_lex
from .decomposition import (
    Decomposition,
    DecompositionParams,
    approximate,
    brute_force_max_rank,
    choose_params,
    component_error,
    decompose,
    max_rank,
)
from .gmm import (
    GmmModel,
    MomentSet,
    SampleSet,
    accuracy,
    classify,
    em_baseline,
    exact_moments,
    learn,
    learn_from_moments,
    sample_gmm,
    sample_moments,
)
from .tensor_store import (
    ComponentList,
    IncompleteSymmetricTensor,
    from_components,
    omega_keys,
    omega_norm,
    perturb,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
