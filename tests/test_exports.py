import inspect
from types import ModuleType

import multiprover

REMOVED = (
    "ConvergenceError",
    "DualSolution",
    "EigenDecomposition",
    "ExplicitProofModel",
    "IidProofModel",
    "RepetitionInstance",
    "dual_from_primal",
    "effective_single_copy_state",
    "eigh",
    "operator_from_json",
    "operator_to_json",
    "pair_instance",
    "random_product_locals",
    "repetition_witness",
    "sample_outcome_counts",
    "separable_from_json",
    "separable_to_json",
    "witness_min_product",
)

# (public function or class, keyword): tuning values that every caller left
# at their defaults, now module constants (DIM_CAP, the tolerances, the
# seesaw, screening and refinement counts).
REMOVED_KEYWORDS = (
    ("HermitianOperator", "tol"),
    ("PureState", "tol"),
    ("apply_plan", "start"),
    ("brute_force_max", "chunk"),
    ("brute_force_max", "refine"),
    ("densify", "max_dim"),
    ("is_povm", "psd_tol"),
    ("is_povm", "sum_tol"),
    ("operator_from_dict", "tol"),
    ("ppt_check", "tol"),
    ("random_density", "rank"),
    ("random_hermitian", "scale"),
    ("random_psd", "rank"),
    ("seesaw_max", "improve_tol"),
    ("seesaw_max", "polish"),
    ("seesaw_max", "sweep_cap"),
    ("simulate_mqa_protocol", "max_dim"),
    ("tensor", "max_dim"),
    ("verify_perfect_repetition", "max_dim"),
    ("verify_perfect_repetition", "restarts"),
    ("verify_perfect_repetition", "samples"),
    ("witness_evidence", "chunk"),
    ("witness_evidence", "refine"),
    ("witness_summands", "max_dim"),
)


def test_all_names_resolve_to_objects_not_modules():
    assert len(set(multiprover.__all__)) == len(multiprover.__all__)
    for name in multiprover.__all__:
        assert not isinstance(getattr(multiprover, name), ModuleType), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in multiprover.__all__
        assert not hasattr(multiprover, name)


def test_removed_keywords_are_gone():
    for name, keyword in REMOVED_KEYWORDS:
        assert name in multiprover.__all__
        params = inspect.signature(getattr(multiprover, name)).parameters
        assert keyword not in params, (name, keyword)
