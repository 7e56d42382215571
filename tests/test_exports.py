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


def test_all_names_resolve_to_objects_not_modules():
    assert len(set(multiprover.__all__)) == len(multiprover.__all__)
    for name in multiprover.__all__:
        assert not isinstance(getattr(multiprover, name), ModuleType), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in multiprover.__all__
        assert not hasattr(multiprover, name)
