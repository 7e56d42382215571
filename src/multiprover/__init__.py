"""Numerical toolkit for multi-prover proof verification at desk scale.

The package covers four connected capabilities:

* dense multipartite operator algebra (tensor, partial trace/transpose,
  norms, spectra);
* optimization of Hermitian forms over product states, with an
  independent sampled oracle;
* separable-cone certificates: PPT screening, entanglement witnesses,
  and perfect parallel-repetition reports built from matched
  primal/dual pairs;
* Monte Carlo simulation of a resource-bounded multi-prover protocol
  with exact fixed-point claim registers, plus classical state
  descriptions and preparation plans.
"""

from types import ModuleType as _ModuleType

from .linalg import (
    DIM_CAP,
    CapacityError,
    HermitianOperator,
    MultipartiteShape,
    PureState,
    basis_state,
    hs_inner,
    identity,
    operator_from_dict,
    operator_to_dict,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    spectral_norm,
    state_from_dict,
    state_to_dict,
    tensor,
    trace_norm,
)
from .optimize import (
    OptimizationResult,
    ProductState,
    brute_force_max,
    effective_operator,
    product_value,
    seesaw_max,
)
from .separable import (
    DualWitnessCandidate,
    PptReport,
    SeparableOperator,
    WitnessEvidence,
    densify,
    is_povm,
    ppt_check,
    separable_from_dict,
    separable_to_dict,
    witness_evidence,
)
from .repetition import (
    PartyCountError,
    RepetitionReport,
    pair_separable,
    verify_perfect_repetition,
    witness_summands,
)
from .bellqma import (
    BellProtocol,
    MerlinMessage,
    ProofModel,
    ProtocolParams,
    Stage2Acceptor,
    TableCapacityError,
    VerificationOutcome,
    alternating_message,
    arthur_verify,
    completeness_error_bound,
    derive_params,
    deviation_threshold,
    estimate_acceptance,
    fixed_point_distribution,
    honest_message,
    message_from_distributions,
    protocol_from_dict,
    protocol_to_dict,
    soundness_bound,
    stage1_distribution,
    step4_frequency_test,
    wilson_interval,
)
from .encoding import (
    ClassicalStateDescription,
    PreparationPlan,
    apply_plan,
    apply_plan_adjoint,
    decode_state,
    description_error_bound,
    description_from_hex,
    description_to_hex,
    encode_state,
    encoding_error,
    encoding_error_squared_exact,
    plan_from_dict,
    plan_to_dict,
    preparation_plan,
    simulate_mqa_protocol,
)
from .instances import (
    classical_correlated_accept,
    entangled_accept_as_single_party,
    entangled_accept_operator,
    symmetric_bell_state,
)
from .rand import (
    default_rng,
    haar_state,
    haar_vector,
    random_density,
    random_hermitian,
    random_povm,
    random_psd,
    random_separable_terms,
)

__version__ = "0.1.0"

# The names imported above; each ``from .x import`` also binds the
# submodule ``x`` here, and submodules are not exported.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
