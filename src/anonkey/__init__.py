"""Anonymous-key quantum cryptography: simulation and security analysis.

The carrier of a secret here is a quantum state the encrypting party does
not know: keys are distributed by modulating unknown ring states and
returning them in secret orders, identity is proven by unwinding a stored
unknown phase, and every interception strategy is scored by whether the
re-prepared estimate survives verification.
"""

from .states import (
    ATOL,
    DensityOperator,
    Ensemble,
    bloch_to_density,
    circle_state,
    circle_state_at,
    ensemble_mixture,
    overlap,
    rotate_circle,
    six_state_ensemble,
    sphere_grid_ensemble,
    tensor,
    uniform_circle_ensemble,
)
from .detection import (
    DetectionReport,
    Povm,
    acceptance_probability,
    certify_optimality,
    correct_id_probability,
    evaluate_detection,
    helstrom_binary,
    random_basis_strategy,
    square_root_measurement,
    uniform_guess_povm,
)
from .coding import cecc_decode, cecc_encode, privacy_amplify
from .protocol import (
    ChannelModel,
    SessionConfig,
    SessionTranscript,
    run_ake_session,
    run_ake_sessions,
)
from .adversary import (
    binary_entropy,
    impersonation_order_pmf,
    joint_attack_factorization_check,
    opaque_bound,
    sequential_strategy_pc,
    translucent_accounting,
    two_copy_states,
)
from .aki import (
    SecretCirclePhase,
    aki_challenge,
    aki_impersonation,
    aki_verify,
    run_honest_aki_round,
)
from .coherent import (
    PhaseDistribution,
    canonical_phase_pa,
    coherent_overlap_mag,
    exact_pa,
    heterodyne_pa,
    heterodyne_resend_pa,
)
from .harness import ResultTable, derive_seeds

__version__ = "0.1.0"
