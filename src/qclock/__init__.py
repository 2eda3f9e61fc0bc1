"""Finite-dimensional quantum-clock analysis toolkit.

Computes Fisher timing information of clock states, decides disturbance-free
distinguishability, validates and constructs covariant channels, and
numerically probes the quantum bounds on copying clock signals.
"""

from .bounds import (
    CopyBoundReport,
    MonotonicityReport,
    SweepResult,
    UncertaintyReport,
    copy_bound_check,
    monotonicity_check,
    sweep,
    time_uncertainty_check,
    total_hamiltonian,
)
from .channels import (
    CovarianceReport,
    CptpReport,
    QuantumChannel,
    apply_channel,
    apply_to_matrix,
    channel_from_kraus,
    covariant_twirl,
    identity_channel,
    is_covariant,
    kraus_operators,
    partial_trace,
    random_channel,
    validate_cptp,
)
from .distinguish import (
    BlockTraceReport,
    DecompositionReport,
    common_invariant_decomposition,
    conserved_block_traces,
    max_commutator,
    nondisturbing_distinguishable,
    orthogonal_times,
    pairwise_commuting,
)
from .errors import (
    ClockError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NumericalDegeneracyError,
    PreconditionError,
    SupportError,
    ValidationError,
)
from .fisher import (
    ClassicalSignalFamily,
    SldResult,
    classical_fisher,
    gaussian_delay_family,
    moving_gaussian_family,
    qfi,
    rho_dot,
    time_uncertainty,
)
from .states import (
    ClockSystem,
    DensityMatrix,
    EnergyMoments,
    Hamiltonian,
    energy_moments,
    equal_superposition_clock,
    evolve,
    gaussian_energy_pure_state,
    ladder_hamiltonian,
    random_density,
    random_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
