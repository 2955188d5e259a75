"""Continuous weak-measurement tomography of a kicked-top spin system,
with operator-echo, relative-entropy, and error-scrambling diagnostics."""

__version__ = "0.1.0"

from .series import MetricSeries
from .spin_algebra import (
    SpinParams,
    angular_momentum_ops,
    frobenius_distance_to_identity,
    from_bloch,
    haar_random_state,
    haar_random_unitary,
    hermitian_basis,
    pure_state_density,
    spectral_function,
    to_bloch,
    unitary_fractional_power,
)
from .kicked_top import (
    FloquetPair,
    KickedTopParams,
    error_unitary,
    floquet_map,
    floquet_pair,
    initial_observable,
    operator_trajectory,
)
from .tomography import (
    CovarianceMatrix,
    MeasurementRecord,
    ProjectionConvergenceError,
    TomographyEstimate,
    covariance,
    design_matrix,
    fidelity,
    fidelity_matrix,
    ml_estimate,
    psd_project,
    reconstruct,
    simulate_record,
)
from .chaos_metrics import (
    incompatibility_otoc_form,
    loschmidt_echo,
    operator_incompatibility,
    operator_series,
    regularize,
    relative_entropy,
    relative_entropy_series,
)
from .bloch_analysis import (
    OrderedMeasurementPlan,
    ideal_fidelity_curve,
    measurement_plan,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    parse_config,
    read_series,
    run,
    write_series,
)
