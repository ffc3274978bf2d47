"""Nonlinear Faraday rotation in cold rubidium: simulation and analysis.

The package is organized in layers.  `atom` and `geometry` hold the static
ingredients (level structure, dipole couplings, beam and cloud shapes),
`dynamics` integrates the driven master equation and converts trajectories
into polarimeter signals, `experiment` wraps the signals in a synthetic
measurement chain with shot and electronic noise, and `analysis` turns
measurement records into coefficients, scaling exponents, and sensitivity
crossovers.  `cli` exposes the reproduction pipelines as subcommands.
"""

__version__ = "0.1.0"

from .exceptions import (
    NlfaradayError,
    InvalidConfig,
    DataIntegrityError,
    IntegrationError,
    StepFailure,
    PositivityViolation,
    QuadratureNotConverged,
    NonConvergence,
    FitError,
    DegenerateDesign,
    IllConditioned,
    NegativeVariance,
    InsufficientPoints,
    NoCrossover,
)
from .atom import (
    LineData,
    load_line_data,
    LevelScheme,
    build_level_scheme,
    OperatorSet,
    build_dipole_operators,
    jump_operators,
    ground_projector,
    excited_projector,
    initial_state,
    mixed_ground_state,
    EffectiveCoefficients,
    perturbative_path_weights,
    pt_rotation_weight,
    vector_crossing_detuning,
)
from .geometry import (
    PulseSpec,
    BeamGeometry,
    CloudGeometry,
    QuadratureGrid,
    cloud_quadrature,
    peak_intensity,
)
from .dynamics import (
    drive_scale,
    Trajectory,
    integrate_node,
    StokesResult,
    detected_stokes,
    pt_linear_coefficient,
    extract_effective_coefficients,
    locate_crossing,
    integrate_two_level,
    damped_rabi_reference,
)
from .experiment import (
    PolarimeterModel,
    CampaignResult,
    generate_correlation_campaign,
    polarimeter_noise_scan,
    waveplate_control_run,
    write_campaign_csv,
    read_campaign_csv,
)
from .analysis import (
    RegressionResult,
    linear_regression,
    ResponseModel,
    ScalingCurve,
    ExponentFit,
    scaling_exponent,
    fit_saturation,
    VarianceDecomposition,
    fit_variance_model,
    sensitivity_curve,
    subtract_electronic_noise,
    time_normalized_prefactor,
    CrossoverResult,
    crossover,
    crossover_numeric,
    write_fit_report,
)
from .config import (
    parse_config_text,
    load_config,
    format_config,
    write_manifest,
    write_table,
)

__all__ = [
    "__version__",
    # exceptions
    "NlfaradayError", "InvalidConfig", "DataIntegrityError",
    "IntegrationError", "StepFailure", "PositivityViolation",
    "QuadratureNotConverged", "NonConvergence", "FitError",
    "DegenerateDesign", "IllConditioned",
    "NegativeVariance", "InsufficientPoints", "NoCrossover",
    # atom
    "LineData", "load_line_data", "LevelScheme", "build_level_scheme",
    "OperatorSet", "build_dipole_operators", "jump_operators",
    "ground_projector", "excited_projector",
    "initial_state", "mixed_ground_state", "EffectiveCoefficients",
    "perturbative_path_weights", "pt_rotation_weight",
    "vector_crossing_detuning",
    # geometry
    "PulseSpec", "BeamGeometry", "CloudGeometry", "QuadratureGrid",
    "cloud_quadrature", "peak_intensity",
    # dynamics
    "drive_scale", "Trajectory", "integrate_node", "StokesResult",
    "detected_stokes", "pt_linear_coefficient",
    "extract_effective_coefficients", "locate_crossing",
    "integrate_two_level", "damped_rabi_reference",
    # experiment
    "PolarimeterModel", "CampaignResult",
    "generate_correlation_campaign", "polarimeter_noise_scan",
    "waveplate_control_run", "write_campaign_csv", "read_campaign_csv",
    # analysis
    "RegressionResult", "linear_regression", "ResponseModel",
    "ScalingCurve", "ExponentFit", "scaling_exponent", "fit_saturation",
    "VarianceDecomposition", "fit_variance_model", "sensitivity_curve",
    "subtract_electronic_noise", "time_normalized_prefactor",
    "CrossoverResult", "crossover", "crossover_numeric",
    "write_fit_report",
    # config
    "parse_config_text", "load_config", "format_config", "write_manifest",
    "write_table",
]
