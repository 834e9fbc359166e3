"""fcslab: energy full counting statistics on confined system+reservoir
models, computed both through the two-time measurement protocol and through
the relative modular operator, with a numerical verification suite for the
operator-algebraic identities connecting them."""

from .dynamics import (
    QuadratureError,
    Scenario,
    balance_check,
    delta_q_direct,
    delta_q_flux,
    dyson_cocycle,
    dyson_error_bound,
    exact_cocycle,
)
from .fcs import (
    FcsAtTime,
    FcsResult,
    SweepResult,
    default_gamma_grid,
    derivative_moments,
    fcs_at,
    half_line_identity_check,
    limit_sweep,
    mean_identity_check,
    operator_balance_check,
    reservoir_char,
    reservoir_fcs,
    strip_bounds_check,
    system_char_limit,
    system_fcs,
)
from .linalg import (
    NonHermitianError,
    NotPositiveError,
    NumericalError,
    RankDeficientError,
    SpectralDecomposition,
    SpectrumDomainError,
    eig_hermitian,
    expm_hermitian,
    positive_sqrt,
    tensor,
)
from .modular import (
    Liouvilleans,
    MixingReport,
    ModularStructure,
    RelativeModular,
    cone_membership,
    equilibrium_vector,
    initial_vector,
    mixing_diagnostic,
    modular_pair,
    perturbed_gibbs_vector,
    relative_modular,
    reservoir_weight_vector,
)
from .scenarios import (
    ConfigError,
    RunConfig,
    build_chain_reservoir,
    chain_scenario,
    config_to_scenario,
    parse_config,
    random_scenario,
    scenario_to_config,
)
from .states import (
    AtomicMeasure,
    MeasurementResult,
    VariationalReport,
    entropy,
    gibbs,
    gibbs_variational_check,
    kms_defect,
    measure,
)

__version__ = "0.1.0"
