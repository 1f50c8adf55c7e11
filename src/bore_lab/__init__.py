"""bore_lab: traveling-wave and evolution laboratory for dissipative bores.

Modules by task:
    waveform        exact algebra of the profile reduction
    traveling_wave  profile computation, shape reports, invariant checks
    pde             method-of-lines evolution, error studies, front tracking
    csvio           the one CSV reader, CSV writer and JSON writer
    config          config-file parsing and named presets
    cli             command-line entry points
"""

from .errors import ConfigError, IntegrationError, NumericsError, RootFindError
from .waveform import (
    ComplexConjugate,
    Equilibria,
    RealPair,
    Regime,
    RegimeKind,
    WaveParams,
    classify_regime,
    critical_epsilon,
    dissipated_energy,
    empirical_bore_amplitude,
    equilibria,
    froude_from_tail,
    lyapunov_value,
    potential,
    restoring_coefficient,
    saddle_eigenvalues,
    solitary_amplitude,
    speed_from_amplitude,
    speed_from_amplitude_series,
    surface_elevation,
    tail_eigenvalues,
)
from .traveling_wave import (
    BoundsCheck,
    PhasePoint,
    Profile,
    ProfileOptions,
    ShapeReport,
    SolverRecord,
    check_derivative_bounds,
    check_triangle_confinement,
    energy_identity_residual,
    integrate_profile,
    load_profile_csv,
    lyapunov_backstep,
    manifold_seed,
    shape_report,
    vector_field,
    write_profile_csv,
    write_shape_report_json,
)
from .pde import (
    BoundaryKind,
    ErrorFit,
    ErrorSeries,
    ErrorStudyResult,
    FieldPair,
    Gaussian,
    Grid,
    RunConfig,
    SmoothedRiemann,
    SystemKind,
    cfl_bound,
    discrete_mass,
    energy_functional,
    error_norm,
    error_study,
    evolve,
    first_difference,
    front_position,
    helmholtz_apply_inverse,
    sample_profile_on_grid,
    second_difference,
    semidiscrete_rhs_peregrine,
    shape_misfit,
    step,
    write_error_series_csv,
    write_snapshot_csv,
    write_snapshot_manifest,
)
from .config import load_config, parse_config_text, preset_pairs, write_config

__version__ = "0.1.0"
