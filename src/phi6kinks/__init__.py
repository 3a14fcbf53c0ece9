"""Kink-kink dynamics in the (1+1)d phi^6 nonlinear wave equation."""

from .effective import (
    EffectiveParams,
    ReducedTrajectory,
    centers_d1_d2,
    conserved_quantity,
    integrate_reduced,
    params_from_initial,
    separation_d,
)
from .functionals import (
    EnergyBreakdown,
    RemainderNorms,
    energy_breakdown,
    integrate,
    interaction_energy_A,
    interaction_energy_A_double_prime,
    interaction_energy_A_prime,
    lyapunov_F,
    potential_energy_samples,
    reference_kink_energy,
    remainder_norms,
)
from .model import (
    antikink_derivative,
    antikink_value,
    eval_potential,
    eval_potential_derivative,
    kink_derivative,
    kink_value,
)
from .modulation import (
    ModulationError,
    ModulationFrame,
    decompose,
    track,
)
from .pde import FieldState, SolverConfig, init_two_kink_state, run, step
from .reporting import ComparisonReport, FrameRow, emit_csv, load_report
from .scenarios import (
    GaussianPerturbation,
    GridSpec,
    KinkArrangement,
    LyapunovDiagnostics,
    ProbeRecord,
    ScenarioConfig,
    StabilityVerdict,
    TrackingVerdict,
    default_suite,
    lyapunov_diagnostics,
    optimality_probe,
    run_scenario,
    verify_orbital_stability,
    verify_remainder_growth,
    verify_tracking,
)

__all__ = [name for name in dir() if not name.startswith("_")]
