"""Strong-coupling thermodynamics of a damped quantum oscillator.

Equilibrium Gaussian-state moments by two independent continuum routes, an
exact discrete-bath oracle, entropy/heat bookkeeping along quasistatic
parameter paths (including the apparent Clausius violation and its two-step
resolution), and ensemble information bounds (Holevo, Landauer erasure
budget).
"""

from .errors import NumericalFailure
from .gaussian import (
    Constants,
    Moments,
    OscillatorParams,
    entropy,
    mean_energy,
    symplectic_param,
    thermal_moments_decoupled,
)
from .bath import (
    BathSpec,
    coupling_free_energy,
    moments_matsubara,
    moments_spectral,
)
from .oracle import (
    ConvergenceRow,
    DiscreteBath,
    convergence_report,
    default_omega_max,
    reduced_moments_exact,
    sample_bath,
    spectral_density,
)
from .process import (
    EntropyChange,
    HeatResult,
    ProcessPath,
    ThermoReport,
    clausius_check,
    composed_process,
    coupling_process,
    entropy_change,
    heat,
    landauer_bound,
    mass_process,
)
from .info import (
    DensityMatrix,
    Ensemble,
    ErasureBudget,
    Povm,
    accessible_info_lower,
    average_state,
    erasure_budget,
    holevo_chi,
    mutual_information,
    vn_entropy,
)

__all__ = [
    "BathSpec",
    "Constants",
    "ConvergenceRow",
    "DensityMatrix",
    "DiscreteBath",
    "Ensemble",
    "EntropyChange",
    "ErasureBudget",
    "HeatResult",
    "Moments",
    "NumericalFailure",
    "OscillatorParams",
    "Povm",
    "ProcessPath",
    "ThermoReport",
    "accessible_info_lower",
    "average_state",
    "clausius_check",
    "composed_process",
    "convergence_report",
    "coupling_free_energy",
    "coupling_process",
    "default_omega_max",
    "entropy",
    "entropy_change",
    "erasure_budget",
    "heat",
    "holevo_chi",
    "landauer_bound",
    "mass_process",
    "mean_energy",
    "moments_matsubara",
    "moments_spectral",
    "mutual_information",
    "reduced_moments_exact",
    "sample_bath",
    "spectral_density",
    "symplectic_param",
    "thermal_moments_decoupled",
    "vn_entropy",
]

__version__ = "0.1.0"
