"""Matter/antimatter decomposition of relativistic wavefunctions.

A first-order two-component rewrite of the Klein-Gordon and Dirac problems
splits any state into a matter channel theta and an antimatter channel chi.
The package computes the relative antimatter content R = int |chi|^2 / int
|theta|^2 for free boosted wave packets and hydrogenlike 1S bound states,
evolves the coupled channel system in time, and emits the reference figure
datasets through the antimix command-line tool.
"""

__version__ = "0.1.0"

from .coulomb import (
    BoundScan,
    bound_scan,
    classify_state,
    dirac_1s_energy,
    dirac_1s_ratio_closed,
    dirac_1s_ratio_quadrature,
    kg_1s_energy,
    kg_1s_ratio_closed,
    kg_1s_ratio_quadrature,
)
from .diracfree import dirac_component_amplitudes, dirac_free_ratio
from .errors import (
    BoundaryLeakageError,
    ConvergenceError,
    DomainError,
    TailLeakageError,
)
from .evolve import (
    ContinuityReport,
    EvolutionState,
    ResidualNorms,
    charge,
    continuity_check,
    coupled_residual,
    coupled_rhs,
    current_density,
    inversion_residual,
    inversion_transform,
    odd_gaussian_potential,
    run,
    softened_coulomb,
    stability_limit,
    step,
)
from .kgfree import kg_component_amplitudes, kg_free_ratio
from .packets import (
    ComponentField,
    PacketReport,
    PacketSpec,
    boost_amplitude,
    full_width_half_max,
    gaussian_rest_amplitude,
    packet_report,
    synthesize_packet,
)
from .quad import Grid1D, SpectralCoefficients, integrate_grid, integrate_radial, synthesize
from .units import (
    CODATA_ALPHA,
    DIRAC_CRITICAL_ZETA,
    KG_CRITICAL_ZETA,
    ModelKind,
    RatioResult,
    StateClass,
    beta_from_gamma,
    gamma_factor,
    zeta_from_z,
)

__all__ = [
    "__version__",
    "BoundScan",
    "BoundaryLeakageError",
    "CODATA_ALPHA",
    "ComponentField",
    "ContinuityReport",
    "ConvergenceError",
    "DIRAC_CRITICAL_ZETA",
    "DomainError",
    "EvolutionState",
    "Grid1D",
    "KG_CRITICAL_ZETA",
    "ModelKind",
    "PacketReport",
    "PacketSpec",
    "RatioResult",
    "ResidualNorms",
    "SpectralCoefficients",
    "StateClass",
    "TailLeakageError",
    "beta_from_gamma",
    "boost_amplitude",
    "bound_scan",
    "charge",
    "classify_state",
    "continuity_check",
    "coupled_residual",
    "coupled_rhs",
    "current_density",
    "dirac_1s_energy",
    "dirac_1s_ratio_closed",
    "dirac_1s_ratio_quadrature",
    "dirac_component_amplitudes",
    "dirac_free_ratio",
    "full_width_half_max",
    "gamma_factor",
    "gaussian_rest_amplitude",
    "integrate_grid",
    "integrate_radial",
    "inversion_residual",
    "inversion_transform",
    "kg_1s_energy",
    "kg_1s_ratio_closed",
    "kg_1s_ratio_quadrature",
    "kg_component_amplitudes",
    "kg_free_ratio",
    "odd_gaussian_potential",
    "packet_report",
    "run",
    "softened_coulomb",
    "stability_limit",
    "step",
    "synthesize",
    "synthesize_packet",
    "zeta_from_z",
]
