"""Fractional-order predator-prey dynamics with habitat complexity.

Simulation (Caputo-sense PECE integration), equilibrium and stability
analysis over the fractional order, the discretized counterpart map with its
step-size-driven bifurcations, and dataset generation for bifurcation
diagrams.
"""

from .bifurcation import (
    RegionResult,
    SweepResult,
    cluster_count,
    export_series,
    stability_region_cm,
    sweep_step_size,
)
from .discrete import (
    BifurcationEvent,
    DiscreteConfig,
    DiscreteOrbit,
    FixedPointReport,
    NormalFormData,
    NormalFormPreconditionError,
    OrbitEscapeError,
    StepThresholds,
    classify_fixed_points,
    detect_structural_bifurcations,
    hopf_normal_form,
    inverse_map_gain,
    iterate_orbit,
    map_gain,
    step_map,
    step_thresholds,
)
from .model import (
    Equilibrium,
    Jacobian2,
    ModelParams,
    ParameterError,
    Thresholds,
    equilibria,
    jacobian,
    rhs,
    thresholds,
    vector_field,
)
from .pece import SolverConfig, SolverDivergenceError, Trajectory, pece_solve
from .special import MittagLefflerError, gamma_fn, mittag_leffler
from .stability import (
    CriticalOrder,
    GlobalStabilityFlags,
    NonhyperbolicError,
    StabilityReport,
    boundedness_envelope,
    classify_equilibria,
    critical_order,
    global_stability_check,
    matignon_stable,
    routh_hurwitz_fractional,
)

__version__ = "1.0.0"
