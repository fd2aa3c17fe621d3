"""Finite-time quantum Otto cycle of a driven two-level system.

Simulates the four-stroke cycle between a cold reservoir at positive
temperature and a hot reservoir at positive or negative effective
temperature: unitary stroke propagation, closed-form work/heat/friction
energetics, the entropy-production route to friction work, and the
parameter sweeps behind the friction map and efficiency curves.
"""

__version__ = "0.1.0"

from .complex2 import Density2, Hermitian2, Matrix2, Unitary2, exp_neg_i_h
from .errors import (ConstraintViolation, ConvergenceError, DomainError,
                     OttoError)
from .propagator import (IntegratorConfig, PropagatorResult, evolve_expansion,
                         integrate_compression, propagate_fixed_steps,
                         transition_probability, xi_sweep)
from .sweep import (PhaseMapRow, PhaseMapSpec, TauSweepSpec, run_phase_map,
                    run_tau_sweep, zero_friction_line)
from .thermo import (CycleEnergetics, CycleInputs, StrokeFriction,
                     adiabatic_efficiency, cycle_energetics,
                     efficiency_exceeds_adiabatic,
                     energetics_from_states, friction_from_divergence,
                     hot_population_window, negative_friction_window,
                     relative_entropy)
from .tls import (CycleFrequencies, StrokeDuration, exponent_from_population,
                  gibbs_population, gibbs_state, hamiltonian_compression,
                  hamiltonian_expansion, projector_excited, ramp_frequency)

__all__ = [
    "Matrix2", "Hermitian2", "Unitary2", "Density2", "exp_neg_i_h",
    "OttoError", "ConstraintViolation", "DomainError", "ConvergenceError",
    "CycleFrequencies", "StrokeDuration",
    "gibbs_population", "exponent_from_population", "gibbs_state",
    "projector_excited", "ramp_frequency",
    "hamiltonian_expansion", "hamiltonian_compression",
    "IntegratorConfig", "PropagatorResult",
    "evolve_expansion", "integrate_compression", "propagate_fixed_steps",
    "transition_probability", "xi_sweep",
    "CycleInputs", "CycleEnergetics", "StrokeFriction",
    "cycle_energetics", "energetics_from_states", "relative_entropy",
    "friction_from_divergence", "negative_friction_window",
    "hot_population_window", "efficiency_exceeds_adiabatic",
    "adiabatic_efficiency",
    "TauSweepSpec", "PhaseMapSpec", "PhaseMapRow",
    "run_tau_sweep", "run_phase_map", "zero_friction_line",
]
