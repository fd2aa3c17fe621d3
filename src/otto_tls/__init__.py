"""Finite-time quantum Otto cycle of a driven two-level system.

Simulates the four-stroke cycle between a cold reservoir at positive
temperature and a hot reservoir at positive or negative effective
temperature: unitary stroke propagation, closed-form work/heat/friction
energetics and entropy production, the parameter sweeps behind the
friction map and efficiency curves, and the state-based oracles that
check them.

Importing the package loads none of its submodules: each public name is
imported from its home module on first access (PEP 562), so a CLI call
compiles only the modules its subcommand runs.  The two production error
types, the one count rule, _check_count, and the one range rule of xi,
_check_xi, are defined here, since the modules share them; the matrix role
error, ConstraintViolation, is in complex2.
"""

__version__ = "0.1.0"


class OttoError(Exception):
    """Base class for all package errors."""


class DomainError(OttoError, ValueError):
    """An argument fell outside its valid domain."""


def _check_count(name: str, n: object, lo: int, hi: int) -> None:
    """The one count rule: DomainError unless n is an int in [lo, hi].

    The type test is exact, so True (a bool), 3.0 and "3" are refused.
    """
    if not (type(n) is int and lo <= n <= hi):
        raise DomainError(f"{name} must be an int in [{lo}, {hi}], got {n!r}")


def _check_xi(xi: float) -> None:
    """The one range rule of a transition probability: xi in [0, 1/2]."""
    if not (0.0 <= xi <= 0.5):
        raise DomainError(f"xi must lie in [0, 1/2], got {xi}")


# The home module of each public name defined elsewhere; __all__ and the
# lookup both read it.
_HOMES = {
    "complex2": "Matrix2 Hermitian2 Unitary2 Density2 exp_neg_i_h "
                "ConstraintViolation",
    "propagator": "IntegratorConfig PropagatorResult evolve_expansion "
                  "integrate_compression propagate_fixed_steps "
                  "transition_probability xi_sweep",
    "thermo": "CycleFrequencies gibbs_population exponent_from_population "
              "CycleInputs CycleEnergetics cycle_energetics "
              "entropy_production hot_population_window "
              "adiabatic_efficiency zero_friction_pc",
    "sweep": "PhaseMapRow run_tau_sweep run_phase_map",
    "verify": "energetics_from_states relative_entropy gibbs_state",
}
_HOME = {name: module for module, names in _HOMES.items()
         for name in names.split()}

__all__ = ["OttoError", "DomainError", *_HOME]


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
