"""Two-level-system model: cycle parameters, endpoint kets, populations.

Energies are expressed in units of h*kHz throughout (Planck's constant never
appears numerically); times are in ms, frequencies in kHz.  The excited
eigenstates of the two stroke endpoints are fixed as
|+x> = (1, 1)/sqrt(2) and |+y> = (1, i)/sqrt(2).

A reservoir is described either by its excited-state population p or by the
dimensionless exponent u = beta*h*nu; the two are related by p = 1/(e^u + 1),
and u < 0 (population inversion, p > 1/2) encodes a negative effective
temperature.  The projectors and Gibbs states, as entry tuples, are in verify.
A stroke duration is a plain float in ms: the integrator that uses it checks
it (propagator.IntegratorConfig.resolve_steps).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError

_S2 = 1.0 / math.sqrt(2.0)

# Excited / ground eigenstates of the two endpoint Hamiltonians.
KET_PLUS_X = (_S2 + 0j, _S2 + 0j)
KET_MINUS_X = (_S2 + 0j, -_S2 + 0j)
KET_PLUS_Y = (_S2 + 0j, 1j * _S2)
KET_MINUS_Y = (_S2 + 0j, -1j * _S2)


class CycleFrequencies(namedtuple("CycleFrequencies", "nu_c nu_h")):
    """Cold and hot endpoint frequencies in kHz, finite, with nu_h > nu_c > 0."""

    __slots__ = ()

    def __new__(cls, nu_c: float, nu_h: float):
        if not (0.0 < nu_c < math.inf):
            raise DomainError(f"nu_c must be positive and finite, got {nu_c}")
        if not (nu_c < nu_h < math.inf):
            raise DomainError(
                f"nu_h must be finite and exceed nu_c, got nu_c={nu_c}, "
                f"nu_h={nu_h}")
        return tuple.__new__(cls, (nu_c, nu_h))


def gibbs_population(u: float) -> float:
    """Excited-state population p = 1/(e^u + 1) of a thermal two-level system.

    Stable for large |u|: evaluates the exponential of -|u| only.
    """
    if not math.isfinite(u):
        raise DomainError(f"exponent must be finite, got {u}")
    if u >= 0.0:
        e = math.exp(-u)
        return e / (1.0 + e)
    return 1.0 / (math.exp(u) + 1.0)


def exponent_from_population(p: float) -> float:
    """Inverse of gibbs_population: u = ln((1-p)/p).

    Positive for p < 1/2 (positive temperature), negative for p > 1/2
    (population inversion / negative temperature), zero at p = 1/2.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"population must lie in (0, 1), got {p}")
    return math.log1p(-p) - math.log(p)
