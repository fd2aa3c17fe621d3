"""Two-level-system model: cycle parameters, projectors and Gibbs states.

Energies are expressed in units of h*kHz throughout (Planck's constant never
appears numerically); times are in ms, frequencies in kHz.  The excited
eigenstates of the two stroke endpoints are fixed as
|+x> = (1, 1)/sqrt(2) and |+y> = (1, i)/sqrt(2).

A reservoir is described either by its excited-state population p or by the
dimensionless exponent u = beta*h*nu; the two are related by p = 1/(e^u + 1),
and u < 0 (population inversion, p > 1/2) encodes a negative effective
temperature.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .complex2 import Density2, Hermitian2
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


class StrokeDuration(namedtuple("StrokeDuration", "tau")):
    """Duration of one unitary stroke, in ms, positive and finite."""

    __slots__ = ()

    def __new__(cls, tau: float):
        if not (0.0 < tau < math.inf):
            raise DomainError(f"tau must be positive and finite, got {tau}")
        return tuple.__new__(cls, (tau,))


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


# The two projectors are immutable, so every caller shares one instance.
_PROJECTOR_X = Hermitian2(0.5, 0.5, 0.5, 0.5)
_PROJECTOR_Y = Hermitian2(0.5, -0.5j, 0.5j, 0.5)


def projector_excited(axis: str) -> Hermitian2:
    """Rank-1 projector onto the excited state of the given axis.

    axis 'x' projects onto (1, 1)/sqrt(2); axis 'y' onto (1, i)/sqrt(2).
    """
    if axis == "x":
        return _PROJECTOR_X
    if axis == "y":
        return _PROJECTOR_Y
    raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")


def gibbs_state(p: float, axis: str) -> Density2:
    """Thermal state diagonal in the given axis basis.

    rho = (1-p)|-><-| + p|+><+| with |+> the excited state of that axis;
    p = 0 and p = 1 give the pure ground and excited states.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"population must lie in [0, 1], got {p}")
    proj = projector_excited(axis)
    # (1-p)(I - P) + p P = (1-p) I + (2p-1) P
    w = 2.0 * p - 1.0
    return Density2(
        (1.0 - p) + w * proj.a11, w * proj.a12,
        w * proj.a21, (1.0 - p) + w * proj.a22,
    )
