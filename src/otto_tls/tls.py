"""Two-level-system model: stroke Hamiltonians, ramp, and Gibbs states.

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

from .complex2 import Density2, Hermitian2, Matrix2
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
    """Duration of one unitary stroke, in ms."""

    __slots__ = ()

    def __new__(cls, tau: float):
        if not (tau > 0.0):
            raise DomainError(f"tau must be positive, got {tau}")
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


class ReservoirSpec(namedtuple("ReservoirSpec", "u")):
    """A reservoir given by exponent u = beta*h*nu, with population derived."""

    __slots__ = ()

    def __new__(cls, u: float):
        gibbs_population(u)  # raises DomainError unless u is finite
        return tuple.__new__(cls, (u,))

    @property
    def p(self) -> float:
        return gibbs_population(self.u)

    @classmethod
    def from_population(cls, p: float) -> "ReservoirSpec":
        return cls(exponent_from_population(p))

    @property
    def negative_temperature(self) -> bool:
        return self.u < 0.0


def projector_excited(axis: str) -> Hermitian2:
    """Rank-1 projector onto the excited state of the given axis.

    axis 'x' projects onto (1, 1)/sqrt(2); axis 'y' onto (1, i)/sqrt(2).
    """
    if axis == "x":
        return Hermitian2(0.5, 0.5, 0.5, 0.5)
    if axis == "y":
        return Hermitian2(0.5, -0.5j, 0.5j, 0.5)
    raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")


def _check_stroke_time(t: float, tau: float) -> None:
    if not (tau > 0.0):
        raise DomainError(f"tau must be positive, got {tau}")
    if not (0.0 <= t <= tau):
        raise DomainError(f"t={t} outside stroke interval [0, {tau}]")


def ramp_frequency(t: float, tau: float, freqs: CycleFrequencies) -> float:
    """Linear frequency ramp nu(t) = (1 - t/tau)*nu_c + (t/tau)*nu_h, in kHz."""
    _check_stroke_time(t, tau)
    x = t / tau
    return (1.0 - x) * freqs.nu_c + x * freqs.nu_h


def hamiltonian_expansion(t: float, tau: float,
                          freqs: CycleFrequencies) -> Hermitian2:
    """Expansion-stroke Hamiltonian divided by h, in kHz.

    H(t)/h = nu(t) [cos(pi t / 2 tau) P_x + sin(pi t / 2 tau) P_y], so the
    endpoints are exactly nu_c*P_x and nu_h*P_y.
    """
    _check_stroke_time(t, tau)
    nu = ramp_frequency(t, tau, freqs)
    th = 0.5 * math.pi * (t / tau)
    c, s = math.cos(th), math.sin(th)
    return Hermitian2(
        0.5 * nu * (c + s),
        0.5 * nu * complex(c, -s),
        0.5 * nu * complex(c, s),
        0.5 * nu * (c + s),
    )


def hamiltonian_compression(t: float, tau: float,
                            freqs: CycleFrequencies) -> Hermitian2:
    """Compression-stroke Hamiltonian: -H_expansion(tau - t)."""
    _check_stroke_time(t, tau)
    h = hamiltonian_expansion(tau - t, tau, freqs)
    return Hermitian2(-h.a11, -h.a12, -h.a21, -h.a22)


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
    m = Matrix2(
        (1.0 - p) + w * proj.a11, w * proj.a12,
        w * proj.a21, (1.0 - p) + w * proj.a22,
    )
    return Density2(*m.entries())
