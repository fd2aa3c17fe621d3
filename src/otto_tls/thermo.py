"""The cycle model: its frequencies and reservoirs, and closed-form energetics.

Energies are in units of h*kHz (Planck's constant never appears
numerically), times in ms and frequencies in kHz.  CycleFrequencies holds
the two endpoint frequencies.  A reservoir is given either by its
excited-state population p or by the dimensionless exponent u = beta*h*nu;
gibbs_population and exponent_from_population map one to the other through
p = 1/(e^u + 1), and u < 0 (population inversion, p > 1/2) encodes a
negative effective temperature.  With p_c, p_h the excited-state
populations after the cooling/heating strokes and xi the stroke transition
probability, the four stage energies are

    W_exp  =  (nu_h - nu_c) p_c + nu_h xi (1 - 2 p_c)
    W_comp = -(nu_h - nu_c) p_h + nu_c xi (1 - 2 p_h)
    Q_c    = -nu_c (p_h - p_c) - nu_c xi (1 - 2 p_h)
    Q_h    =  nu_h (p_h - p_c) - nu_h xi (1 - 2 p_c)

which close the first law exactly.  The net work W_net = W_exp + W_comp is
computed as the sum of an adiabatic part W_ad = -(nu_h - nu_c)(p_h - p_c)
and a friction part W_fric = xi [nu_h (1 - 2 p_c) + nu_c (1 - 2 p_h)],
the same factored form as the heats.  Each friction term carries an
entropy production (Plastina et al., PRL 113, 260601 (2014)).  A stroke
from a Gibbs state of population p ends with the spectrum {p, 1 - p} of
its quasi-static reference, so their relative entropy reads only the
final population p + xi (1 - 2p):

    Sigma = xi (1 - 2p) ln((1-p)/p) >= 0,

as (1 - 2p) and ln((1-p)/p) share a sign.  Times the stroke temperature
nu_f / ln((1-p)/p) it is the friction term nu_f xi (1 - 2p), negative
exactly when p > 1/2.

The cycle operates as an engine when W_net < 0 and Q_h > 0; efficiency
eta = -W_net/Q_h is reported only in that mode.  There
D = p_h - p_c - xi (1 - 2 p_c) = Q_h/nu_h is positive, and eta relates to
the quasi-static eta_ad = 1 - nu_c/nu_h through two exact identities:

    eta - eta_ad = -2 (nu_c/nu_h) xi (1 - p_h - p_c) / D
    d eta / d xi =  2 (nu_c/nu_h) (p_h - p_c) (p_h + p_c - 1) / D^2

So a finite-time engine beats eta_ad exactly when p_h + p_c > 1, and eta
rises with xi (a faster cycle is more efficient) exactly when
(p_h - p_c)(p_h + p_c - 1) > 0, a sign that does not depend on xi.  Both
need a reservoir with p > 1/2, a negative temperature; de Assis et al.,
PRL 122, 240602 (2019), observed the effect.  eta is computed in the gain
form of the first identity, so both signs hold for the floats given with
no tolerance; whether eta is reported still rests on rounded Q_h, W_net.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import DomainError, _check_xi

MODE_ENGINE = "engine"
MODE_NO_WORK = "not-engine(w_net>=0)"
MODE_NO_HEAT = "not-engine(q_h<=0)"
MODE_NEITHER = "not-engine(w_net>=0, q_h<=0)"


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


def _check_population(p: float, name: str) -> None:
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {p}")


class CycleInputs(namedtuple("CycleInputs", "freqs p_c p_h xi")):
    """Everything the closed-form energetics need.

    The closed forms are polynomials in the populations, so p_c and p_h lie
    in the closed interval [0, 1]: p = 0 and p = 1 are the zero-temperature
    limits of a positive- and a negative-temperature reservoir.
    """

    __slots__ = ()

    def __new__(cls, freqs: CycleFrequencies, p_c: float, p_h: float,
                xi: float):
        _check_population(p_c, "p_c")
        _check_population(p_h, "p_h")
        _check_xi(xi)
        return tuple.__new__(cls, (freqs, p_c, p_h, xi))


class CycleEnergetics(namedtuple(
        "CycleEnergetics", "w_exp w_comp q_c q_h w_net w_ad w_fric eta mode")):
    """Stage energies (h*kHz), their decomposition, and the operating mode.

    eta is None outside engine mode.
    """

    __slots__ = ()


def _classify(w_net: float, q_h: float) -> str:
    if w_net < 0.0 and q_h > 0.0:
        return MODE_ENGINE
    if w_net >= 0.0 and q_h <= 0.0:
        return MODE_NEITHER
    if w_net >= 0.0:
        return MODE_NO_WORK
    return MODE_NO_HEAT


def adiabatic_efficiency(freqs: CycleFrequencies) -> float:
    """Quasi-static Otto efficiency 1 - nu_c/nu_h."""
    return 1.0 - freqs.nu_c / freqs.nu_h


def cycle_energetics(inputs: CycleInputs) -> CycleEnergetics:
    """Closed-form stage energies for one cycle."""
    freqs, p_c, p_h, xi = inputs
    nu_c, nu_h = freqs
    dnu = nu_h - nu_c
    dp = p_h - p_c
    a_c = 1.0 - 2.0 * p_c
    a_h = 1.0 - 2.0 * p_h

    w_exp = dnu * p_c + nu_h * xi * a_c
    w_comp = -dnu * p_h + nu_c * xi * a_h
    # The heats and the net work are factored so the population difference
    # cancels before the scaling: near the q_h = 0 edge, two rounded
    # products lost every digit of q_h, and near p_h = p_c, w_exp + w_comp
    # rounded a net work of -9e-17 to 0.0.
    cold = dp + xi * a_h
    hot = dp - xi * a_c  # D, positive in engine mode
    q_c = -nu_c * cold
    q_h = nu_h * hot
    w_ad = -dnu * dp
    w_fric = xi * (nu_h * a_c + nu_c * a_h)
    if not math.isfinite(w_fric):
        # The bracket overflowed (inf, or NaN at xi = 0); half of it cannot,
        # and halving is exact where no product is subnormal.
        w_fric = 2.0 * (xi * (0.5 * nu_h * a_c + 0.5 * nu_c * a_h))
    w_net = w_ad + w_fric

    mode = _classify(w_net, q_h)
    eta = None
    if mode == MODE_ENGINE:
        # The gain form eta_ad - g xi/D, on brackets that keep their digits
        # where the energies are subnormal.  fsum gives g its exact sign;
        # xi/D = 1/(dp/xi - a_c) is monotone in xi, unlike xi/hot once
        # p_c > 1/2, which serves only xi = 0 and D within rounding of 0.
        gain = 2.0 * (nu_c / nu_h) * math.fsum((1.0, -p_h, -p_c))
        d_per_xi = dp / xi - a_c if xi else 0.0
        eta = adiabatic_efficiency(freqs) - (
            gain / d_per_xi if d_per_xi > 0.0 else gain * xi / hot)
    # tuple.__new__ skips the frame of the generated namedtuple __new__,
    # which checks nothing; every phase-map cell comes through here.
    return tuple.__new__(CycleEnergetics, (w_exp, w_comp, q_c, q_h, w_net,
                                           w_ad, w_fric, eta, mode))


def entropy_production(p: float, xi: float) -> float:
    """Entropy Sigma = xi (1 - 2p) ln((1-p)/p) produced by one stroke, in nats.

    p is the stroke's initial population and xi its transition
    probability.  Sigma is 0 at xi = 0 and +inf at p in {0, 1} with xi > 0,
    where the quasi-static reference is pure and the final state is not.
    """
    _check_population(p, "population")
    _check_xi(xi)
    if xi == 0.0:
        return 0.0
    if p == 0.0 or p == 1.0:
        return math.inf
    return xi * (1.0 - 2.0 * p) * exponent_from_population(p)


def zero_friction_pc(p_h: float, freqs: CycleFrequencies) -> float:
    """Cold population p_c* = (1/2)(1 + (1 - 2 p_h) nu_c/nu_h) of W_fric = 0.

    It is the lower end of the cold-population window (p_c*, 1] that gives
    negative friction work.  p_c* lies in [(1 - nu_c/nu_h)/2,
    (1 + nu_c/nu_h)/2], inside (0, 1), so the window is never empty; it
    reaches below 1/2 exactly when p_h > 1/2.
    """
    _check_population(p_h, "p_h")
    return 0.5 * (1.0 + (1.0 - 2.0 * p_h) * (freqs.nu_c / freqs.nu_h))


def hot_population_window(
        p_c: float, freqs: CycleFrequencies) -> tuple[float, float] | None:
    """Hot-population interval giving negative friction work, or None.

    Companion of the p_c window (zero_friction_pc, 1], on [0, 1], with p_c
    checked here: ((1/2)(1 + (1 - 2 p_c) nu_h/nu_c), 1], empty when the
    bound reaches 1.
    The bound falls below 0 once p_c > (1 + nu_c/nu_h)/2; then every p_h
    in [0, 1] gives negative friction, and the lower end is clamped to 0.
    """
    _check_population(p_c, "p_c")
    lower = 0.5 * (1.0 + (1.0 - 2.0 * p_c) * freqs.nu_h / freqs.nu_c)
    if lower >= 1.0:
        return None
    return (max(0.0, lower), 1.0)
