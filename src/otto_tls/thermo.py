"""Cycle energetics: work, heat, friction, efficiency, operating windows.

All energies are in units of h*kHz.  With p_c, p_h the excited-state
populations after the cooling/heating strokes and xi the stroke transition
probability, the four stage energies are

    W_exp  =  (nu_h - nu_c) p_c + nu_h xi (1 - 2 p_c)
    W_comp = -(nu_h - nu_c) p_h + nu_c xi (1 - 2 p_h)
    Q_c    = -nu_c (p_h - p_c) - nu_c xi (1 - 2 p_h)
    Q_h    =  nu_h (p_h - p_c) - nu_h xi (1 - 2 p_c)

which close the first law exactly.  The net work splits into an adiabatic
part -(nu_h - nu_c)(p_h - p_c) and a friction part
xi [nu_h (1 - 2 p_c) + nu_c (1 - 2 p_h)]; the friction part is also
reachable through the relative entropy between the finite-time post-stroke
state and its quasi-static reference, which is how entropy production can
be non-negative while friction work goes negative at inverted reservoirs.

The cycle operates as an engine when W_net < 0 and Q_h > 0; efficiency
eta = -W_net/Q_h is reported only in that mode.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .complex2 import Density2, Matrix2, Unitary2, eig_hermitian2
from .errors import DomainError
from .propagator import transition_probability
from .tls import CycleFrequencies, gibbs_state, projector_excited

_SUPPORT_EIG_TOL = 1e-14
_SUPPORT_WEIGHT_TOL = 1e-12
_SINGULAR_EXPONENT_TOL = 1e-12

MODE_ENGINE = "engine"
MODE_NO_WORK = "not-engine(w_net>=0)"
MODE_NO_HEAT = "not-engine(q_h<=0)"
MODE_NEITHER = "not-engine(w_net>=0, q_h<=0)"


class CycleInputs(namedtuple("CycleInputs", "freqs p_c p_h xi")):
    """Everything the closed-form energetics need.

    The closed forms are polynomials in the populations, so p_c and p_h lie
    in the closed interval [0, 1]: p = 0 and p = 1 are the zero-temperature
    limits of a positive- and a negative-temperature reservoir.
    """

    __slots__ = ()

    def __new__(cls, freqs: CycleFrequencies, p_c: float, p_h: float,
                xi: float):
        if not (0.0 <= p_c <= 1.0):
            raise DomainError(f"p_c must lie in [0, 1], got {p_c}")
        if not (0.0 <= p_h <= 1.0):
            raise DomainError(f"p_h must lie in [0, 1], got {p_h}")
        if not (0.0 <= xi <= 0.5):
            raise DomainError(f"xi must lie in [0, 1/2], got {xi}")
        return tuple.__new__(cls, (freqs, p_c, p_h, xi))


class CycleEnergetics(namedtuple(
        "CycleEnergetics", "w_exp w_comp q_c q_h w_net w_ad w_fric eta mode")):
    """Stage energies (h*kHz), their decomposition, and the operating mode.

    eta is None outside engine mode.
    """

    __slots__ = ()

    @property
    def is_engine(self) -> bool:
        return self.mode == MODE_ENGINE


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


def efficiency_closed_form(inputs: CycleInputs) -> float:
    """eta = 1 - (nu_c/nu_h) * [p_h - p_c + xi(1-2p_h)] / [p_h - p_c - xi(1-2p_c)]."""
    num = inputs.p_h - inputs.p_c + inputs.xi * (1.0 - 2.0 * inputs.p_h)
    den = inputs.p_h - inputs.p_c - inputs.xi * (1.0 - 2.0 * inputs.p_c)
    if den == 0.0:
        raise DomainError(
            "efficiency undefined: hot-stroke heat is zero for these inputs")
    return 1.0 - (inputs.freqs.nu_c / inputs.freqs.nu_h) * (num / den)


def cycle_energetics(inputs: CycleInputs) -> CycleEnergetics:
    """Closed-form stage energies for one cycle."""
    nu_c, nu_h = inputs.freqs.nu_c, inputs.freqs.nu_h
    p_c, p_h, xi = inputs.p_c, inputs.p_h, inputs.xi
    dnu = nu_h - nu_c

    w_exp = dnu * p_c + nu_h * xi * (1.0 - 2.0 * p_c)
    w_comp = -dnu * p_h + nu_c * xi * (1.0 - 2.0 * p_h)
    # The heats factor out nu_c and nu_h so the population difference
    # cancels before the scaling, as in efficiency_closed_form: near the
    # q_h = 0 edge, two rounded products lost every digit of q_h.
    q_c = -nu_c * ((p_h - p_c) + xi * (1.0 - 2.0 * p_h))
    q_h = nu_h * ((p_h - p_c) - xi * (1.0 - 2.0 * p_c))
    w_net = w_exp + w_comp
    w_ad = -dnu * (p_h - p_c)
    w_fric = xi * (nu_h * (1.0 - 2.0 * p_c) + nu_c * (1.0 - 2.0 * p_h))

    mode = _classify(w_net, q_h)
    eta = -w_net / q_h if mode == MODE_ENGINE else None
    return CycleEnergetics(w_exp, w_comp, q_c, q_h, w_net, w_ad, w_fric,
                           eta, mode)


def _trace_product(a: Matrix2, b: Matrix2) -> float:
    t = (a.a11 * b.a11 + a.a12 * b.a21 + a.a21 * b.a12 + a.a22 * b.a22)
    return t.real


def energetics_from_states(p_c: float, p_h: float, u: Unitary2,
                           freqs: CycleFrequencies) -> CycleEnergetics:
    """Stage energies from density-matrix traces (Alicki definitions).

    Builds rho_1 thermal at the cold endpoint, rho_3 thermal at the hot
    endpoint, rho_2 = U rho_1 U^dag and rho_4 = U^dag rho_3 U, then takes
    every energy as a trace difference.  Serves as the independent oracle
    for cycle_energetics with xi read off the same unitary.
    """
    h_c = projector_excited("x").scaled(freqs.nu_c)
    h_h = projector_excited("y").scaled(freqs.nu_h)
    rho1 = gibbs_state(p_c, "x")
    rho3 = gibbs_state(p_h, "y")
    u_dag = u.adjoint()
    rho2 = u @ rho1 @ u_dag
    rho4 = u_dag @ rho3 @ u

    w_exp = _trace_product(h_h, rho2) - _trace_product(h_c, rho1)
    w_comp = _trace_product(h_c, rho4) - _trace_product(h_h, rho3)
    q_c = _trace_product(h_c, rho1 - rho4)
    q_h = _trace_product(h_h, rho3 - rho2)
    w_net = w_exp + w_comp
    w_ad = -(freqs.nu_h - freqs.nu_c) * (p_h - p_c)
    w_fric = w_net - w_ad

    mode = _classify(w_net, q_h)
    eta = -w_net / q_h if mode == MODE_ENGINE else None
    return CycleEnergetics(w_exp, w_comp, q_c, q_h, w_net, w_ad, w_fric,
                           eta, mode)


def relative_entropy(rho: Density2, sigma: Density2) -> float:
    """Quantum relative entropy D(rho||sigma) in nats.

    Computed from the eigendecompositions of both states; 0*ln(0) is taken
    as 0.  A support violation (rho putting weight where sigma has none)
    returns +inf.
    """
    lam, v = eig_hermitian2(rho)
    mu, w = eig_hermitian2(sigma)

    d = 0.0
    for lam_i in lam:
        if lam_i > _SUPPORT_EIG_TOL:
            d += lam_i * math.log(lam_i)

    # Overlap weights |<v_i|w_j>|^2; columns of v, w are the eigenvectors.
    vecs_v = ((v.a11, v.a21), (v.a12, v.a22))
    vecs_w = ((w.a11, w.a21), (w.a12, w.a22))
    for i, lam_i in enumerate(lam):
        if lam_i <= _SUPPORT_EIG_TOL:
            continue
        for j, mu_j in enumerate(mu):
            ov = (vecs_v[i][0].conjugate() * vecs_w[j][0]
                  + vecs_v[i][1].conjugate() * vecs_w[j][1])
            weight = lam_i * abs(ov) ** 2
            if mu_j <= _SUPPORT_EIG_TOL:
                if weight > _SUPPORT_WEIGHT_TOL:
                    return math.inf
                continue
            d -= weight * math.log(mu_j)
    return d


class StrokeFriction(namedtuple(
        "StrokeFriction", "work divergence inv_beta_eff singular_reference")):
    """Friction work of one stroke via the entropy-production route.

    `divergence` is D(rho_final || rho_quasistatic) in nats, `inv_beta_eff`
    the effective temperature prefactor in h*kHz.  When the reservoir sits
    exactly at p = 1/2 the prefactor is singular while the product limit is
    finite; `singular_reference` marks that the closed-form value was
    returned directly.
    """

    __slots__ = ()


def friction_from_divergence(p_init: float, exponent_scale: float,
                             u: Unitary2, stroke: str,
                             freqs: CycleFrequencies) -> StrokeFriction:
    """Per-stroke friction work from relative entropy.

    The quasi-static reference keeps the initial populations but lives in
    the final Hamiltonian's eigenbasis; the divergence is scaled by the
    effective temperature of that reference at the final frequency,
    nu_final / u with u = exponent_scale the reservoir exponent ln((1-p)/p).
    The result reproduces the closed-form friction term of the stroke:
    nu_h*xi*(1-2p_c) for expansion, nu_c*xi*(1-2p_h) for compression.
    """
    if not (0.0 < p_init < 1.0):
        raise DomainError(f"population must lie in (0, 1), got {p_init}")
    if stroke == "expansion":
        axis_init, axis_final = "x", "y"
        nu_final = freqs.nu_h
    elif stroke == "compression":
        axis_init, axis_final = "y", "x"
        nu_final = freqs.nu_c
    else:
        raise DomainError(f"stroke must be 'expansion' or 'compression', got {stroke!r}")

    rho_init = gibbs_state(p_init, axis_init)
    if stroke == "expansion":
        rho_final = u @ rho_init @ u.adjoint()
    else:
        rho_final = u.adjoint() @ rho_init @ u
    rho_final = Density2(*rho_final.entries())
    reference = gibbs_state(p_init, axis_final)
    div = relative_entropy(rho_final, reference)

    if abs(exponent_scale) < _SINGULAR_EXPONENT_TOL:
        # p = 1/2: the prefactor diverges but the friction term vanishes.
        xi = transition_probability(u)
        return StrokeFriction(nu_final * xi * (1.0 - 2.0 * p_init),
                              div, math.inf, True)

    inv_beta_eff = nu_final / exponent_scale
    return StrokeFriction(inv_beta_eff * div, div, inv_beta_eff, False)


def negative_friction_window(
        p_h: float, freqs: CycleFrequencies) -> tuple[float, float] | None:
    """Cold-population interval giving negative friction work, or None.

    For an inverted hot reservoir (p_h > 1/2) the window is
    ((1/2)(1 + (1 - 2 p_h) nu_c/nu_h), 1/2); without inversion it is empty.
    """
    if not (0.0 <= p_h <= 1.0):
        raise DomainError(f"p_h must lie in [0, 1], got {p_h}")
    lower = 0.5 * (1.0 + (1.0 - 2.0 * p_h) * freqs.nu_c / freqs.nu_h)
    if lower >= 0.5:
        return None
    return (lower, 0.5)


def hot_population_window(
        p_c: float, freqs: CycleFrequencies) -> tuple[float, float] | None:
    """Hot-population interval giving negative friction work, or None.

    Companion of negative_friction_window:
    ((1/2)(1 + (1 - 2 p_c) nu_h/nu_c), 1]; empty when the bound reaches 1.
    """
    if not (0.0 <= p_c <= 1.0):
        raise DomainError(f"p_c must lie in [0, 1], got {p_c}")
    lower = 0.5 * (1.0 + (1.0 - 2.0 * p_c) * freqs.nu_h / freqs.nu_c)
    if lower >= 1.0:
        return None
    return (lower, 1.0)


def efficiency_exceeds_adiabatic(p_c: float, p_h: float) -> bool:
    """True when the populations satisfy p_h > 1 - p_c.

    Under this condition (and engine mode with xi > 0) the finite-time
    efficiency exceeds the quasi-static value 1 - nu_c/nu_h.
    """
    if not (0.0 <= p_c <= 1.0 and 0.0 <= p_h <= 1.0):
        raise DomainError("populations must lie in [0, 1]")
    return p_h > 1.0 - p_c
