"""Cycle energetics: work, heat, friction, efficiency, operating windows.

All energies are in units of h*kHz.  With p_c, p_h the excited-state
populations after the cooling/heating strokes and xi the stroke transition
probability, the four stage energies are

    W_exp  =  (nu_h - nu_c) p_c + nu_h xi (1 - 2 p_c)
    W_comp = -(nu_h - nu_c) p_h + nu_c xi (1 - 2 p_h)
    Q_c    = -nu_c (p_h - p_c) - nu_c xi (1 - 2 p_h)
    Q_h    =  nu_h (p_h - p_c) - nu_h xi (1 - 2 p_c)

which close the first law exactly.  The net work W_net = W_exp + W_comp is
computed as the sum of an adiabatic part W_ad = -(nu_h - nu_c)(p_h - p_c)
and a friction part W_fric = xi [nu_h (1 - 2 p_c) + nu_c (1 - 2 p_h)],
the same factored form as the heats; the friction part is also
reachable through the relative entropy between the finite-time post-stroke
state and its quasi-static reference (Plastina et al., PRL 113, 260601
(2014)), which is how entropy production can be non-negative while
friction work goes negative at inverted reservoirs.

The cycle operates as an engine when W_net < 0 and Q_h > 0; efficiency
eta = -W_net/Q_h is reported only in that mode.  There
D = p_h - p_c - xi (1 - 2 p_c) = Q_h/nu_h is positive, eta is computed in
its population form

    eta = 1 - (nu_c/nu_h) [p_h - p_c + xi (1 - 2 p_h)] / D,

and it relates to the quasi-static eta_ad = 1 - nu_c/nu_h through two
exact identities:

    eta - eta_ad = -2 (nu_c/nu_h) xi (1 - p_h - p_c) / D
    d eta / d xi =  2 (nu_c/nu_h) (p_h - p_c) (p_h + p_c - 1) / D^2

So a finite-time engine beats eta_ad exactly when p_h + p_c > 1, and eta
rises with xi (a faster cycle is more efficient) exactly when
(p_h - p_c)(p_h + p_c - 1) > 0, a sign that does not depend on xi.  Both
need a reservoir with p > 1/2, a negative temperature; de Assis et al.,
PRL 122, 240602 (2019), observed the effect.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .complex2 import Density2, Unitary2
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
    w_net = w_ad + w_fric

    mode = _classify(w_net, q_h)
    # eta = -w_net/q_h = 1 + q_c/q_h, with nu_c/nu_h taken out of the ratio
    # so that the population brackets keep their digits where the stage
    # energies are subnormal.
    eta = 1.0 - (nu_c / nu_h) * (cold / hot) if mode == MODE_ENGINE else None
    # tuple.__new__ skips the frame of the generated namedtuple __new__,
    # which checks nothing; every phase-map cell comes through here.
    return tuple.__new__(CycleEnergetics, (w_exp, w_comp, q_c, q_h, w_net,
                                           w_ad, w_fric, eta, mode))


def _trace_product(a, b) -> float:
    """Re tr(a b), on the row-major entries of two 2x2 matrices."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22).real


def _rotated(a, rho) -> tuple[complex, complex, complex, complex]:
    """Row-major entries of a rho a^dag for 2x2 matrices given as entries."""
    a11, a12, a21, a22 = a
    r11, r12, r21, r22 = rho
    # b = a rho, then (b a^dag)_ij = sum_k b_ik conj(a_jk).
    b11, b12 = a11 * r11 + a12 * r21, a11 * r12 + a12 * r22
    b21, b22 = a21 * r11 + a22 * r21, a21 * r12 + a22 * r22
    c11, c12, c21, c22 = (a11.conjugate(), a12.conjugate(),
                          a21.conjugate(), a22.conjugate())
    return (b11 * c11 + b12 * c12, b11 * c21 + b12 * c22,
            b21 * c11 + b22 * c12, b21 * c21 + b22 * c22)


def energetics_from_states(p_c: float, p_h: float, u: Unitary2,
                           freqs: CycleFrequencies) -> CycleEnergetics:
    """Stage energies from density-matrix traces (Alicki definitions).

    Takes rho_1 thermal at the cold endpoint, rho_3 thermal at the hot
    endpoint, rho_2 = U rho_1 U^dag and rho_4 = U^dag rho_3 U, and every
    energy as a trace difference of e_k = tr(H rho_k), each trace written
    on the entries of U, the Gibbs state and the endpoint projector.
    Serves as the independent oracle for cycle_energetics with xi read off
    the same unitary.
    """
    p_x = projector_excited("x")
    p_y = projector_excited("y")
    rho1 = gibbs_state(p_c, "x")
    rho3 = gibbs_state(p_h, "y")
    u11, u12, u21, u22 = u
    u_dag = (u11.conjugate(), u21.conjugate(), u12.conjugate(),
             u22.conjugate())

    # e_k = tr(H rho_k), the energy at cycle stage k, with H = nu * P.
    e1 = freqs.nu_c * _trace_product(p_x, rho1)
    e2 = freqs.nu_h * _trace_product(p_y, _rotated(u, rho1))
    e3 = freqs.nu_h * _trace_product(p_y, rho3)
    e4 = freqs.nu_c * _trace_product(p_x, _rotated(u_dag, rho3))
    w_exp = e2 - e1
    w_comp = e4 - e3
    q_c = e1 - e4
    q_h = e3 - e2
    w_net = w_exp + w_comp
    w_ad = -(freqs.nu_h - freqs.nu_c) * (p_h - p_c)
    w_fric = w_net - w_ad

    mode = _classify(w_net, q_h)
    eta = -w_net / q_h if mode == MODE_ENGINE else None
    return CycleEnergetics(w_exp, w_comp, q_c, q_h, w_net, w_ad, w_fric,
                           eta, mode)


def _bloch(m: Density2) -> tuple[float, float, float]:
    """Bloch vector r of m = (I + r.sigma)/2, read off the entries."""
    a11, a12, _, a22 = m
    return 2.0 * a12.real, -2.0 * a12.imag, (a11 - a22).real


def relative_entropy(rho: Density2, sigma: Density2) -> float:
    """Quantum relative entropy D(rho||sigma) in nats, in closed Bloch form.

    With rho = (I + r.sigma)/2 and sigma = (I + s.sigma)/2,

        D = sum_l l ln l - (1/2) ln((1 - |s|^2)/4) - (r.s/|s|) artanh|s|,

    where l = (1 +- |r|)/2 are the eigenvalues of rho, 0 ln 0 = 0, and the
    last term is 0 at s = 0.  It is evaluated as
    sum_l l ln l - sum_m w_m ln m over the eigenvalues m = (1 +- |s|)/2 of
    sigma, where w = (1 +- r.s/|s|)/2 is rho's weight on the matching
    eigenvector.  A pure sigma (smaller eigenvalue at most _SUPPORT_EIG_TOL)
    gives +inf when rho's weight on its kernel exceeds _SUPPORT_WEIGHT_TOL,
    and otherwise the kernel term is dropped.
    """
    rx, ry, rz = _bloch(rho)
    sx, sy, sz = _bloch(sigma)
    r = math.hypot(rx, ry, rz)
    s = math.hypot(sx, sy, sz)
    rs_hat = (rx * sx + ry * sy + rz * sz) / s if s > 0.0 else 0.0

    d = 0.0
    for lam in (0.5 * (1.0 + r), 0.5 * (1.0 - r)):
        if lam > 0.0:
            d += lam * math.log(lam)
    w_lo = 0.5 * (1.0 - rs_hat)
    mu_lo = 0.5 * (1.0 - s)
    d -= (1.0 - w_lo) * math.log(0.5 * (1.0 + s))
    if mu_lo <= _SUPPORT_EIG_TOL:
        return math.inf if w_lo > _SUPPORT_WEIGHT_TOL else d
    return d - w_lo * math.log(mu_lo)


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
        rotation = u  # rho_final = U rho U^dag
    elif stroke == "compression":
        axis_init, axis_final = "y", "x"
        nu_final = freqs.nu_c
        rotation = u.adjoint()  # rho_final = U^dag rho U
    else:
        raise DomainError(f"stroke must be 'expansion' or 'compression', got {stroke!r}")

    rho_final = Density2(*_rotated(rotation, gibbs_state(p_init, axis_init)))
    reference = gibbs_state(p_init, axis_final)
    div = relative_entropy(rho_final, reference)

    if abs(exponent_scale) < _SINGULAR_EXPONENT_TOL:
        # p = 1/2: the prefactor diverges but the friction term vanishes.
        xi = transition_probability(u)
        return StrokeFriction(nu_final * xi * (1.0 - 2.0 * p_init),
                              div, math.inf, True)

    inv_beta_eff = nu_final / exponent_scale
    return StrokeFriction(inv_beta_eff * div, div, inv_beta_eff, False)


def _zero_friction_pc(p_h: float, freqs: CycleFrequencies) -> float:
    """Cold population p_c* = (1/2)(1 + (1 - 2 p_h) nu_c/nu_h) of W_fric = 0."""
    return 0.5 * (1.0 + (1.0 - 2.0 * p_h) * (freqs.nu_c / freqs.nu_h))


def negative_friction_window(
        p_h: float, freqs: CycleFrequencies) -> tuple[float, float] | None:
    """Cold-population interval giving negative friction work, or None.

    For an inverted hot reservoir (p_h > 1/2) the window is
    ((1/2)(1 + (1 - 2 p_h) nu_c/nu_h), 1/2); without inversion it is empty.
    """
    if not (0.0 <= p_h <= 1.0):
        raise DomainError(f"p_h must lie in [0, 1], got {p_h}")
    lower = _zero_friction_pc(p_h, freqs)
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
