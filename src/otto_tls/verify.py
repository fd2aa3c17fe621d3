"""The checking path: state-based oracles and the `verify` self-check suite.

thermo computes every energy and the entropy production in closed form.
The oracles here reach them a second, independent way, from the density
matrices of the cycle: energetics_from_states as traces, stroke_divergence
as the relative entropy of a rotated Gibbs state.  run_suite checks the
closed forms against them and the integrator against its limits.  Each
matrix is a tuple of its row-major entries, like PropagatorResult.U.  Only
`otto-tls verify`, the tests and the benchmark load this module.
"""

from __future__ import annotations

import math
import random

from . import DomainError
from .propagator import (_adjoint, evolve_expansion, integrate_compression,
                         transition_probability)
from .thermo import (MODE_ENGINE, CycleEnergetics, CycleFrequencies,
                     CycleInputs, _check_population, _classify,
                     cycle_energetics, entropy_production,
                     exponent_from_population, negative_friction_window)

_SUPPORT_EIG_TOL = 1e-14
_SUPPORT_WEIGHT_TOL = 1e-12

Entries = tuple[complex, complex, complex, complex]  # a11, a12, a21, a22

# The two projectors are immutable, so every caller shares one instance.
_PROJECTOR_X = (0.5, 0.5, 0.5, 0.5)
_PROJECTOR_Y = (0.5, -0.5j, 0.5j, 0.5)


def projector_excited(axis: str) -> Entries:
    """Rank-1 projector onto the excited state of the given axis.

    axis 'x' projects onto (1, 1)/sqrt(2); axis 'y' onto (1, i)/sqrt(2).
    """
    if axis == "x":
        return _PROJECTOR_X
    if axis == "y":
        return _PROJECTOR_Y
    raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")


def gibbs_state(p: float, axis: str) -> Entries:
    """Thermal state diagonal in the given axis basis.

    rho = (1-p)|-><-| + p|+><+| with |+> the excited state of that axis;
    p = 0 and p = 1 give the pure ground and excited states.
    """
    _check_population(p, "population")
    a11, a12, a21, a22 = projector_excited(axis)
    # (1-p)(I - P) + p P = (1-p) I + (2p-1) P
    w = 2.0 * p - 1.0
    return (1.0 - p) + w * a11, w * a12, w * a21, (1.0 - p) + w * a22


def _trace_product(a: Entries, b: Entries) -> float:
    """Re tr(a b), on the row-major entries of two 2x2 matrices."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22).real


def _rotated(a: Entries, rho: Entries) -> Entries:
    """Row-major entries of a rho a^dag for 2x2 matrices given as entries."""
    a11, a12, a21, a22 = a
    r11, r12, r21, r22 = rho
    # b = a rho, then b d with d = a^dag.
    b11, b12 = a11 * r11 + a12 * r21, a11 * r12 + a12 * r22
    b21, b22 = a21 * r11 + a22 * r21, a21 * r12 + a22 * r22
    d11, d12, d21, d22 = _adjoint(a)
    return (b11 * d11 + b12 * d21, b11 * d12 + b12 * d22,
            b21 * d11 + b22 * d21, b21 * d12 + b22 * d22)


def energetics_from_states(p_c: float, p_h: float, u: Entries,
                           freqs: CycleFrequencies) -> CycleEnergetics:
    """Stage energies from density-matrix traces (Alicki definitions).

    Takes rho_1 thermal at the cold endpoint, rho_3 thermal at the hot
    endpoint, rho_2 = U rho_1 U^dag and rho_4 = U^dag rho_3 U, and every
    energy as a trace difference of e_k = tr(H rho_k), each trace written
    on the entries of U, the Gibbs state and the endpoint projector.
    Serves as the independent oracle for cycle_energetics with xi read off
    the same unitary.
    """
    rho1 = gibbs_state(p_c, "x")
    rho3 = gibbs_state(p_h, "y")

    # e_k = tr(H rho_k), the energy at cycle stage k, with H = nu * P.
    e1 = freqs.nu_c * _trace_product(_PROJECTOR_X, rho1)
    e2 = freqs.nu_h * _trace_product(_PROJECTOR_Y, _rotated(u, rho1))
    e3 = freqs.nu_h * _trace_product(_PROJECTOR_Y, rho3)
    e4 = freqs.nu_c * _trace_product(_PROJECTOR_X, _rotated(_adjoint(u), rho3))
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


def _bloch(m: Entries) -> tuple[float, float, float]:
    """Bloch vector r of m = (I + r.sigma)/2, read off the entries."""
    a11, a12, _, a22 = m
    return 2.0 * a12.real, -2.0 * a12.imag, (a11 - a22).real


def relative_entropy(rho: Entries, sigma: Entries) -> float:
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


def stroke_divergence(p: float, u: Entries,
                      compression: bool = False) -> float:
    """D(rho_final || rho_quasistatic) of one stroke in nats, by matrices.

    The Gibbs state of population p at the stroke's initial endpoint,
    rotated to U rho U^dag (U^dag rho U for the compression), against the
    state of population p in the final endpoint's eigenbasis: the
    independent oracle for thermo.entropy_production.  Its floor: gibbs_state
    keeps p only as 2p - 1, so the error grows as 1e-17 / p at small p.
    """
    if compression:
        axis_init, axis_final, rotation = "y", "x", _adjoint(u)
    else:
        axis_init, axis_final, rotation = "x", "y", u
    return relative_entropy(_rotated(rotation, gibbs_state(p, axis_init)),
                            gibbs_state(p, axis_final))


def run_suite() -> tuple[int, list[str]]:
    """Run every check: (exit status, PASS/FAIL lines and a summary line)."""
    freqs = CycleFrequencies(2.0, 3.6)
    rng = random.Random(20240817)
    lines = []

    def check(name: str, ok: bool) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}\n")

    def random_unitary() -> Entries:
        # Haar-random on U(2), rejection-sampled to xi <= 1/2.
        while True:
            a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            norm = math.hypot(abs(a), abs(b))
            e = complex(math.cos(phi), math.sin(phi)) / norm
            u = e * a, -e * b.conjugate(), e * b, e * a.conjugate()
            if transition_probability(u) <= 0.5:
                return u

    # Closed-form identities over random inputs.
    ok_close = ok_decomp = ok_oracle = True
    for _ in range(300):
        p_c = rng.uniform(0.01, 0.99)
        p_h = rng.uniform(0.01, 0.99)
        u = random_unitary()
        xi = transition_probability(u)
        en = cycle_energetics(CycleInputs(freqs, p_c, p_h, xi))
        ok_close &= abs(en.w_exp + en.w_comp + en.q_c + en.q_h) <= 1e-12
        ok_decomp &= abs(en.w_net - (en.w_ad + en.w_fric)) <= 1e-12
        en2 = energetics_from_states(p_c, p_h, u, freqs)
        ok_oracle &= all(abs(a - b) <= 1e-10 for a, b in [
            (en.w_exp, en2.w_exp), (en.w_comp, en2.w_comp),
            (en.q_c, en2.q_c), (en.q_h, en2.q_h)])
    check("first-law closure", ok_close)
    check("net work decomposition", ok_decomp)
    check("trace-based oracle equivalence", ok_oracle)

    # The closed-form entropy production against the matrix route, and the
    # stroke's friction term recovered from it, inversion included.
    ok_div = True
    for p, compression, nu_f in [(0.4, False, freqs.nu_h),
                                 (0.8, True, freqs.nu_c),
                                 (0.25, False, freqs.nu_h)]:
        u = random_unitary()
        xi = transition_probability(u)
        sigma = entropy_production(p, xi)
        ok_div &= abs(stroke_divergence(p, u, compression) - sigma) <= 1e-12
        friction = (nu_f / exponent_from_population(p)) * sigma
        ok_div &= abs(friction - nu_f * xi * (1.0 - 2.0 * p)) <= 1e-10
        ok_div &= sigma >= -1e-12
    check("entropy-production route", ok_div)

    w = negative_friction_window(0.8, freqs)
    check("negative-friction window lower bound 1/3",
          abs(w[0] - 1.0 / 3.0) <= 1e-12)

    # A stroke that ran out of steps fails the check that integrated it.
    ok_adj = True
    for tau in [0.02, 0.1, 0.3, 0.6, 1.0]:
        ue = evolve_expansion(tau, freqs)
        uc = integrate_compression(tau, freqs)
        ok_adj &= ue.converged and uc.converged and max(
            abs(a - b) for a, b in zip(uc.U, _adjoint(ue.U))) <= 1e-9
    check("compression propagator = adjoint of expansion", ok_adj)

    fast = evolve_expansion(1e-4, freqs)
    slow = evolve_expansion(2.0, freqs)
    check("xi limits (sudden 1/2, adiabatic 0)",
          fast.converged and slow.converged
          and 0.499 <= fast.xi <= 0.5 and slow.xi < 0.01)

    en = cycle_energetics(CycleInputs(freqs, 0.4, 0.8, 0.0))
    check("adiabatic efficiency 1 - nu_c/nu_h",
          en.eta is not None and abs(en.eta - (1.0 - 2.0 / 3.6)) <= 1e-12)

    failures = sum(line.startswith("FAIL") for line in lines)
    lines.append(f"{'OK' if failures == 0 else 'FAILED'}: "
                 f"{failures} failure(s)\n")
    return (0 if failures == 0 else 1), lines
