"""Time-ordered propagation of the unitary strokes.

The stroke propagator solves dU/dt = -2*pi*i * (H(t)/h) * U with U(0) = I.
Converged strokes use the fourth-order commutator-free Magnus scheme CF4
(Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011)) in the frame co-rotating with the drive
axis, where the stroke becomes a finite-duration Landau-Zener problem
(Vitanov & Garraway, Phys. Rev. A 53, 4288 (1996)): U = exp(-i*Phi) *
Rz(phi) * W with phi = pi*t/(2*tau), the scalar phase Phi integrated
exactly, and W driven by r(t)*sx - sz/(8*tau), r = nu(t)/2.  Each CF4 step
samples that generator at the Gauss nodes t_k + c1,2*dt,
c1,2 = 1/2 -+ sqrt(3)/6, and applies exp(-2*pi*i*dt*(a2*H1 + a1*H2))
followed by exp(-2*pi*i*dt*(a1*H1 + a2*H2)) with weights
a1,2 = (3 -+ 2*sqrt(3))/12.  Every factor is an exact 2x2 exponential, so
every intermediate U is unitary to rounding, and the constant sz part keeps
every rotation angle away from 0.  The step count is doubled until the
adiabaticity parameter xi - the only scalar consumed downstream - is
self-consistent to the configured tolerance.

propagate_fixed_steps keeps the second-order exponential-midpoint rule as
a simple fixed-step reference.

The compression stroke is generated by H_comp(t) = -H_exp(tau - t); its
time-ordered propagator equals the adjoint of the expansion propagator
(the reversal of both time and sign turns the ordered product around),
which integrate_compression lets tests confirm by direct integration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .complex2 import Unitary2
from .errors import ConvergenceError, DomainError, UnitarityError
from .tls import KET_MINUS_X, KET_MINUS_Y, KET_PLUS_X, KET_PLUS_Y, CycleFrequencies

XI_MAX_SLACK = 1e-9
_XI_FORM_TOL = 1e-10


class IntegratorConfig(namedtuple("IntegratorConfig",
                                  "initial_steps xi_tolerance max_doublings")):
    """Step-doubling control for the stroke integrator.

    initial_steps of None selects max(16, ceil(16 * nu_h * tau)) at run
    time, a start sized for CF4: 16 steps per Larmor period 1/nu_h, and
    never fewer than 16.  Doubling then stops once |xi_2n - xi_n| is below
    xi_tolerance.
    """

    __slots__ = ()

    def __new__(cls, initial_steps: int | None = None,
                xi_tolerance: float = 1e-9, max_doublings: int = 20):
        if initial_steps is not None and initial_steps < 2:
            raise DomainError("initial_steps must be at least 2")
        if not (0.0 < xi_tolerance < 1e-2):
            raise DomainError("xi_tolerance must lie in (0, 1e-2)")
        if max_doublings < 1:
            raise DomainError("max_doublings must be positive")
        return tuple.__new__(cls, (initial_steps, xi_tolerance, max_doublings))

    def resolve_steps(self, tau: float, freqs: CycleFrequencies) -> int:
        if self.initial_steps is not None:
            return self.initial_steps
        return max(16, math.ceil(16.0 * freqs.nu_h * tau))


class PropagatorResult(namedtuple("PropagatorResult",
                                  "U steps_used xi_error_estimate xi")):
    """Converged stroke propagator with its convergence diagnostics."""

    __slots__ = ()

    def __new__(cls, U: Unitary2, steps_used: int, xi_error_estimate: float,
                xi: float):
        if not (-XI_MAX_SLACK <= xi <= 0.5 + XI_MAX_SLACK):
            raise DomainError(f"xi={xi} outside [0, 1/2]")
        return tuple.__new__(cls, (U, steps_used, xi_error_estimate, xi))


def _check_tau(tau: float) -> None:
    if not (0.0 < tau < math.inf):
        raise DomainError(f"tau must be positive and finite, got {tau}")


def _propagate(tau: float, freqs: CycleFrequencies, steps: int,
               compression: bool) -> tuple[complex, complex, complex, complex]:
    """Midpoint-exponential integration, unrolled for speed.

    The midpoint Hamiltonian is H/h = c0*I + hx*sx + hy*sy with
    c0 = r*(cos+sin), (hx, hy) = r*(cos, sin), r = nu(t)/2, so the Bloch
    radius equals nu/2 and the per-step exponential is three sin/cos pairs.
    """
    dt = tau / steps
    s = 2.0 * math.pi * dt
    if compression:
        s = -s  # H_comp(t) = -H_exp(tau - t)
    # After factoring out the scalar phase exp(-i*s*c0), each step matrix is
    # [[a, b], [-conj(b), a]] with a real, and that SU(2)-like form is closed
    # under products; track only (u, v) of [[u, v], [-conj(v), conj(u)]] and
    # accumulate the phase angle separately.
    u = 1.0 + 0j
    v = 0j
    total_angle = 0.0
    ang = 0.5 * math.pi / tau
    dnu = freqs.nu_h - freqs.nu_c
    nu_c = freqs.nu_c
    cos, sin = math.cos, math.sin
    for k in range(steps):
        t = (k + 0.5) * dt
        if compression:
            t = tau - t
        x = t / tau
        r = 0.5 * (nu_c + dnu * x)
        th = ang * t
        c = cos(th)
        sn = sin(th)
        sr = s * r
        total_angle += sr * (c + sn)
        a = cos(sr)
        msr = sin(sr)
        b = complex(-msr * sn, -msr * c)  # -i*sin(sr)*(c - i*sn)
        u, v = a * u - b * v.conjugate(), a * v + b * u.conjugate()
    phase = complex(cos(total_angle), -sin(total_angle))
    return (phase * u, phase * v,
            -phase * v.conjugate(), phase * u.conjugate())


_SQRT3 = math.sqrt(3.0)
_CF4_C1 = 0.5 - _SQRT3 / 6.0
_CF4_C2 = 0.5 + _SQRT3 / 6.0
_CF4_A1 = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_A2 = (3.0 + 2.0 * _SQRT3) / 12.0
_EIGHTH_TURN = complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi))


def _propagate_cf4(tau: float, freqs: CycleFrequencies, steps: int,
                   compression: bool) -> tuple[complex, complex, complex, complex]:
    """Fourth-order commutator-free Magnus (CF4) integration, unrolled.

    Integrated in the frame co-rotating with the drive axis, where the
    stroke is a finite-duration Landau-Zener problem (Vitanov & Garraway,
    Phys. Rev. A 53, 4288 (1996)).  With Rz(phi) = exp(-i*phi*sz/2),
    phi = pi*t/(2*tau) and Phi(t) = 2*pi*int r*(cos + sin)(phi) dt,
    U = exp(-i*Phi) * Rz(phi) * W and

        dW/dt = -2*pi*i * (r(t)*sx - sz/(8*tau)) * W,   r = nu(t)/2.

    Each CF4 factor is exp(-i*(hx*sx + hz*sz)) with hx linear in the step
    index and hz = -+pi/(8*steps) constant, so a factor costs one sqrt,
    sin and cos, and a step no trigonometry of the drive axis.  hz is
    never 0, so the rotation angle never is either: a subnormal tau gives
    W = Rz(pi/2)^dagger and U = I without a guard.  The scalar phase is
    the exact integral Phi(tau) = 2*tau*(nu_c + nu_h).  The compression
    stroke is the same W problem mirrored in time with the generator's sign
    flipped, and transforms back as U = exp(+i*Phi) * W * Rz(pi/2)^dagger.
    """
    n = steps
    s = 2.0 * math.pi * tau / n
    hz = -0.125 * math.pi / n
    # s is folded into the radii r(x) = r_c + r_d*x, so hx below is already
    # the rotation angle about x.
    r_c = 0.5 * s * freqs.nu_c
    r_d = 0.5 * s * (freqs.nu_h - freqs.nu_c)
    if compression:
        # H_comp(t) = -H_exp(tau - t): flip the signs and mirror r(x) to
        # r(1 - x) = (r_c + r_d) - r_d*x.
        r_c, r_d, hz = -(r_c + r_d), r_d, -hz
    # With x_j = (k + c_j)/n the two factors take hx = a2*r(x1) + a1*r(x2)
    # and a1*r(x1) + a2*r(x2): r_c/2 + r_d*(k/2 + a2*c1 + a1*c2)/n and the
    # same with the weights swapped.
    a1, a2, c1, c2 = _CF4_A1, _CF4_A2, _CF4_C1, _CF4_C2
    slope = 0.5 * r_d / n
    hx1 = 0.5 * r_c + r_d * (a2 * c1 + a1 * c2) / n
    hx2 = 0.5 * r_c + r_d * (a1 * c1 + a2 * c2) / n
    hz2 = hz * hz
    # Same (u, v) form as _propagate, [[u, v], [-conj(v), conj(u)]], with u
    # and v split into real and imaginary parts: real arithmetic avoids a
    # complex object per operation.  A factor exp(-i*(hx*sx + hz*sz)) is
    # [[c - i*d, -i*e], [-i*e, c + i*d]] with c = cos(rho), (d, e) =
    # sin(rho)/rho * (hz, hx), rho = sqrt(hx^2 + hz^2) > 0.
    ur, ui, vr, vi = 1.0, 0.0, 0.0, 0.0
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    for k in range(n):
        hx = hx1 + slope * k
        rho = sqrt(hx * hx + hz2)
        m = sin(rho) / rho
        c, d, e = cos(rho), m * hz, m * hx
        ur, ui, vr, vi = (c * ur + d * ui + e * vi, c * ui - d * ur + e * vr,
                          c * vr + d * vi - e * ui, c * vi - d * vr - e * ur)
        hx = hx2 + slope * k
        rho = sqrt(hx * hx + hz2)
        m = sin(rho) / rho
        c, d, e = cos(rho), m * hz, m * hx
        ur, ui, vr, vi = (c * ur + d * ui + e * vi, c * ui - d * ur + e * vr,
                          c * vr + d * vi - e * ui, c * vi - d * vr - e * ur)
    u, v = complex(ur, ui), complex(vr, vi)
    angle = 2.0 * tau * (freqs.nu_c + freqs.nu_h)
    if compression:
        # exp(+i*Phi) * W * Rz(pi/2)^dagger
        phase = complex(cos(angle), sin(angle))
        u, v = u * _EIGHTH_TURN, v * _EIGHTH_TURN.conjugate()
    else:
        # exp(-i*Phi) * Rz(pi/2) * W
        phase = complex(cos(angle), -sin(angle))
        u, v = u * _EIGHTH_TURN.conjugate(), v * _EIGHTH_TURN.conjugate()
    return (phase * u, phase * v,
            -phase * v.conjugate(), phase * u.conjugate())


def _xi_raw(u11: complex, u12: complex, u21: complex, u22: complex) -> float:
    w1 = (u11 * KET_MINUS_X[0] + u12 * KET_MINUS_X[1])
    w2 = (u21 * KET_MINUS_X[0] + u22 * KET_MINUS_X[1])
    amp = KET_PLUS_Y[0].conjugate() * w1 + KET_PLUS_Y[1].conjugate() * w2
    return abs(amp) ** 2


def transition_probability(u: Unitary2) -> float:
    """Adiabaticity parameter xi = |<+y|U|-x>|^2.

    Unitarity forces |<+y|U|-x>| = |<-y|U|+x>|; both forms are evaluated and
    a disagreement beyond tolerance raises UnitarityError.
    """
    w = u.apply(KET_MINUS_X)
    amp1 = KET_PLUS_Y[0].conjugate() * w[0] + KET_PLUS_Y[1].conjugate() * w[1]
    v = u.apply(KET_PLUS_X)
    amp2 = KET_MINUS_Y[0].conjugate() * v[0] + KET_MINUS_Y[1].conjugate() * v[1]
    xi1, xi2 = abs(amp1) ** 2, abs(amp2) ** 2
    if abs(xi1 - xi2) > _XI_FORM_TOL:
        raise UnitarityError(
            f"transition-probability forms disagree: {xi1} vs {xi2}")
    return xi1


def _evolve(tau: float, freqs: CycleFrequencies, cfg: IntegratorConfig,
            compression: bool) -> PropagatorResult:
    """CF4 integration, doubling the step count until xi settles.

    Starts at cfg.resolve_steps and doubles until |xi_2n - xi_n| is below
    cfg.xi_tolerance; xi_2n and that difference are returned.  Raises
    ConvergenceError carrying the last estimate after cfg.max_doublings.
    """
    _check_tau(tau)

    def xi_of(raw):
        if compression:
            # xi for the compression propagator V is |<+x|V|-y>|^2, the
            # adjoint-mirrored element of the expansion form.
            u11, u12, u21, u22 = raw
            raw = (u11.conjugate(), u21.conjugate(),
                   u12.conjugate(), u22.conjugate())
        return _xi_raw(*raw)

    n = cfg.resolve_steps(tau, freqs)
    raw = _propagate_cf4(tau, freqs, n, compression)
    xi_prev = xi_of(raw)
    for _ in range(cfg.max_doublings):
        n *= 2
        raw = _propagate_cf4(tau, freqs, n, compression)
        xi = xi_of(raw)
        err = abs(xi - xi_prev)
        if err < cfg.xi_tolerance:
            return PropagatorResult(Unitary2(*raw), n, err, xi)
        xi_prev = xi
    best = PropagatorResult(Unitary2(*raw), n, abs(xi - xi_prev), xi)
    raise ConvergenceError(
        f"xi not converged to {cfg.xi_tolerance} after "
        f"{cfg.max_doublings} doublings (tau={tau} ms)", best=best)


def evolve_expansion(tau: float, freqs: CycleFrequencies,
                     cfg: IntegratorConfig = IntegratorConfig()) -> PropagatorResult:
    """Converged expansion-stroke propagator for a stroke of tau ms.

    The compression propagator is the adjoint of the returned unitary.
    """
    return _evolve(tau, freqs, cfg, compression=False)


def integrate_compression(tau: float, freqs: CycleFrequencies,
                          cfg: IntegratorConfig = IntegratorConfig()) -> PropagatorResult:
    """Direct time-ordered integration of the compression stroke.

    Provided so the adjoint identity against evolve_expansion can be checked
    by two independent integrations rather than by construction.
    """
    return _evolve(tau, freqs, cfg, compression=True)


def propagate_fixed_steps(tau: float, freqs: CycleFrequencies, steps: int,
                          compression: bool = False) -> Unitary2:
    """Single exponential-midpoint integration at a fixed step count.

    The second-order reference: no doubling, and not the CF4 scheme that
    evolve_expansion and integrate_compression use.
    """
    _check_tau(tau)
    if steps < 1:
        raise DomainError("steps must be positive")
    return Unitary2(*_propagate(tau, freqs, steps, compression))


def _expansion_or_best(tau: float, freqs: CycleFrequencies,
                       cfg: IntegratorConfig) -> tuple[PropagatorResult, bool]:
    """evolve_expansion and True, or its best estimate and False on failure."""
    try:
        return evolve_expansion(tau, freqs, cfg), True
    except ConvergenceError as exc:
        return exc.best, False


class XiPoint(namedtuple("XiPoint", "tau xi error_estimate converged")):
    """One sweep sample; converged is False when doubling ran out."""

    __slots__ = ()


def xi_sweep(tau_values: Sequence[float], freqs: CycleFrequencies,
             cfg: IntegratorConfig = IntegratorConfig()) -> list[XiPoint]:
    """Converged xi for each stroke duration, in input order.

    Per-point convergence failures are flagged in the output instead of
    aborting the sweep.
    """
    out = []
    for tau in tau_values:
        res, converged = _expansion_or_best(tau, freqs, cfg)
        out.append(XiPoint(tau, res.xi, res.xi_error_estimate, converged))
    return out
