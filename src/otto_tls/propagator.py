"""Time-ordered propagation of the unitary strokes.

The stroke propagator solves dU/dt = -2*pi*i * (H(t)/h) * U with U(0) = I.
Converged strokes are integrated in the frame co-rotating with the drive
axis, where the stroke becomes a finite-duration Landau-Zener problem
(Vitanov & Garraway, Phys. Rev. A 53, 4288 (1996)): U = exp(-i*Phi) *
Rz(phi) * W with phi = pi*t/(2*tau), the scalar phase Phi integrated
exactly, and W driven by r(t)*sx - sz/(8*tau), r = nu(t)/2.  That
generator is linear in time, so the sixth-order Magnus expansion (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) sums in closed su(2) form
to one rotation vector per step, and each step is a single exact 2x2
exponential.  Every intermediate U is therefore unitary to rounding.  The
step count is doubled until the adiabaticity parameter xi - the only scalar
consumed downstream - is self-consistent to the configured tolerance, and
no stroke integrates more than MAX_STEPS final steps.  Each integration
returns one PropagatorResult, with converged=False if it ran out of steps
(it raises nothing); xi_sweep checks every stroke of its grid before it
integrates any, then returns one per stroke.  xi is read from
U's four entries directly, and CycleFrequencies, from thermo, appears only
in annotations: importing the integrator loads no model module.

The compression stroke is generated by H_comp(t) = -H_exp(tau - t); its
time-ordered propagator equals the adjoint of the expansion propagator
(the reversal of both time and sign turns the ordered product around),
which integrate_compression lets tests confirm by direct integration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from . import DomainError, _check_count, _check_xi

TYPE_CHECKING = False
if TYPE_CHECKING:  # the integrator loads no model module
    from .thermo import CycleFrequencies

XI_MAX_SLACK = 1e-9
# The most final steps of one stroke; with the discarded coarser passes a
# stroke computes fewer than 2 * MAX_STEPS steps.
MAX_STEPS = 2**22


def _check_tau(tau: float) -> None:
    if not (0.0 < tau < math.inf):
        raise DomainError(f"tau must be positive and finite, got {tau} ms")


class IntegratorConfig(namedtuple("IntegratorConfig", "xi_tolerance")):
    """Step-doubling control for the stroke integrator.

    Doubling starts at max(8, ceil(8 * nu_h * tau)) steps (resolve_steps),
    a start sized for the sixth-order Magnus step: 8 steps per Larmor
    period 1/nu_h, and never fewer than 8.  It stops once |xi_2n - xi_n|
    is below xi_tolerance, or, unconverged, when the next doubling would
    exceed MAX_STEPS.  xi_tolerance lies in [1e-14, 1e-2): rounding can keep
    |xi_2n - xi_n| above a smaller tolerance for good.
    """

    __slots__ = ()

    def __new__(cls, xi_tolerance: float = 1e-9):
        if not (1e-14 <= xi_tolerance < 1e-2):
            raise DomainError(
                f"xi_tolerance must lie in [1e-14, 1e-2), got {xi_tolerance}")
        return tuple.__new__(cls, (xi_tolerance,))

    def resolve_steps(self, tau: float, freqs: CycleFrequencies) -> int:
        """Start count of a stroke of tau ms; the one check that refuses it.

        Raises DomainError for a tau that is not positive and finite, or
        whose start leaves no room for one doubling within MAX_STEPS.
        """
        _check_tau(tau)
        start = 8.0 * freqs.nu_h * tau  # compared before ceil: it may be inf
        if start > MAX_STEPS // 2:
            raise DomainError(
                f"tau={tau} ms is too long to integrate: it starts at "
                f"{start:.4g} steps, and one doubling must stay within "
                f"{MAX_STEPS} steps")
        return max(8, math.ceil(start))


class PropagatorResult(namedtuple("PropagatorResult",
                                  "U steps_used xi_error_estimate xi converged")):
    """Stroke propagator with how it was obtained.

    U is the row-major entries (u11, u12, u21, u22); complex2.Unitary2(*U)
    wraps them for matrix methods.  steps_used is the final step count and
    xi_error_estimate the last |xi_2n - xi_n|, which bounds xi's error: on
    100 log-spaced taus of 10-1000 us at nu_c=2, nu_h=3.6 the error was
    0.012-0.019 of it (median 0.016; sixth order gives 1/63).  converged is
    False if the stroke ran out of steps: every field is then its last
    pass's, the estimate at or above the tolerance.  xi is |amp|^2 >= 0,
    and rounding can take it just past 1/2 in the sudden limit: a value
    within XI_MAX_SLACK of 1/2 is stored as 1/2, so every consumer sees xi
    in [0, 1/2].  The package's one xi rule, otto_tls._check_xi, then
    refuses larger values and NaN with DomainError.
    """

    __slots__ = ()

    def __new__(cls, U: tuple[complex, ...], steps_used: int,
                xi_error_estimate: float, xi: float, converged: bool = True):
        if xi <= 0.5 + XI_MAX_SLACK:
            xi = min(xi, 0.5)
        _check_xi(xi)
        return tuple.__new__(cls, (U, steps_used, xi_error_estimate, xi,
                                   converged))


_EIGHTH_TURN = complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi))


def _propagate_magnus6(tau: float, freqs: CycleFrequencies, steps: int,
                       compression: bool) -> tuple[complex, complex, complex, complex]:
    """Sixth-order Magnus integration, one exponential per step, unrolled.

    Integrated in the frame co-rotating with the drive axis, where the
    stroke is a finite-duration Landau-Zener problem (Vitanov & Garraway,
    Phys. Rev. A 53, 4288 (1996)).  With Rz(phi) = exp(-i*phi*sz/2),
    phi = pi*t/(2*tau) and Phi(t) = 2*pi*int r*(cos + sin)(phi) dt,
    U = exp(-i*Phi) * Rz(phi) * W and

        dW/dt = -2*pi*i * (r(t)*sx - sz/(8*tau)) * W,   r = nu(t)/2.

    Over step k of n, with q in [-1/2, 1/2] the time from the step's
    midpoint in steps, the generator is -i*(a + b*q).sigma in rotation
    angles per step: a = (X_k, 0, Z), X_k = r(x) at the step's midpoint,
    Z = -pi/(4*n), and b = (delta, 0, 0), delta the change of r over the
    step.  The generator
    is linear in time, and [-i*a.sigma, -i*b.sigma] = -2i*(a x b).sigma, so
    the time-symmetric Magnus series truncated after its h^5 terms (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) is one rotation vector

        w = a - (a x b)/6 - b x (a x b)/60 + a x (a x (a x b))/90
          = (X_k, -Z*delta*(1/6 + (X_k^2 + Z^2)/90), Z*(1 - delta^2/60)),

    and the step is exp(-i*w.sigma): one sqrt, sin and cos.  w_z is never
    0 (resolve_steps keeps delta below pi/64), and within MAX_STEPS steps
    w_z^2 is far above underflow, so the rotation angle is positive and a
    subnormal tau gives W = Rz(pi/2)^dagger and U = I without a guard.
    The scalar phase is the exact integral Phi(tau) = 2*tau*(nu_c + nu_h).
    The compression stroke is the same W problem mirrored in time with the
    generator's sign flipped, which turns w into -w step by step, and
    transforms back as U = exp(+i*Phi) * W * Rz(pi/2)^dagger.
    """
    n = steps
    s = 2.0 * math.pi * tau / n
    z = -0.25 * math.pi / n
    # s is folded into the radii r(x) = r_c + r_d*x, so wx below is already
    # the rotation angle about x.
    r_c = 0.5 * s * freqs.nu_c
    r_d = 0.5 * s * (freqs.nu_h - freqs.nu_c)
    if compression:
        # H_comp(t) = -H_exp(tau - t): flip the signs and mirror r(x) to
        # r(1 - x) = (r_c + r_d) - r_d*x.
        r_c, r_d, z = -(r_c + r_d), r_d, -z
    delta = r_d / n
    x0 = r_c + 0.5 * delta
    # w_y = wy0 + wy2 * X_k^2; w_z is the same for every step.
    wy0 = -z * delta * (1.0 / 6.0 + z * z / 90.0)
    wy2 = -z * delta / 90.0
    wz = z * (1.0 - delta * delta / 60.0)
    wz2 = wz * wz
    # W is tracked as (u, v) of [[u, v], [-conj(v), conj(u)]], with u and v
    # split into real and imaginary parts: real arithmetic avoids a complex
    # object per operation.  exp(-i*w.sigma) is
    # [[c - i*d, -f - i*e], [f - i*e, c + i*d]] with c = cos(rho),
    # (e, f, d) = sin(rho)/rho * (w_x, w_y, w_z), rho = |w| > 0.
    ur, ui, vr, vi = 1.0, 0.0, 0.0, 0.0
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    for k in range(n):
        wx = x0 + delta * k
        wx2 = wx * wx
        wy = wy0 + wy2 * wx2
        rho = sqrt(wx2 + wy * wy + wz2)
        m = sin(rho) / rho
        c, d, e, f = cos(rho), m * wz, m * wx, m * wy
        ur, ui, vr, vi = (c * ur + d * ui + e * vi + f * vr,
                          c * ui - d * ur + e * vr - f * vi,
                          c * vr + d * vi - e * ui - f * ur,
                          c * vi - d * vr - e * ur + f * ui)
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


_S2 = 1.0 / math.sqrt(2.0)


def transition_probability(u: Sequence[complex]) -> float:
    """Adiabaticity parameter xi = |<+y|U|-x>|^2 of U's row-major entries.

    The excited eigenstates of the two stroke endpoints are
    |+x> = (1, 1)/sqrt(2) and |+y> = (1, i)/sqrt(2), and |-x>, |-y> their
    orthogonal partners; the amplitude is read from the entries directly.
    For a unitary U xi equals |<-y|U|+x>|^2, so only the first form is
    evaluated; any four entries are accepted, such as PropagatorResult.U.
    It also reads the compression stroke: |<+x|V|-y>|^2 is this form on
    V^dagger, so _evolve passes it _adjoint(V).
    """
    u11, u12, u21, u22 = u
    w1 = u11 * _S2 - u12 * _S2  # U|-x>
    w2 = u21 * _S2 - u22 * _S2
    amp = _S2 * w1 - 1j * _S2 * w2
    return abs(amp) ** 2


def _adjoint(a: Sequence[complex]) -> tuple[complex, ...]:
    """Row-major entries of a^dagger, from a's row-major entries."""
    a11, a12, a21, a22 = a
    return a11.conjugate(), a21.conjugate(), a12.conjugate(), a22.conjugate()


def _evolve(tau: float, freqs: CycleFrequencies, cfg: IntegratorConfig,
            compression: bool) -> PropagatorResult:
    """Magnus integration, doubling the step count until xi settles.

    Starts at cfg.resolve_steps and doubles until |xi_2n - xi_n| is below
    cfg.xi_tolerance; xi_2n and that difference are returned.  When the
    next doubling would exceed MAX_STEPS, the last pass is returned with
    converged=False; callers that need a settled xi check the flag.
    """
    def xi_of(raw):
        # |<+x|V|-y>|^2 of the compression propagator V, read on V^dagger.
        return transition_probability(_adjoint(raw) if compression else raw)

    n = cfg.resolve_steps(tau, freqs)
    raw = _propagate_magnus6(tau, freqs, n, compression)
    xi_prev = xi_of(raw)
    while 2 * n <= MAX_STEPS:
        n *= 2
        raw = _propagate_magnus6(tau, freqs, n, compression)
        xi = xi_of(raw)
        err = abs(xi - xi_prev)
        if err < cfg.xi_tolerance:
            return PropagatorResult(raw, n, err, xi)
        xi_prev = xi
    return PropagatorResult(raw, n, err, xi, converged=False)


def evolve_expansion(tau: float, freqs: CycleFrequencies,
                     cfg: IntegratorConfig = IntegratorConfig()) -> PropagatorResult:
    """Expansion-stroke propagator for a stroke of tau ms.

    The compression propagator is the adjoint of the returned unitary;
    the result's converged flag says whether xi settled.
    """
    return _evolve(tau, freqs, cfg, compression=False)


def integrate_compression(tau: float, freqs: CycleFrequencies,
                          cfg: IntegratorConfig = IntegratorConfig()) -> PropagatorResult:
    """Direct time-ordered integration of the compression stroke.

    Provided so the adjoint identity against evolve_expansion can be checked
    by two independent integrations rather than by construction.
    """
    return _evolve(tau, freqs, cfg, compression=True)


def propagate_fixed_steps(tau: float, freqs: CycleFrequencies,
                          steps: int) -> tuple[complex, ...]:
    """Expansion-stroke propagator of tau ms in exactly steps Magnus steps.

    The kernel evolve_expansion runs, without step doubling, as row-major
    entries.  steps must be an int in [1, MAX_STEPS] (otto_tls._check_count).
    """
    _check_tau(tau)
    _check_count("steps", steps, 1, MAX_STEPS)
    return _propagate_magnus6(tau, freqs, steps, False)


def xi_sweep(tau_values: Sequence[float], freqs: CycleFrequencies,
             cfg: IntegratorConfig = IntegratorConfig()) -> list[PropagatorResult]:
    """evolve_expansion for each stroke duration (ms), in input order.

    The one tau loop: the xi subcommand and run_tau_sweep both call it.
    Every tau is checked by cfg.resolve_steps before any is integrated, so
    a grid with a stroke that is not positive and finite, or too long to
    integrate, raises DomainError without doing any work.  A point that
    does not converge within MAX_STEPS is its last estimate, with
    converged=False; it does not abort the sweep.
    """
    tau_values = tuple(tau_values)  # read twice: checked, then integrated
    for tau in tau_values:
        cfg.resolve_steps(tau, freqs)
    return [evolve_expansion(tau, freqs, cfg) for tau in tau_values]
