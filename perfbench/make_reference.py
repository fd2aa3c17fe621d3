"""Regenerate reference_xi.json, the xi reference for the tau-sweep check.

    python3 perfbench/make_reference.py

The reference is the Richardson extrapolation (4 xi(4n) - xi(2n)) / 3 of
the program's fixed-step midpoint integrator, with n the converged step
count, on the benchmark's 100-point tau grid.  It is confirmed against a
classical RK4 integration written here, independent of the program, and the
largest deviation is stored with the values.  Takes about a minute.
"""

from __future__ import annotations

import json
import math

from program import import_package
from workloads import (NU_C, NU_H, REFERENCE_PATH, TAU_MAX_US, TAU_MIN_US,
                       TAU_POINTS, XI_TOL, log_grid)

RK4_STEPS_PER_MS = 40000
S2 = 1.0 / math.sqrt(2.0)


def rk4_xi(tau_ms: float) -> float:
    """xi = |<+y|psi(tau)>|^2 from RK4 on d psi/dt = -2 pi i H(t) psi, psi(0) = |-x>."""
    steps = max(2000, math.ceil(RK4_STEPS_PER_MS * tau_ms))
    dt = tau_ms / steps

    def deriv(t, a, b):
        x = t / tau_ms
        r = 0.5 * ((1.0 - x) * NU_C + x * NU_H)
        th = 0.5 * math.pi * x
        d = r * (math.cos(th) + math.sin(th))
        off = r * complex(math.cos(th), -math.sin(th))
        k = -2j * math.pi
        return k * (d * a + off * b), k * (off.conjugate() * a + d * b)

    a, b = complex(S2), complex(-S2)
    for i in range(steps):
        t = i * dt
        k1 = deriv(t, a, b)
        k2 = deriv(t + 0.5 * dt, a + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = deriv(t + 0.5 * dt, a + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = deriv(t + dt, a + dt * k3[0], b + dt * k3[1])
        a += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        b += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return abs(S2 * a - 1j * S2 * b) ** 2


def main() -> None:
    otto = import_package()
    freqs = otto.CycleFrequencies(NU_C, NU_H)
    taus = log_grid(TAU_MIN_US, TAU_MAX_US, TAU_POINTS)
    xis, worst = [], 0.0
    for tau_us in taus:
        tau = tau_us * 1e-3
        n = otto.evolve_expansion(tau, freqs).steps_used
        x2, x4 = (otto.transition_probability(
            otto.propagate_fixed_steps(tau, freqs, m * n)) for m in (2, 4))
        xi = (4.0 * x4 - x2) / 3.0
        worst = max(worst, abs(xi - rk4_xi(tau)))
        xis.append(xi)
    if worst > XI_TOL / 10:
        raise SystemExit(f"reference disagrees with RK4 by {worst:.3g}")
    REFERENCE_PATH.write_text(json.dumps({
        "nu_c": NU_C, "nu_h": NU_H, "tau_us": taus, "xi": xis,
        "method": "Richardson (4 xi(4n) - xi(2n))/3 of propagate_fixed_steps, "
                  "n = converged steps_used",
        "rk4_steps_per_ms": RK4_STEPS_PER_MS,
        "rk4_max_abs_deviation": worst,
    }, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: {len(xis)} points, "
          f"max |reference - RK4| = {worst:.3g}")


if __name__ == "__main__":
    main()
