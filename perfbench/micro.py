"""Per-layer microbenchmarks at fixed inputs, through public functions only.

Each benchmark is keyed to the traced spans that show its function is on the
workload's path; a workload whose traced run never reached it reports 0.
"""

from __future__ import annotations

import statistics
import time

FIXED_STEPS = 1 << 16
BATCH_SECONDS = 0.02
BATCHES = 5


def per_call_seconds(fn, batch_seconds: float = BATCH_SECONDS,
                     batches: int = BATCHES) -> float:
    """Median over batches of the mean time per call of fn()."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= batch_seconds / 4:
            break
        n *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def benchmarks(otto):
    """(metric, scale to the metric's unit, gating span names, thunk) tuples."""
    freqs = otto.CycleFrequencies(2.0, 3.6)
    inputs = otto.CycleInputs(freqs, 0.3, 0.85, 0.2)  # engine mode
    h = otto.Hermitian2(0.3, 0.2 + 0.1j, 0.2 - 0.1j, -0.4)
    u = otto.exp_neg_i_h(h, 0.7)
    rho = otto.gibbs_state(0.3, "x")
    rho_final = otto.Density2(*(u @ rho @ u.adjoint()).entries())
    sigma = otto.gibbs_state(0.3, "y")
    u_c = otto.exponent_from_population(0.3)
    evolve = ("propagator.evolve_expansion", "propagator.integrate_compression")
    return [
        ("propagator.ns_per_step", 1e9 / FIXED_STEPS, evolve,
         lambda: otto.propagate_fixed_steps(0.3, freqs, FIXED_STEPS)),
        ("thermo.cycle_energetics_us", 1e6, ("thermo.cycle_energetics",),
         lambda: otto.cycle_energetics(inputs)),
        ("thermo.energetics_from_states_us", 1e6, ("thermo.energetics_from_states",),
         lambda: otto.energetics_from_states(0.3, 0.85, u, freqs)),
        ("thermo.relative_entropy_us", 1e6, ("thermo.relative_entropy",),
         lambda: otto.relative_entropy(rho_final, sigma)),
        ("thermo.friction_from_divergence_us", 1e6, ("thermo.friction_from_divergence",),
         lambda: otto.friction_from_divergence(0.3, u_c, u, "expansion", freqs)),
        ("complex2.exp_neg_i_h_us", 1e6, ("complex2.exp_neg_i_h",),
         lambda: otto.exp_neg_i_h(h, 0.7)),
        ("complex2.eig_hermitian2_us", 1e6, ("complex2.eig_hermitian2",),
         lambda: otto.eig_hermitian2(h)),
        # Products are methods, not traced lookups: gate on the complex2 calls
        # whose results the oracles multiply.
        ("complex2.matmul_us", 1e6, ("complex2.exp_neg_i_h", "complex2.eig_hermitian2"),
         lambda: u @ rho),
        ("tls.gibbs_state_us", 1e6, ("tls.gibbs_state",),
         lambda: otto.gibbs_state(0.3, "x")),
    ]


def run(otto, span_names: set[str]) -> dict[str, float]:
    out = {}
    for metric, scale, gates, thunk in benchmarks(otto):
        hit = any(g in span_names for g in gates)
        out[metric] = per_call_seconds(thunk) * scale if hit else 0.0
    return out
