"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion; any failure is a release blocker.
"""

import math
import random
import time

import pytest

from otto_tls import (CycleFrequencies, CycleInputs, IntegratorConfig,
                      Unitary2, adiabatic_efficiency, cycle_energetics,
                      energetics_from_states, evolve_expansion,
                      exponent_from_population, integrate_compression,
                      run_tau_sweep, transition_probability, xi_sweep,
                      zero_friction_pc)
from otto_tls.sweep import log_spaced
from otto_tls.thermo import MODE_ENGINE
from otto_tls.verify import stroke_divergence

from conftest import midpoint_entries, random_stroke_unitary

FREQS = CycleFrequencies(2.0, 3.6)
ETA_AD = 1.0 - 2.0 / 3.6


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_1_xi_limits_and_sweep_time():
    fast = evolve_expansion(1e-4, FREQS).xi      # tau = 0.1 us
    assert 0.499 <= fast <= 0.5
    slow = evolve_expansion(2.0, FREQS).xi       # tau = 2000 us
    assert slow < 0.01
    taus_ms = [t * 1e-3 for t in log_spaced(10.0, 1000.0, 100)]
    t0 = time.perf_counter()
    pts = xi_sweep(taus_ms, FREQS)
    elapsed = time.perf_counter() - t0
    assert all(p.converged for p in pts)
    assert elapsed < 5.0, f"100-point sweep took {elapsed:.2f}s"
    report(1, f"xi(0.1us)={fast:.6f}, xi(2000us)={slow:.2e}, "
              f"100-point sweep in {elapsed:.2f}s")


def test_criterion_2_adiabatic_efficiency():
    en = cycle_energetics(CycleInputs(FREQS, 0.4, 0.8, 0.0))
    assert en.eta is not None
    assert abs(en.eta - ETA_AD) <= 1e-12
    assert abs(adiabatic_efficiency(FREQS) - ETA_AD) <= 1e-12
    report(2, f"eta(xi=0) = {en.eta:.12f} = 1 - nu_c/nu_h")


def test_criterion_3_negative_friction_window():
    p_c_star = zero_friction_pc(0.8, FREQS)  # the window is (p_c*, 1]
    assert abs(p_c_star - 1.0 / 3.0) <= 1e-12
    rng = random.Random(101)
    for _ in range(1000):
        p_c = rng.uniform(1e-3, 0.5 - 1e-9)
        xi = rng.uniform(1e-9, 0.5)
        w_fric = cycle_energetics(CycleInputs(FREQS, p_c, 0.8, xi)).w_fric
        if p_c_star < p_c <= 1.0:
            assert w_fric < 0.0
        else:
            assert w_fric >= 0.0
    report(3, "lower bound 1/3 exact; sign correct on 10^3 samples")


def _oracle_sample(n=1000, seed=202):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        p_c = rng.uniform(0.01, 0.99)
        p_h = rng.uniform(0.01, 0.99)
        u = random_stroke_unitary(rng)
        out.append((p_c, p_h, u))
    return out


def test_criterion_4_oracle_equivalence():
    worst = 0.0
    for p_c, p_h, u in _oracle_sample():
        xi = transition_probability(u)
        cf = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
        tr = energetics_from_states(p_c, p_h, u, FREQS)
        for a, b in [(cf.w_exp, tr.w_exp), (cf.w_comp, tr.w_comp),
                     (cf.q_c, tr.q_c), (cf.q_h, tr.q_h)]:
            worst = max(worst, abs(a - b))
    assert worst <= 1e-10
    report(4, f"closed forms vs trace energetics on 10^3 unitaries, "
              f"max deviation {worst:.2e}")


def test_criterion_5_first_law_and_decomposition():
    worst_close = worst_dec = 0.0
    for p_c, p_h, u in _oracle_sample():
        xi = transition_probability(u)
        en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
        worst_close = max(worst_close,
                          abs(en.w_exp + en.w_comp + en.q_c + en.q_h))
        worst_dec = max(worst_dec, abs(en.w_net - (en.w_ad + en.w_fric)))
    assert worst_close <= 1e-12
    assert worst_dec <= 1e-12
    report(5, f"closure {worst_close:.2e}, decomposition {worst_dec:.2e}")


def test_criterion_6_entropy_production_route():
    rng = random.Random(303)
    worst = 0.0
    saw_negative = False
    for _ in range(200):
        u = random_stroke_unitary(rng)
        xi = transition_probability(u)
        for compression, nu_fin in ((False, 3.6), (True, 2.0)):
            p = rng.uniform(0.02, 0.98)
            if abs(p - 0.5) < 1e-6:
                continue
            # The matrix route: the rotated Gibbs state against its
            # quasi-static reference, times the stroke temperature.
            divergence = stroke_divergence(p, u, compression)
            assert divergence >= -1e-12
            work = nu_fin / exponent_from_population(p) * divergence
            term = nu_fin * xi * (1.0 - 2.0 * p)
            worst = max(worst, abs(work - term))
            if work < -1e-12:
                saw_negative = True
    assert worst <= 1e-10
    assert saw_negative  # inverted reservoirs do produce negative friction
    report(6, f"divergence route matches friction terms, max dev {worst:.2e}; "
              f"D >= 0 throughout")


def test_criterion_7_negative_temperature_sweep():
    taus = log_spaced(0.01, 1.0, 25)  # ms

    cfg = IntegratorConfig()
    rows = run_tau_sweep(FREQS, 0.4, 0.8, taus, cfg)
    etas = [en.eta for _, en in rows]
    assert all(en.mode == MODE_ENGINE for _, en in rows)
    assert all(en.q_h > 0 for _, en in rows)
    assert all(en.w_net < 0 for _, en in rows)
    assert all(e > ETA_AD for e in etas)
    assert etas[0] == max(etas)

    rows0 = run_tau_sweep(FREQS, 1.0 / 3.0, 0.8, taus, cfg)
    assert all(abs(en.w_fric) <= 1e-10 for _, en in rows0)
    w_nets = [en.w_net for _, en in rows0]
    assert max(w_nets) - min(w_nets) <= 1e-9

    rows_p = run_tau_sweep(FREQS, 0.25, 0.8, taus, cfg)
    assert all(en.w_fric > 0 for pt, en in rows_p if pt.xi > 1e-12)
    report(7, "p_c=0.4 engine everywhere with eta>eta_ad maximal at short "
              "tau; p_c=1/3 frictionless with constant W_net; p_c=0.25 "
              "friction positive")


def test_criterion_8_positive_temperature_sweep():
    taus = log_spaced(0.01, 1.0, 25)  # ms
    rows = run_tau_sweep(FREQS, 0.2, 0.4, taus, IntegratorConfig())
    assert all(en.w_fric > 0 for pt, en in rows if pt.xi > 1e-12)
    engine = [en.mode == MODE_ENGINE for _, en in rows]
    assert not engine[0] and engine[-1]
    switch = engine.index(True)
    assert all(engine[switch:])  # single threshold, engine above it
    eta_tail = rows[-1][1].eta
    assert eta_tail < ETA_AD and ETA_AD - eta_tail < 0.01
    report(8, f"engine onset at tau ~ {taus[switch] * 1e3:.0f} us; "
              f"eta -> eta_ad from below (eta(1ms)={eta_tail:.4f})")


def test_criterion_9_adjoint_identity():
    worst = 0.0
    for tau in log_spaced(0.01, 1.0, 20):
        ue = Unitary2(*evolve_expansion(tau, FREQS).U)
        uc = Unitary2(*integrate_compression(tau, FREQS).U)
        worst = max(worst, (uc - ue.adjoint()).max_abs())
    assert worst <= 1e-9
    report(9, f"compression vs adjoint expansion over 20 taus, "
              f"max deviation {worst:.2e}")


def test_criterion_10_convergence():
    res = evolve_expansion(0.5, FREQS, IntegratorConfig())
    assert res.xi_error_estimate < 1e-9

    tau = 0.3
    ref = transition_probability(midpoint_entries(tau, FREQS, 1 << 16))
    errs = [abs(transition_probability(
        midpoint_entries(tau, FREQS, 1 << p)) - ref)
        for p in range(7, 12)]
    ratios = [c / f for c, f in zip(errs, errs[1:])]
    for ratio in ratios:
        assert ratio == pytest.approx(4.0, rel=0.25)
    report(10, f"self-error {res.xi_error_estimate:.1e} < 1e-9; halving "
               f"ratios {['%.2f' % r for r in ratios]} ~ 4 (second order)")
