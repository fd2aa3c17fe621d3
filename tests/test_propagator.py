"""Stroke propagator: limits, convergence, adjoint identity, regression."""

import math
import random

import numpy as np
import pytest

from otto_tls import (ConvergenceError, CycleFrequencies, DomainError,
                      IntegratorConfig, UnitarityError, Unitary2,
                      evolve_expansion, integrate_compression,
                      propagate_fixed_steps, transition_probability, xi_sweep)
from otto_tls.complex2 import IDENTITY
from otto_tls.propagator import _propagate_cf4
from otto_tls.sweep import log_spaced
from otto_tls.tls import KET_MINUS_X, KET_PLUS_Y

from conftest import random_unitary, stroke_unitary

FREQS = CycleFrequencies(2.0, 3.6)

# xi(tau) at nu_c=2, nu_h=3.6 kHz; values frozen from the midpoint integrator
# refined to 16x the converged step count and cross-checked against an
# independent fixed-step RK4 integration (agreement ~1e-12).
GOLDEN_XI = [
    (50, 0.467103478862074),
    (100, 0.3786091733463713),
    (150, 0.2609560562212636),
    (200, 0.14632047027508113),
    (250, 0.060572073132387404),
    (300, 0.014986338185039668),
    (350, 0.004913409728421249),
    (400, 0.015119739977605264),
    (450, 0.02847813408127153),
    (500, 0.03356631984106488),
    (550, 0.02791589867387093),
    (600, 0.01628004248020764),
    (650, 0.005841337050720587),
    (700, 0.00145265451327363),
    (750, 0.003378645638442137),
    (800, 0.008186173012012275),
    (850, 0.011587663604025179),
    (900, 0.01118869437323591),
    (950, 0.007545074213116542),
    (1000, 0.0032236338968358418),
]


def rk4_xi(tau: float, steps: int) -> float:
    """Independent oracle: classical RK4 on dU/dt = -2 pi i H(t) U."""
    px = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    py = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)

    def ham(t):
        nu = (1 - t / tau) * FREQS.nu_c + (t / tau) * FREQS.nu_h
        th = 0.5 * math.pi * t / tau
        return nu * (math.cos(th) * px + math.sin(th) * py)

    def deriv(t, u):
        return -2j * math.pi * ham(t) @ u

    u = np.eye(2, dtype=complex)
    dt = tau / steps
    for k in range(steps):
        t = k * dt
        k1 = deriv(t, u)
        k2 = deriv(t + dt / 2, u + dt / 2 * k1)
        k3 = deriv(t + dt / 2, u + dt / 2 * k2)
        k4 = deriv(t + dt, u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    mx = np.array([KET_MINUS_X[0], KET_MINUS_X[1]])
    py_ket = np.array([KET_PLUS_Y[0], KET_PLUS_Y[1]])
    return float(abs(py_ket.conj() @ (u @ mx)) ** 2)


class TestTransitionProbability:
    def test_identity_gives_half(self):
        assert transition_probability(Unitary2(1, 0, 0, 1)) == pytest.approx(
            0.5, abs=1e-14)

    def test_perfect_adiabatic_mapper_gives_zero(self):
        u = stroke_unitary(0.0)
        assert transition_probability(u) == pytest.approx(0.0, abs=1e-14)

    def test_both_forms_agree_on_random_unitaries(self):
        rng = random.Random(3)
        for _ in range(300):
            u = random_unitary(rng)
            # Raises UnitarityError if the two Eq-forms disagree.
            xi = transition_probability(u)
            assert 0.0 <= xi <= 1.0

    def test_disagreement_detected(self):
        # A barely-valid "unitary" distorted past the internal consistency
        # check must raise rather than return a wrong xi.
        almost = Unitary2(1.0, 5e-11, 5e-11, -1.0)
        # Forms differ only by rounding here, so this should pass...
        transition_probability(almost)
        # tuple.__new__ skips the Unitary2 check, as namedtuple's _make does.
        bad = tuple.__new__(Unitary2, (1.0, 1e-3, 0.0, 1.0))
        with pytest.raises(UnitarityError):
            transition_probability(bad)

    def test_basis_phase_independence(self):
        # Replacing |+y> by e^{i phi} |+y> must not change xi.
        rng = random.Random(5)
        for _ in range(50):
            u = random_unitary(rng)
            xi = transition_probability(u)
            phi = rng.uniform(0, 2 * math.pi)
            ph = complex(math.cos(phi), math.sin(phi))
            w = u.apply(KET_MINUS_X)
            amp = ((ph * KET_PLUS_Y[0]).conjugate() * w[0]
                   + (ph * KET_PLUS_Y[1]).conjugate() * w[1])
            assert abs(abs(amp) ** 2 - xi) < 1e-12


class TestLimits:
    def test_sudden_quench(self):
        res = evolve_expansion(1e-6, FREQS)
        assert (res.U - IDENTITY).max_abs() < 1e-4
        assert res.xi == pytest.approx(0.5, abs=1e-6)

    def test_subnormal_tau_is_sudden(self):
        # The step angle underflows to zero; the stroke is then the identity.
        res = evolve_expansion(5e-324, FREQS)
        assert res.xi == pytest.approx(0.5, abs=1e-12)

    def test_adiabatic_limit(self):
        assert evolve_expansion(2.0, FREQS).xi < 0.01

    def test_xi_bounds_across_taus(self):
        for tau in [0.001, 0.01, 0.05, 0.2, 0.5, 1.0]:
            xi = evolve_expansion(tau, FREQS).xi
            assert -1e-12 <= xi <= 0.5 + 1e-9


class TestConvergence:
    def test_golden_regression(self):
        for tau_us, golden in GOLDEN_XI:
            res = evolve_expansion(tau_us * 1e-3, FREQS)
            assert res.xi == pytest.approx(golden, abs=5e-9), f"tau={tau_us}us"
            assert res.xi_error_estimate < 1e-9

    @pytest.mark.parametrize("tau_us", [100, 400, 1000])
    def test_rk4_oracle_agreement(self, tau_us):
        res = evolve_expansion(tau_us * 1e-3, FREQS)
        oracle = rk4_xi(tau_us * 1e-3, 20000)
        assert res.xi == pytest.approx(oracle, abs=1e-8)

    def test_second_order_rate(self):
        # Halving the step cuts the xi error by ~4x over a decade of sizes.
        tau = 0.3
        ref = transition_probability(propagate_fixed_steps(tau, FREQS, 1 << 16))
        errs = []
        for p in range(7, 12):
            xi = transition_probability(propagate_fixed_steps(tau, FREQS, 1 << p))
            errs.append(abs(xi - ref))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.25)

    def test_tolerance_self_consistency(self):
        tau = 0.4
        xi_tight = evolve_expansion(tau, FREQS,
                                    IntegratorConfig(xi_tolerance=1e-10)).xi
        loose_tol = 1e-7
        xi_loose = evolve_expansion(tau, FREQS,
                                    IntegratorConfig(xi_tolerance=loose_tol)).xi
        assert abs(xi_loose - xi_tight) < loose_tol

    def test_non_convergence_carries_best(self):
        cfg = IntegratorConfig(initial_steps=2, xi_tolerance=1e-9,
                               max_doublings=2)
        with pytest.raises(ConvergenceError) as exc:
            evolve_expansion(1.0, FREQS, cfg)
        best = exc.value.best
        assert best is not None
        assert best.steps_used == 8
        assert 0.0 <= best.xi <= 0.5 + 1e-9

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(initial_steps=1)
        with pytest.raises(DomainError):
            IntegratorConfig(xi_tolerance=0.5)
        with pytest.raises(DomainError):
            evolve_expansion(-1.0, FREQS)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(DomainError):
            evolve_expansion(tau, FREQS)
        with pytest.raises(DomainError):
            propagate_fixed_steps(tau, FREQS, 8)

    def test_default_initial_steps(self):
        cfg = IntegratorConfig()
        assert cfg.resolve_steps(0.001, FREQS) == 16
        assert cfg.resolve_steps(1.0, FREQS) == 58


def cf4_xi(tau: float, steps: int, compression: bool = False) -> float:
    return transition_probability(
        Unitary2(*_propagate_cf4(tau, FREQS, steps, compression)))


class TestCF4Kernel:
    def test_fourth_order_rate(self):
        # Halving the step cuts the xi error by ~16x from 16 to 256 steps.
        tau = 0.3
        ref = cf4_xi(tau, 1 << 12)
        errs = [abs(cf4_xi(tau, 1 << p) - ref) for p in range(4, 9)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(16.0, rel=0.25)

    def test_compression_kernel_is_adjoint(self):
        # CF4 is time-symmetric, so mirroring the stroke at a fixed step
        # count reproduces the adjoint to rounding, not only to tolerance.
        for tau in [0.01, 0.3, 1.0]:
            ue = Unitary2(*_propagate_cf4(tau, FREQS, 37, False))
            uc = Unitary2(*_propagate_cf4(tau, FREQS, 37, True))
            assert (uc - ue.adjoint()).max_abs() < 1e-13

    def test_converged_step_budget(self):
        # The midpoint rule needs 2,209,792 final steps on this grid and the
        # lab-frame CF4 kernel 17,538; a regression to either fails here.
        taus = log_spaced(0.01, 1.0, 100)
        assert sum(evolve_expansion(t, FREQS).steps_used for t in taus) <= 8000


class TestUnitarity:
    def test_intermediate_unitarity(self):
        # Every returned propagator passes the Unitary2 constructor, and a
        # coarse fixed-step run stays unitary too (each factor is exact).
        for steps in [3, 17, 101]:
            u = propagate_fixed_steps(0.7, FREQS, steps)
            assert ((u.adjoint() @ u) - IDENTITY).max_abs() < 1e-12


def richardson_midpoint(tau: float, steps: int) -> list[complex]:
    """(4*U_2n - U_n)/3 from the second-order midpoint rule, entrywise."""
    coarse = propagate_fixed_steps(tau, FREQS, steps)
    fine = propagate_fixed_steps(tau, FREQS, 2 * steps)
    return [(4.0 * f - c) / 3.0 for f, c in zip(
        (fine.a11, fine.a12, fine.a21, fine.a22),
        (coarse.a11, coarse.a12, coarse.a21, coarse.a22))]


class TestFullUnitaryOracle:
    @pytest.mark.parametrize("tau", [0.01, 0.3, 1.0])
    def test_strokes_match_midpoint_richardson(self, tau):
        # Entrywise, so the global phase that xi never sees is checked too.
        ref = richardson_midpoint(tau, 1 << 14)
        for u in (evolve_expansion(tau, FREQS).U,
                  integrate_compression(tau, FREQS).U.adjoint()):
            got = (u.a11, u.a12, u.a21, u.a22)
            assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-9


class TestAdjointIdentity:
    def test_compression_is_adjoint_of_expansion(self):
        taus = [0.01 * (1.26 ** k) for k in range(20)]  # 10 us .. ~0.9 ms
        for tau in taus:
            ue = evolve_expansion(tau, FREQS)
            uc = integrate_compression(tau, FREQS)
            assert (uc.U - ue.U.adjoint()).max_abs() < 1e-9
            assert uc.xi == pytest.approx(ue.xi, abs=1e-8)


class TestSweep:
    def test_order_and_determinism(self):
        taus = [0.3, 0.05, 0.1]
        a = xi_sweep(taus, FREQS)
        b = xi_sweep(taus, FREQS)
        assert [p.tau for p in a] == taus
        assert [(p.tau, p.xi, p.error_estimate) for p in a] == \
               [(p.tau, p.xi, p.error_estimate) for p in b]

    def test_failed_points_flagged_not_fatal(self):
        cfg = IntegratorConfig(initial_steps=2, max_doublings=1)
        pts = xi_sweep([1e-6, 1.0], FREQS, cfg)
        assert len(pts) == 2
        assert pts[0].converged  # trivial stroke converges immediately
        assert not pts[1].converged

    def test_limit_endpoints(self):
        pts = xi_sweep([1e-4, 2.0], FREQS)
        assert pts[0].xi == pytest.approx(0.5, abs=1e-3)
        assert pts[1].xi < 0.01
