"""Stroke propagator: limits, convergence, adjoint identity, regression."""

import math
import random

import numpy as np
import pytest

from otto_tls import (CycleFrequencies, DomainError, IntegratorConfig,
                      PropagatorResult, Unitary2, evolve_expansion,
                      integrate_compression, propagate_fixed_steps,
                      transition_probability, xi_sweep)
from otto_tls.propagator import _propagate_magnus6
from otto_tls.sweep import log_spaced

from conftest import (KET_MINUS_X, KET_MINUS_Y, KET_PLUS_X, KET_PLUS_Y,
                      midpoint_entries, random_unitary, stroke_unitary,
                      to_numpy, xi_1)

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
        # Unitarity makes |<+y|U|-x>|^2, the form evaluated, equal to
        # |<-y|U|+x>|^2, which is formed here independently.
        rng = random.Random(3)
        for _ in range(300):
            u = random_unitary(rng)
            xi = transition_probability(u)
            v = to_numpy(u) @ KET_PLUS_X
            amp = (KET_MINUS_Y[0].conjugate() * v[0]
                   + KET_MINUS_Y[1].conjugate() * v[1])
            assert 0.0 <= xi <= 1.0
            assert abs(abs(amp) ** 2 - xi) <= 1e-12

    def test_basis_phase_independence(self):
        # Replacing |+y> by e^{i phi} |+y> must not change xi.
        rng = random.Random(5)
        for _ in range(50):
            u = random_unitary(rng)
            xi = transition_probability(u)
            phi = rng.uniform(0, 2 * math.pi)
            ph = complex(math.cos(phi), math.sin(phi))
            w = to_numpy(u) @ KET_MINUS_X
            amp = ((ph * KET_PLUS_Y[0]).conjugate() * w[0]
                   + (ph * KET_PLUS_Y[1]).conjugate() * w[1])
            assert abs(abs(amp) ** 2 - xi) < 1e-12


class TestLimits:
    def test_sudden_quench(self):
        res = evolve_expansion(1e-6, FREQS)
        assert np.max(np.abs(to_numpy(res.U) - np.eye(2))) < 1e-4
        assert res.xi == pytest.approx(0.5, abs=1e-6)

    def test_subnormal_tau_is_sudden(self):
        # The step angle underflows to zero; the stroke is then the identity.
        res = evolve_expansion(5e-324, FREQS)
        assert res.xi == pytest.approx(0.5, abs=1e-12)

    def test_adiabatic_limit(self):
        assert evolve_expansion(2.0, FREQS).xi < 0.01

    def test_long_strokes_approach_first_order_adiabatic_xi(self):
        # The integrator at its tightest tolerance against the closed-form
        # xi_1, whose error falls as 1/tau^3.  C was sized from the largest
        # gap * tau^3 measured over these taus: 5.0e-4 at (2, 3.6) and
        # 1.26e-3 at (1, 2), both at 33.3 and 333.3 ms; C = 2e-3 leaves a
        # margin of 1.6x over the larger.
        cfg = IntegratorConfig(1e-14)
        for freqs in (FREQS, CycleFrequencies(1.0, 2.0)):
            for tau in (30.0, 33.3, 60.0, 100.0, 200.0, 333.3, 600.0, 1000.0):
                gap = abs(evolve_expansion(tau, freqs, cfg).xi
                          - xi_1(tau, freqs))
                assert gap <= 2e-3 / tau**3, (freqs, tau, gap)

    def test_xi_bounds_across_taus(self):
        for tau in [0.001, 0.01, 0.05, 0.2, 0.5, 1.0]:
            xi = evolve_expansion(tau, FREQS).xi
            assert 0.0 <= xi <= 0.5


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
        ref = transition_probability(midpoint_entries(tau, FREQS, 1 << 16))
        errs = []
        for p in range(7, 12):
            xi = transition_probability(midpoint_entries(tau, FREQS, 1 << p))
            errs.append(abs(xi - ref))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.25)

    def test_sixth_order_rate(self):
        # The shipped kernel through its public fixed-step entry: halving
        # the step from 8 to 128 steps cuts the xi error by ~64x, where the
        # error (2e-8 .. 1e-15) stays above rounding.
        tau = 0.3
        ref = transition_probability(propagate_fixed_steps(tau, FREQS, 1 << 14))
        errs = [abs(transition_probability(
            propagate_fixed_steps(tau, FREQS, 1 << p)) - ref)
            for p in range(3, 8)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(64.0, rel=0.25)

    def test_tolerance_self_consistency(self):
        tau = 0.4
        xi_tight = evolve_expansion(tau, FREQS,
                                    IntegratorConfig(xi_tolerance=1e-10)).xi
        loose_tol = 1e-7
        xi_loose = evolve_expansion(tau, FREQS,
                                    IntegratorConfig(xi_tolerance=loose_tol)).xi
        assert abs(xi_loose - xi_tight) < loose_tol

    def test_error_estimate_bounds_the_true_error(self):
        # The benchmark's grid, 100 log-spaced taus from 10 to 1000 us, at
        # the default tolerance: the reported |xi_2n - xi_n| bounds the
        # error of xi_2n against a 1e-14 reference at every point.  The
        # measured error / estimate ratio is 0.012-0.019 (median 0.016),
        # near the sixth-order 1/63.
        ref_cfg = IntegratorConfig(xi_tolerance=1e-14)
        for tau in (t * 1e-3 for t in log_spaced(10.0, 1000.0, 100)):
            res = evolve_expansion(tau, FREQS)
            ref = evolve_expansion(tau, FREQS, ref_cfg)
            assert ref.converged
            assert abs(res.xi - ref.xi) <= res.xi_error_estimate, f"tau={tau}"

    def test_non_convergence_carries_best(self, monkeypatch):
        # 29 -> 58 steps change xi by about 5e-10, above the tolerance, and
        # a bound of 58 steps leaves room for that one doubling only.  The
        # stroke returns its last estimate, flagged, and raises nothing.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 58)
        cfg = IntegratorConfig(xi_tolerance=1e-12)
        for integrate in (evolve_expansion, integrate_compression):
            best = integrate(1.0, FREQS, cfg)
            assert not best.converged
            assert best.steps_used == 58
            assert best.xi_error_estimate >= cfg.xi_tolerance
            assert 0.0 <= best.xi <= 0.5
        assert evolve_expansion(1.0, FREQS).converged

    def test_sudden_limit_is_stored_as_one_half(self):
        # Rounding puts this stroke's xi one ulp above 1/2; the result
        # stores 1/2, so cycle_energetics accepts it.
        res = evolve_expansion(3e-9, CycleFrequencies(1.0, 10.0))
        assert res.xi == 0.5 and res.converged
        u = res.U
        assert PropagatorResult(u, 8, 0.0, 0.5 + 1e-9).xi == 0.5
        for bad in (0.5 + 2e-9, -1e-300, math.nan):
            with pytest.raises(DomainError, match=r"xi must lie in \[0, 1/2\]"):
                PropagatorResult(u, 8, 0.0, bad)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(xi_tolerance=0.5)
        with pytest.raises(DomainError):
            evolve_expansion(-1.0, FREQS)

    def test_stroke_duration_positive(self):
        # resolve_steps and propagate_fixed_steps share one check and one
        # message.
        for check in (lambda tau: IntegratorConfig().resolve_steps(tau, FREQS),
                      lambda tau: propagate_fixed_steps(tau, FREQS, 8)):
            for tau in (0.0, -1e-3):
                with pytest.raises(DomainError, match=(
                        f"^tau must be positive and finite, got {tau} ms$")):
                    check(tau)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(DomainError):
            evolve_expansion(tau, FREQS)
        with pytest.raises(DomainError):
            propagate_fixed_steps(tau, FREQS, 8)

    def test_fixed_step_count_is_bounded(self, monkeypatch):
        # Every stroke is capped at MAX_STEPS; a step count that is not an
        # int in [1, MAX_STEPS] is refused before any step is taken.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 64)
        assert len(propagate_fixed_steps(0.3, FREQS, 64)) == 4
        for steps in (2.5, 8.0, "8", None, 0, -1, 65, 2**40):
            with pytest.raises(DomainError, match=(
                    rf"^steps must be an int in \[1, 64\], got {steps!r}$")):
                propagate_fixed_steps(0.3, FREQS, steps)

    def test_default_initial_steps(self):
        cfg = IntegratorConfig()
        assert cfg.resolve_steps(0.001, FREQS) == 8
        assert cfg.resolve_steps(1.0, FREQS) == 29


class TestStepBound:
    def test_start_must_leave_room_for_one_doubling(self, monkeypatch):
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 1024)
        freqs = CycleFrequencies(1.0, 4.0)  # 8 * nu_h * tau = 32 * tau, exact
        cfg = IntegratorConfig()
        assert cfg.resolve_steps(16.0, freqs) == 512
        # At 1e308 the start overflows to inf, which math.ceil cannot take.
        for tau in (math.nextafter(16.0, math.inf), 1e308):
            with pytest.raises(DomainError, match="too long to integrate"):
                cfg.resolve_steps(tau, freqs)

    def test_work_per_stroke_is_bounded(self, monkeypatch):
        import otto_tls.propagator as prop

        kernel, steps = prop._propagate_magnus6, []

        def counted(tau, freqs, n, compression):
            steps.append(n)
            return kernel(tau, freqs, n, compression)

        # As in test_non_convergence_carries_best: 29 -> 58 steps change xi
        # by more than 1e-12, and a bound of 58 steps allows one doubling.
        monkeypatch.setattr(prop, "MAX_STEPS", 58)
        monkeypatch.setattr(prop, "_propagate_magnus6", counted)
        best = evolve_expansion(1.0, FREQS,
                                IntegratorConfig(xi_tolerance=1e-12))
        assert not best.converged
        assert max(steps) == best.steps_used == 58
        assert sum(steps) < 2 * 58


def magnus6_xi(tau: float, steps: int, compression: bool = False) -> float:
    return transition_probability(
        Unitary2(*_propagate_magnus6(tau, FREQS, steps, compression)))


class TestMagnusKernel:
    def test_sixth_order_rate(self):
        # Halving the step cuts the xi error by ~64x from 8 to 32 steps,
        # where the error (2e-8 .. 5e-12) is far above rounding.
        tau = 0.3
        ref = magnus6_xi(tau, 1 << 12)
        errs = [abs(magnus6_xi(tau, 1 << p) - ref) for p in range(3, 6)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(64.0, rel=0.25)

    def test_compression_kernel_is_adjoint(self):
        # The Magnus step is time-symmetric, so mirroring the stroke at a
        # fixed step count reproduces the adjoint to rounding, not only to
        # tolerance.
        for tau in [0.01, 0.3, 1.0]:
            ue = Unitary2(*_propagate_magnus6(tau, FREQS, 37, False))
            uc = Unitary2(*_propagate_magnus6(tau, FREQS, 37, True))
            assert (uc - ue.adjoint()).max_abs() < 1e-13

    def test_converged_step_budget(self):
        # The midpoint rule needs 2,209,792 final steps on this grid, the
        # lab-frame CF4 kernel 17,538 and the co-rotating CF4 kernel 6,444;
        # a regression to any of them fails here.
        taus = log_spaced(0.01, 1.0, 100)
        assert sum(evolve_expansion(t, FREQS).steps_used for t in taus) <= 3500


TAUS_SUDDEN_TO_ADIABATIC = [5e-324, 1e-300, 1e-9, 1e-4, 0.01, 0.1, 0.34,
                            1.0, 2.0]


class TestUnitarity:
    # The propagator builds no Unitary2: each Magnus step is an exact SU(2)
    # rotation, and these tests prove what a construction-time check used to
    # re-prove on every stroke.  The midpoint oracle is held to the same
    # standard, from a subnormal tau up.
    @pytest.mark.parametrize("tau", TAUS_SUDDEN_TO_ADIABATIC)
    def test_every_returned_propagator_is_unitary(self, tau):
        results = [evolve_expansion(tau, FREQS).U,
                   integrate_compression(tau, FREQS).U]
        results += [integrate(tau, FREQS, steps)
                    for integrate in (propagate_fixed_steps, midpoint_entries)
                    for steps in (1, 8, 333)]
        for u in results:
            assert len(u) == 4
            Unitary2(*u)  # raises ConstraintViolation if not unitary

    def test_unconverged_best_is_unitary(self, monkeypatch):
        # A bound of 58 steps leaves each of these strokes short of a
        # 1e-14 tolerance, so each returns its last estimate, unconverged.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 58)
        cfg = IntegratorConfig(xi_tolerance=1e-14)
        for tau in (0.1, 0.34, 1.0):
            for integrate in (evolve_expansion, integrate_compression):
                best = integrate(tau, FREQS, cfg)
                assert not best.converged
                # The last pass, whose doubling would exceed the bound.
                assert best.steps_used <= 58 < 2 * best.steps_used
                assert best.xi_error_estimate >= cfg.xi_tolerance
                Unitary2(*best.U)

    def test_intermediate_unitarity(self):
        # A coarse fixed-step run stays unitary (each factor is exact).
        for steps in [3, 17, 101]:
            u = propagate_fixed_steps(0.7, FREQS, steps)
            m = to_numpy(u)
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def richardson_midpoint(tau: float, steps: int) -> list[complex]:
    """(4*U_2n - U_n)/3 from the second-order midpoint rule, entrywise."""
    coarse = midpoint_entries(tau, FREQS, steps)
    fine = midpoint_entries(tau, FREQS, 2 * steps)
    return [(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse)]


class TestFullUnitaryOracle:
    @pytest.mark.parametrize("tau", [0.01, 0.3, 1.0])
    def test_strokes_match_midpoint_richardson(self, tau):
        # Entrywise, so the global phase that xi never sees is checked too.
        ref = richardson_midpoint(tau, 1 << 14)
        for u in (Unitary2(*evolve_expansion(tau, FREQS).U),
                  Unitary2(*integrate_compression(tau, FREQS).U).adjoint()):
            got = (u.a11, u.a12, u.a21, u.a22)
            assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-9


class TestAdjointIdentity:
    def test_compression_is_adjoint_of_expansion(self):
        taus = [0.01 * (1.26 ** k) for k in range(20)]  # 10 us .. ~0.9 ms
        for tau in taus:
            ue = evolve_expansion(tau, FREQS)
            uc = integrate_compression(tau, FREQS)
            assert (Unitary2(*uc.U) - Unitary2(*ue.U).adjoint()).max_abs() \
                < 1e-9
            assert uc.xi == pytest.approx(ue.xi, abs=1e-8)


class TestSweep:
    def test_order_and_determinism(self):
        taus = [0.3, 0.05, 0.1]
        a = xi_sweep(taus, FREQS)
        b = xi_sweep(taus, FREQS)
        assert [p.xi for p in a] == [evolve_expansion(t, FREQS).xi
                                     for t in taus]
        assert a == b

    def test_failed_points_flagged_not_fatal(self, monkeypatch):
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 58)
        cfg = IntegratorConfig(xi_tolerance=1e-12)
        pts = xi_sweep([1e-6, 1.0], FREQS, cfg)
        assert len(pts) == 2
        assert pts[0].converged  # trivial stroke converges immediately
        assert not pts[1].converged
        assert pts[1].xi_error_estimate >= cfg.xi_tolerance

    def test_limit_endpoints(self):
        pts = xi_sweep([1e-4, 2.0], FREQS)
        assert pts[0].xi == pytest.approx(0.5, abs=1e-3)
        assert pts[1].xi < 0.01
