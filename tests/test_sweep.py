"""Tau sweeps and the friction phase map."""

import math

import pytest

from otto_tls import (CycleFrequencies, DomainError, IntegratorConfig,
                      PhaseMapSpec, TauSweepSpec, adiabatic_efficiency,
                      negative_friction_window, run_phase_map, run_tau_sweep,
                      zero_friction_line)
from otto_tls.sweep import linear_spaced, log_spaced
from otto_tls.thermo import MODE_ENGINE

FREQS = CycleFrequencies(2.0, 3.6)
FAST_CFG = IntegratorConfig(xi_tolerance=1e-8)


def sweep(p_c, p_h, points=15, **kw):
    return run_tau_sweep(TauSweepSpec(FREQS, p_c, p_h, 10.0, 1000.0, points,
                                      FAST_CFG, **kw))


class TestGrids:
    def test_log_spacing_endpoints(self):
        g = log_spaced(10.0, 1000.0, 5)
        assert g[0] == pytest.approx(10.0) and g[-1] == pytest.approx(1000.0)
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_linear_spacing(self):
        assert linear_spaced(0.0, 1.0, 3) == [0.0, 0.5, 1.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            log_spaced(10.0, 5.0, 4)
        with pytest.raises(DomainError):
            TauSweepSpec(FREQS, 0.4, 0.8, 100.0, 10.0, 10)

    @pytest.mark.parametrize("spacing", [log_spaced, linear_spaced])
    @pytest.mark.parametrize("lo, hi, bad", [
        (10.0, math.inf, "inf"), (-math.inf, 10.0, "-inf"),
        (math.nan, 10.0, "nan"), (1.0, math.nan, "nan"),
    ])
    def test_non_finite_bounds_named(self, spacing, lo, hi, bad):
        with pytest.raises(DomainError,
                           match=f"^grid bounds must be finite, got {bad}$"):
            spacing(lo, hi, 4)


class TestTauSweep:
    def test_negative_temperature_engine_everywhere(self):
        rows = sweep(0.4, 0.8)
        eta_ad = adiabatic_efficiency(FREQS)
        for r in rows:
            assert r.converged
            assert r.energetics.mode == MODE_ENGINE
            assert r.energetics.q_h > 0
            assert r.energetics.w_net < 0
            assert r.energetics.eta > eta_ad
        # Efficiency is largest at the smallest stroke duration.
        assert rows[0].energetics.eta == max(r.energetics.eta for r in rows)

    def test_zero_friction_line_population(self):
        rows = sweep(1.0 / 3.0, 0.8)
        w_nets = [r.energetics.w_net for r in rows]
        for r in rows:
            assert abs(r.energetics.w_fric) < 1e-10
        assert max(w_nets) - min(w_nets) < 1e-9

    def test_positive_temperature_engine_threshold(self):
        rows = sweep(0.2, 0.4, points=25)
        for r in rows:
            if r.xi > 1e-12:
                assert r.energetics.w_fric > 0
        modes = [r.energetics.mode == MODE_ENGINE for r in rows]
        assert not modes[0]          # fails at short strokes
        assert modes[-1]             # runs once xi is small enough
        eta_ad = adiabatic_efficiency(FREQS)
        engine_rows = [r for r in rows if r.energetics.mode == MODE_ENGINE]
        assert all(r.energetics.eta <= eta_ad + 1e-12 for r in engine_rows)
        # eta approaches the adiabatic value from below as tau grows
        # (xi ~ 3e-3 at tau = 1 ms still leaves a visible offset).
        assert eta_ad - engine_rows[-1].energetics.eta < 0.01

    def test_rows_in_tau_order_and_deterministic(self):
        a = sweep(0.4, 0.8, points=8)
        b = sweep(0.4, 0.8, points=8)
        taus = [r.tau_us for r in a]
        assert taus == sorted(taus)
        assert [(r.tau_us, r.xi, r.energetics.w_net) for r in a] == \
               [(r.tau_us, r.xi, r.energetics.w_net) for r in b]


class TestPhaseMap:
    def spec(self, xi=0.25):
        return PhaseMapSpec(FREQS,
                            ph_values=linear_spaced(0.05, 1.0, 20),
                            pc_values=linear_spaced(0.05, 0.49, 12),
                            xi=xi)

    def test_no_inversion_no_negative_friction(self):
        for row in run_phase_map(self.spec()):
            if row.p_h <= 0.5:
                assert row.w_fric >= 0.0

    def test_most_negative_in_deep_inversion_corner(self):
        rows = run_phase_map(self.spec())
        most_negative = min(rows, key=lambda r: r.w_fric)
        assert most_negative.p_h == max(r.p_h for r in rows)
        assert most_negative.p_c == max(r.p_c for r in rows)

    def test_sign_agrees_with_window(self):
        for row in run_phase_map(self.spec()):
            w = negative_friction_window(row.p_h, FREQS)
            inside = w is not None and w[0] < row.p_c < w[1]
            assert (row.w_fric < 0) == inside

    def test_zero_line_through_reference_point(self):
        line = dict(zero_friction_line([0.8, 1.0], FREQS))
        assert line[0.8] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert line[1.0] == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_xi_from_tau_once(self):
        spec = PhaseMapSpec(FREQS,
                            ph_values=[0.4, 0.8],
                            pc_values=[0.2, 0.4],
                            tau_us=300.0,
                            cfg=FAST_CFG)
        xi = spec.resolve_xi()
        assert 0.0 < xi < 0.5
        rows = run_phase_map(spec)
        # Sign structure is xi-independent; magnitudes scale with xi.
        ref = run_phase_map(PhaseMapSpec(FREQS, ph_values=[0.4, 0.8],
                                         pc_values=[0.2, 0.4], xi=xi))
        assert [(r.p_h, r.p_c, r.w_fric) for r in rows] == \
               [(r.p_h, r.p_c, r.w_fric) for r in ref]

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            PhaseMapSpec(FREQS, ph_values=[0.5], pc_values=[0.1, 0.2])
        with pytest.raises(DomainError):
            PhaseMapSpec(FREQS, ph_values=[0.5, 0.4], pc_values=[0.1, 0.2])
        with pytest.raises(DomainError):
            PhaseMapSpec(FREQS, ph_values=[0.5, 0.8], pc_values=[0.1, 0.6])
        with pytest.raises(DomainError):
            PhaseMapSpec(FREQS, ph_values=[-0.1, 0.8], pc_values=[0.1, 0.2])
        with pytest.raises(DomainError):
            PhaseMapSpec(FREQS, ph_values=[0.5, 0.8], pc_values=[-1e-9, 0.2])
        # Grids may start at the zero-temperature population p = 0.
        spec = PhaseMapSpec(FREQS, ph_values=[0.0, 1.0], pc_values=[0.0, 0.5])
        assert [(r.p_h, r.p_c) for r in run_phase_map(spec)] == \
               [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)]

    def test_determinism_across_threads(self):
        a = run_phase_map(self.spec(), threads=1)
        b = run_phase_map(self.spec(), threads=4)
        assert a == b
