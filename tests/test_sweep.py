"""Tau sweeps and the friction phase map."""

import math
import os

import pytest

from otto_tls import (CycleFrequencies, CycleInputs, DomainError,
                      IntegratorConfig, adiabatic_efficiency,
                      cycle_energetics, negative_friction_window,
                      run_phase_map, run_tau_sweep, xi_sweep,
                      zero_friction_pc)
from otto_tls.sweep import MAX_POINTS, linear_spaced, log_spaced
from otto_tls.thermo import MODE_ENGINE

FREQS = CycleFrequencies(2.0, 3.6)
FAST_CFG = IntegratorConfig(xi_tolerance=1e-8)


def sweep(p_c, p_h, points=15):
    return run_tau_sweep(FREQS, p_c, p_h, log_spaced(0.01, 1.0, points),
                         FAST_CFG)


class TestGrids:
    def test_log_spacing_endpoints(self):
        g = log_spaced(10.0, 1000.0, 100)
        assert (g[0], g[-1]) == (10.0, 1000.0)  # not exp(log(x)), off by ulps
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_linear_spacing(self):
        assert linear_spaced(0.0, 1.0, 3) == [0.0, 0.5, 1.0]
        # lo + (hi - lo) rounds above hi for these bounds.
        assert linear_spaced(0.04, 0.5, 6)[-1] == 0.5
        assert linear_spaced(0.1, 1.0, 14)[-1] == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            log_spaced(10.0, 5.0, 4)
        with pytest.raises(DomainError):
            run_tau_sweep(FREQS, 0.4, 0.8, [0.1, -0.01], FAST_CFG)

    @pytest.mark.parametrize("spacing", [log_spaced, linear_spaced])
    @pytest.mark.parametrize("lo, hi, bad", [
        (10.0, math.inf, "inf"), (-math.inf, 10.0, "-inf"),
        (math.nan, 10.0, "nan"), (1.0, math.nan, "nan"),
    ])
    def test_non_finite_bounds_named(self, spacing, lo, hi, bad):
        with pytest.raises(DomainError,
                           match=f"^grid bounds must be finite, got {bad}$"):
            spacing(lo, hi, 4)

    @pytest.mark.parametrize("spacing", [log_spaced, linear_spaced])
    def test_point_count_is_bounded(self, spacing):
        assert len(spacing(1.0, 2.0, MAX_POINTS)) == MAX_POINTS
        for points in (1, 0, -1, MAX_POINTS + 1, 300_000_000, 10**30):
            with pytest.raises(DomainError, match=(
                    rf"^points must be an int in \[2, {MAX_POINTS}\], "
                    rf"got {points}$")):
                spacing(1.0, 2.0, points)


class TestTauSweep:
    def test_negative_temperature_engine_everywhere(self):
        rows = sweep(0.4, 0.8)
        eta_ad = adiabatic_efficiency(FREQS)
        for pt, en in rows:
            assert pt.converged
            assert en.mode == MODE_ENGINE
            assert en.q_h > 0
            assert en.w_net < 0
            assert en.eta > eta_ad
        # Efficiency is largest at the smallest stroke duration.
        assert rows[0][1].eta == max(en.eta for _, en in rows)

    def test_zero_friction_line_population(self):
        p_c = zero_friction_pc(0.8, FREQS)
        assert p_c == pytest.approx(1.0 / 3.0, abs=1e-12)
        rows = sweep(p_c, 0.8)
        w_nets = [en.w_net for _, en in rows]
        for _, en in rows:
            assert abs(en.w_fric) < 1e-10
        assert max(w_nets) - min(w_nets) < 1e-9

    def test_positive_temperature_engine_threshold(self):
        rows = sweep(0.2, 0.4, points=25)
        for pt, en in rows:
            if pt.xi > 1e-12:
                assert en.w_fric > 0
        modes = [en.mode == MODE_ENGINE for _, en in rows]
        assert not modes[0]          # fails at short strokes
        assert modes[-1]             # runs once xi is small enough
        eta_ad = adiabatic_efficiency(FREQS)
        engine = [en for _, en in rows if en.mode == MODE_ENGINE]
        assert all(en.eta <= eta_ad + 1e-12 for en in engine)
        # eta approaches the adiabatic value from below as tau grows
        # (xi ~ 3e-3 at tau = 1 ms still leaves a visible offset).
        assert eta_ad - engine[-1].eta < 0.01

    def test_rows_in_tau_order_and_deterministic(self):
        taus = log_spaced(0.01, 1.0, 8)
        a = run_tau_sweep(FREQS, 0.4, 0.8, taus, FAST_CFG)
        b = run_tau_sweep(FREQS, 0.4, 0.8, taus, FAST_CFG)
        assert [pt for pt, _ in a] == xi_sweep(taus, FREQS, FAST_CFG)
        assert [en for _, en in a] == [
            cycle_energetics(CycleInputs(FREQS, 0.4, 0.8, pt.xi))
            for pt, _ in a]
        assert a == b

    def test_grid_may_be_any_sequence(self):
        # xi_sweep checks the strokes and then integrates them, so it reads
        # its grid twice; a one-pass iterator gives the same points.
        taus = log_spaced(0.01, 1.0, 3)
        want = xi_sweep(taus, FREQS, FAST_CFG)
        assert xi_sweep(iter(taus), FREQS, FAST_CFG) == want
        rows = run_tau_sweep(FREQS, 0.4, 0.8, tuple(taus), FAST_CFG)
        assert [pt for pt, _ in rows] == want

    @pytest.mark.parametrize("last, message", [
        (1e6, "too long to integrate"),
        (0.0, "tau must be positive and finite, got 0.0"),
        (-0.01, "tau must be positive and finite, got -0.01"),
    ], ids=["too-long", "zero", "negative"])
    @pytest.mark.parametrize("run", [
        lambda taus: xi_sweep(taus, FREQS, FAST_CFG),
        lambda taus: run_tau_sweep(FREQS, 0.4, 0.8, taus, FAST_CFG),
    ], ids=["xi_sweep", "run_tau_sweep"])
    def test_bad_last_stroke_refused_before_any_work(self, monkeypatch, run,
                                                     last, message):
        import otto_tls.propagator as prop

        kernel, calls = prop._propagate_magnus6, []

        def counted(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(prop, "_propagate_magnus6", counted)
        with pytest.raises(DomainError, match=message):
            run([0.01, 0.1, last])
        assert calls == []
        run([0.01, 0.1])  # the good strokes alone: two passes each
        assert calls == [0.01, 0.01, 0.1, 0.1]

    @pytest.mark.parametrize("p_c, p_h, same_order", [
        (0.4, 0.8, True),    # (p_h - p_c)(p_h + p_c - 1) > 0
        (0.3, 0.4, False),   # (p_h - p_c)(p_h + p_c - 1) < 0
    ])
    def test_eta_follows_xi_across_a_minimum_of_xi(self, p_c, p_h,
                                                   same_order):
        # On 300..400 us xi(tau) falls to a minimum near 340 us and rises
        # again, so eta(tau) is not monotone; pointwise, the sign of
        # d eta / d xi fixes eta's order to be xi's order or its reverse.
        taus = linear_spaced(0.3, 0.4, 11)
        rows = run_tau_sweep(FREQS, p_c, p_h, taus, IntegratorConfig())
        xis = [pt.xi for pt, _ in rows]
        etas = [en.eta for _, en in rows]
        assert all(en.mode == MODE_ENGINE for _, en in rows)
        k = xis.index(min(xis))
        assert 0 < k < len(taus) - 1 and taus[k] == pytest.approx(0.34)
        by_xi = sorted(range(len(taus)), key=xis.__getitem__)
        by_eta = sorted(range(len(taus)), key=etas.__getitem__)
        assert by_eta == (by_xi if same_order else by_xi[::-1])
        # So eta's extreme sits at xi's minimum: a minimum of eta when eta
        # rises with xi, a maximum when it falls.
        extreme = min(etas) if same_order else max(etas)
        assert etas.index(extreme) == k
        assert extreme == pytest.approx(0.44708 if same_order else 0.42836,
                                        abs=1e-5)


class TestPhaseMap:
    def rows(self, threads=None):
        return run_phase_map(FREQS, linear_spaced(0.05, 1.0, 20),
                             linear_spaced(0.05, 0.49, 12), 0.25,
                             threads=threads)

    def test_no_inversion_no_negative_friction(self):
        for row in self.rows():
            if row.p_h <= 0.5:
                assert row.w_fric >= 0.0

    def test_most_negative_in_deep_inversion_corner(self):
        rows = self.rows()
        most_negative = min(rows, key=lambda r: r.w_fric)
        assert most_negative.p_h == max(r.p_h for r in rows)
        assert most_negative.p_c == max(r.p_c for r in rows)

    def test_sign_agrees_with_window(self):
        for row in self.rows():
            w = negative_friction_window(row.p_h, FREQS)
            inside = w[0] < row.p_c <= w[1]
            assert (row.w_fric < 0) == inside

    def test_zero_line_through_reference_point(self):
        assert zero_friction_pc(0.8, FREQS) == pytest.approx(1.0 / 3.0,
                                                             abs=1e-12)
        assert zero_friction_pc(1.0, FREQS) == pytest.approx(2.0 / 9.0,
                                                             abs=1e-12)

    def test_grid_validation(self, monkeypatch):
        for ph, pc in (([0.5], [0.1, 0.2]), ([0.5, 0.4], [0.1, 0.2]),
                       ([0.5, 0.8], [0.1, 1.5]), ([-0.1, 0.8], [0.1, 0.2]),
                       ([0.5, 0.8], [-1e-9, 0.2])):
            with pytest.raises(DomainError):
                run_phase_map(FREQS, ph, pc, 0.25)
        # At most MAX_POINTS cells, here lowered to 6: 2 x 3 is accepted,
        # 2 x 4 not.  test_oversized_grid_is_refused_at_once in test_cli
        # pins the real bound.
        monkeypatch.setattr("otto_tls.sweep.MAX_POINTS", 6)
        ph = [0.2, 0.8]
        assert len(run_phase_map(FREQS, ph, linear_spaced(0.0, 0.5, 3),
                                 0.25)) == 6
        with pytest.raises(DomainError, match=(
                "^phase map has 8 cells, more than 6$")):
            run_phase_map(FREQS, ph, linear_spaced(0.0, 0.5, 4), 0.25)
        monkeypatch.undo()
        # The p_c grid spans [0, 1], as cycle's populations do.
        assert len(run_phase_map(FREQS, [0.5, 0.8], [0.1, 0.6], 0.25)) == 4
        # Grids may start at the zero-temperature population p = 0.
        rows = run_phase_map(FREQS, [0.0, 1.0], [0.0, 0.5], 0.25)
        assert [(r.p_h, r.p_c) for r in rows] == \
               [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)]

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("name", ["ph", "pc"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_in_a_grid_refused_before_any_cell(self, monkeypatch, at,
                                                   name, threads):
        # NaN at the start, middle or end of either grid fails that grid's
        # own check before any cell computes.
        def no_cell(inputs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr("otto_tls.sweep.cycle_energetics", no_cell)
        grids = {"ph": [0.1, 0.5, 0.9], "pc": [0.1, 0.2, 0.4]}
        grids[name][at] = math.nan
        with pytest.raises(DomainError, match=f"^{name} grid must be"):
            run_phase_map(FREQS, grids["ph"], grids["pc"], 0.25,
                          threads=threads)

    def test_grids_may_be_any_sequence(self):
        # run_phase_map reads its grids during the call and keeps none.
        rows = run_phase_map(FREQS, (0.2, 0.8), (0.1, 0.4), 0.25)
        assert len(rows) == 4
        assert rows == run_phase_map(FREQS, [0.2, 0.8], [0.1, 0.4], 0.25)

    @pytest.mark.parametrize("xi, equal_cell_mode", [
        (0.0, MODE_ENGINE), (0.25, "not-engine(w_net>=0, q_h<=0)")])
    def test_cells_match_cycle_energetics(self, xi, equal_cell_mode):
        # The grid holds the equal-population cell whose net work at xi = 0
        # is -9e-17, so its mode depends on how w_net is rounded.
        rows = run_phase_map(FREQS, [0.3, 0.48291457286432166, 0.9],
                             [0.1, 0.4829145728643216], xi, threads=1)
        assert len(rows) == 6
        for row in rows:
            en = cycle_energetics(CycleInputs(FREQS, row.p_c, row.p_h, xi))
            assert (row.w_fric, row.mode) == (en.w_fric, en.mode)
        assert rows[3].mode == equal_cell_mode

    def test_determinism_across_threads(self):
        threads = min(4, os.cpu_count() or 1)
        if threads == 1:
            pytest.skip("one CPU: the map runs on one thread only")
        assert self.rows(threads=1) == self.rows(threads=threads)
