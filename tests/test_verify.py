"""The checking path of otto_tls.verify: projectors, Gibbs states, suite."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_tls import (Density2, DomainError, Hermitian2, IntegratorConfig,
                      gibbs_state, propagator, verify)

from conftest import to_numpy

populations = st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                        allow_nan=False)


class TestProjectors:
    # The excited-state projector of an axis is its Gibbs state at p = 1.
    def test_axis_x(self):
        assert gibbs_state(1.0, "x") == (0.5, 0.5, 0.5, 0.5)

    def test_axis_y(self):
        assert gibbs_state(1.0, "y") == (0.5, -0.5j, 0.5j, 0.5)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_idempotent_unit_trace(self, axis):
        p = Hermitian2(*gibbs_state(1.0, axis))
        assert ((p @ p) - p).max_abs() < 1e-15
        assert abs(p.a11 + p.a22 - 1.0) < 1e-15

    def test_bad_axis(self):
        with pytest.raises(DomainError, match="axis must be 'x' or 'y'"):
            gibbs_state(0.3, "z")


class TestGibbsState:
    def test_maximally_mixed(self):
        rho = Density2(*gibbs_state(0.5, "x"))
        assert (rho - Density2(*gibbs_state(0.5, "y"))).max_abs() < 1e-15
        assert rho.a11 == pytest.approx(0.5) and rho.a12 == 0.0

    def test_inverted_y_state_spectrum(self):
        rho = gibbs_state(0.8, "y")
        (lo, hi), v = np.linalg.eigh(to_numpy(rho))
        assert lo == pytest.approx(0.2, abs=1e-14)
        assert hi == pytest.approx(0.8, abs=1e-14)
        s2 = 1.0 / math.sqrt(2)
        overlap = s2 * v[0, 1] + (1j * s2).conjugate() * v[1, 1]
        assert abs(abs(overlap) - 1.0) < 1e-12

    @given(populations)
    @settings(max_examples=100, deadline=None)
    def test_energy_expectation(self, p):
        # tr(rho H_c)/h = nu_c * p when rho is thermal on the x axis.
        rho = gibbs_state(p, "x")
        h_c = 2.0 * to_numpy(gibbs_state(1.0, "x"))
        e = np.trace(to_numpy(rho) @ h_c).real
        assert e == pytest.approx(2.0 * p, abs=1e-13)


class TestRunSuite:
    def test_unconverged_stroke_fails_its_check(self, monkeypatch):
        # The suite's 2 ms stroke starts at 58 steps, so a MAX_STEPS below
        # 116 refuses it as too long, and at 116 every stroke settles to the
        # default 1e-9.  At that bound a 1e-14 tolerance leaves strokes of
        # both integrated checks short of it, and none is refused.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 116)
        tight = IntegratorConfig(xi_tolerance=1e-14)
        for name in ("evolve_expansion", "integrate_compression"):
            monkeypatch.setattr(verify, name, functools.partial(
                getattr(propagator, name), cfg=tight))
        status, lines = verify.run_suite()
        assert status == 1
        # One line per check, in the shape perfbench's VERIFY_CHECKS reads.
        assert [line[:6] in ("PASS  ", "FAIL  ") for line in lines] == [
            True] * 8 + [False]
        assert lines[-1] == "FAILED: 2 failure(s)\n"
        failed = [line[6:-1] for line in lines if line.startswith("FAIL  ")]
        assert failed == ["compression propagator = adjoint of expansion",
                          "xi limits (sudden 1/2, adiabatic 0)"]
