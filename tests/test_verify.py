"""The checking path of otto_tls.verify: projectors and Gibbs states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_tls import (Density2, DomainError, Hermitian2, gibbs_state,
                      projector_excited)

from conftest import to_numpy

populations = st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                        allow_nan=False)


class TestProjectors:
    def test_axis_x(self):
        assert projector_excited("x") == (0.5, 0.5, 0.5, 0.5)

    def test_axis_y(self):
        assert projector_excited("y") == (0.5, -0.5j, 0.5j, 0.5)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_idempotent_unit_trace(self, axis):
        p = Hermitian2(*projector_excited(axis))
        assert ((p @ p) - p).max_abs() < 1e-15
        assert abs(p.a11 + p.a22 - 1.0) < 1e-15

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            projector_excited("z")


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
        h_c = 2.0 * to_numpy(projector_excited("x"))
        e = np.trace(to_numpy(rho) @ h_c).real
        assert e == pytest.approx(2.0 * p, abs=1e-13)
