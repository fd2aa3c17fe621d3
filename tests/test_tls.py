"""Two-level-system physics: cycle frequencies and Gibbs populations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_tls import (CycleFrequencies, DomainError, exponent_from_population,
                      gibbs_population)

populations = st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                        allow_nan=False)


class TestFrequencies:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            CycleFrequencies(3.6, 2.0)
        with pytest.raises(DomainError):
            CycleFrequencies(-1.0, 2.0)

    @pytest.mark.parametrize("nu_c, nu_h", [
        (math.inf, math.inf), (2.0, math.inf), (math.nan, 3.6), (2.0, math.nan)])
    def test_non_finite_rejected(self, nu_c, nu_h):
        with pytest.raises(DomainError):
            CycleFrequencies(nu_c, nu_h)


class TestGibbs:
    def test_infinite_temperature(self):
        assert gibbs_population(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_temperature_limit(self):
        assert gibbs_population(800.0) == 0.0
        assert gibbs_population(-800.0) == 1.0

    def test_reference_anchor_point(self):
        # u = ln(1/4) gives p = 0.8, a negative-temperature reservoir.
        assert gibbs_population(math.log(0.25)) == pytest.approx(0.8, abs=1e-14)

    def test_exponent_cases(self):
        assert exponent_from_population(0.5) == pytest.approx(0.0, abs=1e-15)
        u = exponent_from_population(0.8)
        assert u == pytest.approx(math.log(0.25), abs=1e-14)
        assert u < 0
        assert exponent_from_population(0.25) == pytest.approx(math.log(3.0),
                                                               abs=1e-14)

    def test_exponent_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                exponent_from_population(bad)

    @given(populations)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, p):
        assert gibbs_population(exponent_from_population(p)) == pytest.approx(
            p, abs=1e-14)

    @given(populations)
    @settings(max_examples=200, deadline=None)
    def test_inversion_sign(self, p):
        u = exponent_from_population(p)
        assert (u > 0) == (p < 0.5)
        assert (u < 0) == (p > 0.5)
