"""The cycle model: frequencies, Gibbs populations, and closed forms against
the state-based oracles and hand-derived values."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otto_tls import (CycleFrequencies, CycleInputs, Density2, DomainError,
                      adiabatic_efficiency, cycle_energetics,
                      energetics_from_states, entropy_production,
                      evolve_expansion, exponent_from_population,
                      gibbs_population, gibbs_state, hot_population_window,
                      relative_entropy, transition_probability,
                      zero_friction_pc)
from otto_tls.thermo import MODE_ENGINE
from otto_tls.verify import stroke_divergence

from conftest import (random_stroke_unitary, random_unitary, stroke_unitary,
                      to_numpy)

FREQS = CycleFrequencies(2.0, 3.6)

populations = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
open_populations = st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                             allow_nan=False)
xis = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


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

    @given(open_populations)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, p):
        assert gibbs_population(exponent_from_population(p)) == pytest.approx(
            p, abs=1e-14)

    @given(open_populations)
    @settings(max_examples=200, deadline=None)
    def test_inversion_sign(self, p):
        u = exponent_from_population(p)
        assert (u > 0) == (p < 0.5)
        assert (u < 0) == (p > 0.5)


class TestClosedForms:
    def test_worked_negative_temperature_example(self):
        en = cycle_energetics(CycleInputs(FREQS, 0.4, 0.8, 0.25))
        assert en.w_exp == pytest.approx(0.82, abs=1e-14)
        assert en.w_comp == pytest.approx(-1.58, abs=1e-14)
        assert en.q_c == pytest.approx(-0.5, abs=1e-14)
        assert en.q_h == pytest.approx(1.26, abs=1e-14)
        assert en.w_net == pytest.approx(-0.76, abs=1e-14)
        assert en.w_ad == pytest.approx(-0.64, abs=1e-14)
        assert en.w_fric == pytest.approx(-0.12, abs=1e-14)
        assert en.mode == MODE_ENGINE
        assert en.eta == pytest.approx(0.76 / 1.26, abs=1e-14)
        assert en.eta > adiabatic_efficiency(FREQS)

    def test_worked_positive_temperature_example(self):
        en = cycle_energetics(CycleInputs(FREQS, 0.2, 0.4, 0.25))
        assert en.w_fric == pytest.approx(0.64, abs=1e-14)
        assert en.w_ad == pytest.approx(-0.32, abs=1e-14)
        assert en.w_net == pytest.approx(0.32, abs=1e-14)
        assert en.mode != MODE_ENGINE
        assert en.eta is None
        assert "w_net>=0" in en.mode

    def test_adiabatic_limit(self):
        en = cycle_energetics(CycleInputs(FREQS, 0.3, 0.7, 0.0))
        assert en.w_fric == 0.0
        assert en.w_net == pytest.approx(en.w_ad, abs=1e-15)
        assert en.eta == pytest.approx(1.0 - 2.0 / 3.6, abs=1e-12)

    def test_input_validation(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                CycleInputs(FREQS, bad, 0.5, 0.1)
            with pytest.raises(DomainError):
                CycleInputs(FREQS, 0.3, bad, 0.1)
        with pytest.raises(DomainError):
            CycleInputs(FREQS, 0.3, 0.5, 0.6)

    def test_pure_reservoirs_on_the_enhancement_boundary(self):
        # (p_c, p_h) = (0, 1) lies on p_h = 1 - p_c, where the finite-time
        # efficiency equals the quasi-static one at every xi.
        eta_ad = adiabatic_efficiency(FREQS)
        for k in range(51):
            en = cycle_energetics(CycleInputs(FREQS, 0.0, 1.0, 0.5 * k / 50))
            assert en.mode == MODE_ENGINE
            assert abs(en.eta - eta_ad) <= 1e-12

    @given(populations, populations, xis)
    @settings(max_examples=500, deadline=None)
    def test_first_law_and_decomposition(self, p_c, p_h, xi):
        en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
        assert abs(en.w_exp + en.w_comp + en.q_c + en.q_h) <= 1e-12
        assert abs(en.w_net - (en.w_exp + en.w_comp)) <= 1e-12
        assert abs(en.w_net - (en.w_ad + en.w_fric)) <= 1e-12

    def test_net_work_keeps_its_sign_at_equal_populations(self):
        # w_exp + w_comp rounds this net work of -9e-17 to 0.0 and calls
        # the cycle not-engine; w_ad + w_fric keeps the sign.
        en = cycle_energetics(CycleInputs(FREQS, 0.4829145728643216,
                                          0.48291457286432166, 0.0))
        assert en.w_net == en.w_ad + en.w_fric
        assert en.w_net < 0.0 and en.mode == MODE_ENGINE

    @given(populations, populations, xis)
    @settings(max_examples=300, deadline=None)
    def test_efficiency_consistency(self, p_c, p_h, xi):
        en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
        if en.mode != MODE_ENGINE:
            assert en.eta is None
            return
        eta_ratio = -en.w_net / en.q_h
        # w_net is a difference of O(1) stage works, so the comparison
        # tolerance must track the digits lost to that cancellation.
        scale = max(1.0, abs(eta_ratio),
                    (abs(en.w_exp) + abs(en.w_comp)) / en.q_h)
        assert abs(en.eta - eta_ratio) <= 1e-12 * scale

    def test_efficiency_consistency_at_the_hot_heat_edge(self):
        # p_h one ulp below 1/2 with xi = 1/2 puts q_h a few ulps from zero;
        # -w_net/q_h must still agree with the population form of eta,
        # 1 - (nu_c/nu_h) [p_h - p_c + xi(1-2p_h)] / [p_h - p_c - xi(1-2p_c)].
        for p_c in (0.25, 0.75):
            p_h = 0.49999999999999994
            en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, 0.5))
            num = (p_h - p_c) + 0.5 * (1.0 - 2.0 * p_h)
            den = (p_h - p_c) - 0.5 * (1.0 - 2.0 * p_c)
            assert en.q_h == pytest.approx(FREQS.nu_h * den, rel=1e-15)
            eta_pop = 1.0 - (FREQS.nu_c / FREQS.nu_h) * (num / den)
            eta_ratio = -en.w_net / en.q_h
            scale = (abs(en.w_exp) + abs(en.w_comp)) / abs(en.q_h)
            assert abs(eta_ratio - eta_pop) <= 1e-12 * scale

    def test_efficiency_keeps_its_digits_at_subnormal_energies(self):
        # Every stage energy here is a few subnormal ulps, so -w_net/q_h
        # read 0.5; at xi = 0 eta must equal eta_ad = 1 - nu_c/nu_h.
        en = cycle_energetics(CycleInputs(FREQS, 0.0, 5e-324, 0.0))
        assert en.mode == MODE_ENGINE
        assert -en.w_net / en.q_h == 0.5
        assert en.eta == pytest.approx(adiabatic_efficiency(FREQS),
                                       abs=1e-15)

    @pytest.mark.parametrize("xi, w_fric", [(0.5, 1.35e308), (0.0, 0.0)])
    def test_friction_work_near_the_float_maximum(self, xi, w_fric):
        # The bracket nu_h + nu_c = 2.7e308 overflows: xi times it read inf,
        # and NaN at xi = 0, where the friction work is 1.35e308 and 0.
        freqs = CycleFrequencies(1e308, 1.7e308)
        en = cycle_energetics(CycleInputs(freqs, 0.0, 0.0, xi))
        assert en.w_fric == en.w_net == pytest.approx(w_fric, rel=1e-15)

    def test_friction_work_keeps_its_bits_where_it_was_finite(self):
        # Subnormal frequencies and xi included, up to the float maximum.
        rng = random.Random(45)
        for _ in range(20000):
            nu_c, nu_h = sorted(10.0 ** rng.uniform(-323.0, 308.0)
                                for _ in range(2))
            if not 0.0 < nu_c < nu_h:
                continue
            p_c, p_h = rng.random(), rng.random()
            xi = rng.choice([rng.uniform(0.0, 0.5),
                             10.0 ** rng.uniform(-323.0, -0.31)])
            old = xi * (nu_h * (1.0 - 2.0 * p_c) + nu_c * (1.0 - 2.0 * p_h))
            en = cycle_energetics(CycleInputs(CycleFrequencies(nu_c, nu_h),
                                              p_c, p_h, xi))
            if math.isfinite(old):
                assert en.w_fric.hex() == old.hex()
            else:
                assert math.isfinite(en.w_fric) or abs(xi * nu_h) > 1e307

    @given(st.floats(min_value=0.01, max_value=0.49),
           st.floats(min_value=0.01, max_value=0.49), xis)
    @settings(max_examples=300, deadline=None)
    def test_positive_temperatures_give_positive_friction(self, p_c, p_h, xi):
        en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
        assert en.w_fric >= 0.0


class TestOracleEquivalence:
    def test_identity_matches_sudden_quench(self):
        from otto_tls import Unitary2
        en_tr = energetics_from_states(0.4, 0.8, Unitary2(1, 0, 0, 1), FREQS)
        en_cf = cycle_energetics(CycleInputs(FREQS, 0.4, 0.8, 0.5))
        for a, b in [(en_tr.w_exp, en_cf.w_exp), (en_tr.w_comp, en_cf.w_comp),
                     (en_tr.q_c, en_cf.q_c), (en_tr.q_h, en_cf.q_h)]:
            assert a == pytest.approx(b, abs=1e-12)

    def test_adiabatic_mapper_matches_xi_zero(self):
        en_tr = energetics_from_states(0.3, 0.7, stroke_unitary(0.0), FREQS)
        en_cf = cycle_energetics(CycleInputs(FREQS, 0.3, 0.7, 0.0))
        assert en_tr.w_net == pytest.approx(en_cf.w_net, abs=1e-12)
        assert en_tr.w_fric == pytest.approx(0.0, abs=1e-12)

    def test_integrated_stroke_matches_closed_forms(self):
        res = evolve_expansion(0.3, FREQS)
        en_tr = energetics_from_states(0.4, 0.8, res.U, FREQS)
        en_cf = cycle_energetics(CycleInputs(FREQS, 0.4, 0.8, res.xi))
        for a, b in [(en_tr.w_exp, en_cf.w_exp), (en_tr.w_comp, en_cf.w_comp),
                     (en_tr.q_c, en_cf.q_c), (en_tr.q_h, en_cf.q_h),
                     (en_tr.w_net, en_cf.w_net), (en_tr.w_fric, en_cf.w_fric)]:
            assert a == pytest.approx(b, abs=1e-10)

    def test_random_unitaries_certify_closed_forms(self):
        rng = random.Random(42)
        for _ in range(300):
            p_c = rng.uniform(0.01, 0.99)
            p_h = rng.uniform(0.01, 0.99)
            u = random_stroke_unitary(rng)
            xi = transition_probability(u)
            en_tr = energetics_from_states(p_c, p_h, u, FREQS)
            en_cf = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
            for a, b in [(en_tr.w_exp, en_cf.w_exp),
                         (en_tr.w_comp, en_cf.w_comp),
                         (en_tr.q_c, en_cf.q_c), (en_tr.q_h, en_cf.q_h)]:
                assert abs(a - b) <= 1e-10
            assert en_tr.mode == en_cf.mode

    def test_pure_reservoirs_certify_closed_forms(self):
        rng = random.Random(43)
        edges = (0.0, 0.5, 1.0)
        pairs = [(p_c, p_h) for p_c in edges for p_h in edges]
        for _ in range(300):
            u = random_stroke_unitary(rng)
            xi = transition_probability(u)
            for p_c, p_h in pairs:
                en_tr = energetics_from_states(p_c, p_h, u, FREQS)
                en_cf = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
                for a, b in [(en_tr.w_exp, en_cf.w_exp),
                             (en_tr.w_comp, en_cf.w_comp),
                             (en_tr.q_c, en_cf.q_c), (en_tr.q_h, en_cf.q_h)]:
                    assert abs(a - b) <= 1e-10


    def test_entry_traces_match_matrix_products(self):
        # The stage energies as first written: tr(H rho_k) of 2x2 matrix
        # products, with rho_2 = U rho_1 U^dag and rho_4 = U^dag rho_3 U.
        def trace(h, rho):
            return np.trace(h @ to_numpy(rho)).real

        rng = random.Random(44)
        for _ in range(300):
            p_c = rng.uniform(0.0, 1.0)
            p_h = rng.uniform(0.0, 1.0)
            u = random_unitary(rng)
            h_c = FREQS.nu_c * to_numpy(gibbs_state(1.0, "x"))
            h_h = FREQS.nu_h * to_numpy(gibbs_state(1.0, "y"))
            rho1 = gibbs_state(p_c, "x")
            rho3 = gibbs_state(p_h, "y")
            e1 = trace(h_c, rho1)
            e2 = trace(h_h, u @ rho1 @ u.adjoint())
            e3 = trace(h_h, rho3)
            e4 = trace(h_c, u.adjoint() @ rho3 @ u)
            en = energetics_from_states(p_c, p_h, u, FREQS)
            for got, want in [(en.w_exp, e2 - e1), (en.w_comp, e4 - e3),
                              (en.q_c, e1 - e4), (en.q_h, e3 - e2)]:
                assert abs(got - want) <= 1e-13


def rotated(u, rho) -> Density2:
    """The state u rho u^dag."""
    return Density2(*(u @ rho @ u.adjoint()).entries())


class TestRelativeEntropy:
    def test_self_divergence_zero(self):
        rng = random.Random(9)
        for _ in range(20):
            u = random_unitary(rng)
            rho = u @ gibbs_state(rng.uniform(0.05, 0.95), "x") @ u.adjoint()
            rho = Density2(*rho.entries())
            assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_pair_hand_value(self):
        rho = Density2(0.5, 0.0, 0.0, 0.5)
        sigma = Density2(0.25, 0.0, 0.0, 0.75)
        expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert relative_entropy(rho, sigma) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)

    def test_non_commuting_pair_against_logm_oracle(self):
        rho = gibbs_state(0.3, "x")
        sigma = gibbs_state(0.3, "y")
        d = relative_entropy(rho, sigma)
        assert d > 0
        # Dense oracle via numpy eigendecompositions of each state.
        def logm(m):
            w, v = np.linalg.eigh(to_numpy(m))
            return v @ np.diag(np.log(w)) @ v.conj().T
        r = to_numpy(rho)
        oracle = np.trace(r @ (logm(rho) - logm(sigma))).real
        assert d == pytest.approx(oracle, abs=1e-10)

    def test_support_violation_is_infinite(self):
        pure = Density2(1.0, 0.0, 0.0, 0.0)
        other = Density2(0.0, 0.0, 0.0, 1.0)
        assert relative_entropy(other, pure) == math.inf

    def test_pure_sigma(self):
        # With support (rho = sigma) the kernel term drops and D = 0; any
        # weight of rho on sigma's kernel gives +inf.
        rng = random.Random(19)
        for _ in range(50):
            u = random_unitary(rng)
            pure = rotated(u, gibbs_state(1.0, "x"))
            assert relative_entropy(pure, pure) == pytest.approx(0.0, abs=1e-12)
            for p in (0.0, 0.3, 0.99):
                rho = rotated(u, gibbs_state(p, "x"))
                assert relative_entropy(rho, pure) == math.inf

    def test_matches_eigh_logm_oracle_on_random_pairs(self):
        # Every tenth rho is pure, and every tenth sigma maximally mixed.
        def oracle(rho, sigma):
            lam = np.linalg.eigvalsh(to_numpy(rho))
            mu, w = np.linalg.eigh(to_numpy(sigma))
            log_sigma = w @ np.diag(np.log(mu)) @ w.conj().T
            return (sum(x * math.log(x) for x in lam if x > 0.0)
                    - np.trace(to_numpy(rho) @ log_sigma).real)

        rng = random.Random(17)
        for k in range(1200):
            p = float(k % 20 == 0) if k % 10 == 0 else rng.uniform(0.0, 1.0)
            q = 0.5 if k % 10 == 1 else rng.uniform(0.001, 0.999)
            rho = rotated(random_unitary(rng), gibbs_state(p, "x"))
            sigma = rotated(random_unitary(rng), gibbs_state(q, "y"))
            assert abs(relative_entropy(rho, sigma)
                       - oracle(rho, sigma)) <= 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(100):
            u1, u2 = random_unitary(rng), random_unitary(rng)
            r1 = u1 @ gibbs_state(rng.uniform(0.05, 0.95), "x") @ u1.adjoint()
            r2 = u2 @ gibbs_state(rng.uniform(0.05, 0.95), "y") @ u2.adjoint()
            d = relative_entropy(Density2(*r1.entries()),
                                 Density2(*r2.entries()))
            assert d >= -1e-12


# Whether a stroke is the compression, and its final frequency nu_f: its
# friction term is nu_f xi (1 - 2p).
STROKE_NU = {False: FREQS.nu_h, True: FREQS.nu_c}
strokes = st.booleans()


def friction_from_divergence(p: float, xi: float, nu_f: float) -> float:
    """The stroke temperature nu_f / ln((1-p)/p) times Sigma."""
    return nu_f / exponent_from_population(p) * entropy_production(p, xi)


class TestFrictionFromDivergence:
    """Sigma = xi (1 - 2p) ln((1-p)/p) and the friction term it carries."""

    @given(unit_interval, xis)
    @settings(max_examples=500, deadline=None)
    def test_entropy_production_is_nonnegative(self, p, xi):
        assert entropy_production(p, xi) >= 0.0

    @given(unit_interval)
    @settings(max_examples=100, deadline=None)
    def test_adiabatic_stroke_gives_zero(self, p):
        assert entropy_production(p, 0.0) == 0.0

    @given(unit_interval, xis, strokes)
    @settings(max_examples=500, deadline=None)
    def test_matches_closed_form_terms_randomly(self, p, xi, compression):
        assume(0.0 < p < 1.0 and p != 0.5)
        nu_f = STROKE_NU[compression]
        term = nu_f * xi * (1.0 - 2.0 * p)
        # abs covers a product that underflows at a subnormal xi.
        assert friction_from_divergence(p, xi, nu_f) == pytest.approx(
            term, rel=1e-12, abs=1e-300)

    @given(unit_interval, xis, strokes)
    @settings(max_examples=500, deadline=None)
    def test_negative_friction_needs_inversion(self, p, xi, compression):
        assume(0.0 < p < 1.0 and p != 0.5)
        if friction_from_divergence(p, xi, STROKE_NU[compression]) < 0.0:
            assert p > 0.5

    def test_expansion_positive_temperature(self):
        sigma = entropy_production(0.4, 0.25)
        assert sigma == pytest.approx(0.25 * 0.2 * math.log(1.5), rel=1e-15)
        assert friction_from_divergence(0.4, 0.25, 3.6) == pytest.approx(
            3.6 * 0.25 * 0.2, abs=1e-14)

    def test_compression_negative_temperature(self):
        # Inverted hot reservoir: Sigma stays >= 0, the stroke temperature
        # is negative, so the friction term is too.
        assert entropy_production(0.8, 0.25) > 0.0
        assert exponent_from_population(0.8) < 0.0
        work = friction_from_divergence(0.8, 0.25, 2.0)
        assert work == pytest.approx(2.0 * 0.25 * (1.0 - 1.6), abs=1e-14)
        assert work < 0.0

    @given(xis)
    @settings(max_examples=100, deadline=None)
    def test_half_population_gives_zero(self, xi):
        # At p = 1/2 the stroke temperature is infinite, and Sigma and the
        # friction term are both 0.
        assert entropy_production(0.5, xi) == 0.0

    @given(xis)
    @settings(max_examples=100, deadline=None)
    def test_pure_reservoir_endpoints(self, xi):
        # A pure reference with a mixed final state: +inf, as
        # relative_entropy's support rule gives; 0 when nothing moved.
        for p in (0.0, 1.0):
            want = math.inf if xi > 0.0 else 0.0
            assert entropy_production(p, xi) == want

    def test_input_validation(self):
        for p, xi in [(-0.1, 0.1), (1.1, 0.1), (math.nan, 0.1),
                      (0.3, -0.1), (0.3, 0.6), (0.3, math.nan)]:
            with pytest.raises(DomainError):
                entropy_production(p, xi)

    @given(unit_interval, st.floats(min_value=0.0, max_value=math.pi / 4),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=2 * math.pi), strokes)
    @example(1e-12, math.pi / 4, 0.3, 1.1, False)
    @example(1e-7, math.pi / 4, 0.3, 1.1, True)
    @example(1.0 - 1e-9, math.pi / 4, 0.3, 1.1, True)
    @settings(max_examples=500, deadline=None)
    def test_matches_matrix_route_oracle(self, p, alpha, phi1, phi2,
                                         compression):
        u = stroke_unitary(alpha, phi1, phi2)
        xi = transition_probability(u)
        assume(xi <= 0.5)
        # gibbs_state holds p only through w = 2p - 1, which keeps a small p
        # to about 1e-16 absolute, so the oracle's error grows as 1e-17 / p
        # (1e-14 at p = 1e-3, 1e-5 at p = 1e-12).  Near p = 1, 2p - 1 and
        # 1 - p are exact and both routes read the same p.  The endpoints
        # themselves are exact.
        assume(p in (0.0, 1.0) or 1e-12 <= p <= 1.0 - 1e-9)
        sigma = entropy_production(p, xi)
        oracle = stroke_divergence(p, u, compression)
        if math.isinf(sigma):
            assert oracle == math.inf or xi <= 1e-12
        else:
            tol = 1e-12 if p == 0.0 else max(1e-12, 1e-16 / p)
            assert abs(oracle - sigma) <= tol


class TestWindows:
    # The p_c window is (zero_friction_pc(p_h), 1].
    def test_reference_window_value(self):
        assert zero_friction_pc(0.8, FREQS) == pytest.approx(1.0 / 3.0,
                                                             abs=1e-12)

    def test_full_inversion(self):
        assert zero_friction_pc(1.0, FREQS) == pytest.approx(2.0 / 9.0,
                                                             abs=1e-12)

    def test_no_hot_inversion_window_above_half(self):
        # Without an inverted hot reservoir, negative friction needs an
        # inverted cold one: the window starts at or above 1/2.
        assert zero_friction_pc(0.5, FREQS) == 0.5
        assert zero_friction_pc(0.3, FREQS) == pytest.approx(
            0.5 * (1 + 0.4 * 2 / 3.6), abs=1e-12)

    def test_hot_window_companion(self):
        w = hot_population_window(0.4, FREQS)
        assert w is not None
        assert w[0] == pytest.approx(0.5 * (1 + 0.2 * 1.8), abs=1e-12)
        assert hot_population_window(0.1, FREQS) is None

    @pytest.mark.parametrize("p_c", [0.9, 1.0])
    def test_hot_window_clamped_at_zero(self, p_c):
        # Above p_c = (1 + nu_c/nu_h)/2 the bound falls below 0: every p_h
        # in [0, 1] gives negative friction, p_h = 0 included.
        assert hot_population_window(p_c, FREQS) == (0.0, 1.0)
        en = cycle_energetics(CycleInputs(FREQS, p_c, 0.0, 0.25))
        assert en.w_fric < 0

    def test_sign_theorem(self):
        # For xi > 0, w_fric < 0 iff p_c lies inside the p_c window, and
        # iff p_h lies inside the p_h window, over the whole square; the
        # p_c window reaches below 1/2 exactly when p_h > 1/2.
        rng = random.Random(31)
        for _ in range(1000):
            p_h = rng.uniform(0.01, 0.999)
            p_c = rng.uniform(0.01, 0.999)
            xi = rng.uniform(1e-6, 0.5)
            en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
            p_c_star = zero_friction_pc(p_h, FREQS)
            assert (p_c_star < 0.5) == (p_h > 0.5)
            w_h = hot_population_window(p_c, FREQS)
            for inside in (p_c_star < p_c <= 1.0,
                           w_h is not None and w_h[0] < p_h <= w_h[1]):
                if inside:
                    assert en.w_fric < 0
                else:
                    assert en.w_fric >= 0 or abs(en.w_fric) < 1e-12


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _step_rule(p_c: float, p_h: float) -> int:
    """The exact sign of (p_h - p_c)(p_h + p_c - 1) for these floats."""
    return _sign(p_h - p_c) * _sign(math.fsum((p_h, p_c, -1.0)))


class TestEfficiencyEnhancement:
    # The sign rules hold for the floats given, so they are asserted with
    # no tolerance: eta - eta_ad never has the sign opposite to
    # p_h + p_c - 1, eta never steps with xi against the sign of
    # (p_h - p_c)(p_h + p_c - 1), and both are 0 where their rule is.
    def test_threshold_cases(self):
        # Above, on and below the boundary; the binary 0.3 + 0.7 is just
        # below 1, and eta_ad is the nearest float to its eta.
        eta_ad = adiabatic_efficiency(FREQS)
        for p_c, p_h, sign in [(0.4, 0.8, 1), (0.3, 0.7, 0), (0.2, 0.4, -1)]:
            en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, 0.01))
            assert en.mode == MODE_ENGINE
            assert _sign(en.eta - eta_ad) == sign

    def test_eta_above_adiabatic_when_condition_holds(self):
        eta_ad = adiabatic_efficiency(FREQS)
        rng = random.Random(77)
        for _ in range(200):
            p_c = rng.uniform(0.05, 0.49)
            p_h = rng.uniform(1.0 - p_c + 1e-6, 0.99)
            xi = rng.uniform(1e-6, 0.5)
            en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
            if en.mode == MODE_ENGINE:
                assert en.eta > eta_ad

    def test_eta_monotone_in_xi_under_condition(self):
        for (p_c, p_h) in [(0.4, 0.8), (0.45, 0.7), (0.3, 0.95)]:
            assert p_h + p_c > 1.0
            etas = []
            for k in range(51):
                xi = 0.5 * k / 50
                en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
                if en.mode == MODE_ENGINE:
                    etas.append(en.eta)
            assert len(etas) > 10
            assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_eta_rises_with_xi_next_to_the_boundary(self):
        # p_h + p_c exceeds 1 by 3.4e-15, so eta rises with xi; computed
        # as 1 - k cold/hot it fell by an ulp over this step.
        p_c, p_h = 0.08093648460284711, 0.9190635153971562
        assert _step_rule(p_c, p_h) == 1
        low, high = (cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi)).eta
                     for xi in (0.3050847457627119, 0.3135593220338983))
        assert high > low

    @pytest.mark.parametrize("p_c, p_h", [
        (0.83, 0.81), (0.55, 0.53), (0.73, 0.72), (0.66, 0.65), (0.85, 0.63),
        (0.4, 0.8)])
    def test_eta_follows_the_rule_between_adjacent_xi(self, p_c, p_h):
        # Steps of one ulp in xi, where rounding is largest against the
        # step; with p_c > 1/2, xi/D from xi/hot went against the rule here.
        etas = []
        for k in range(1, 50):
            xi = 0.01 * k
            for _ in range(8):
                en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
                if en.mode == MODE_ENGINE:
                    etas.append(en.eta)
                xi = math.nextafter(xi, 1.0)
        assert len(etas) > 100
        rule = _step_rule(p_c, p_h)
        assert all(_sign(b - a) in (0, rule) for a, b in zip(etas, etas[1:]))

    def test_eta_where_q_h_is_within_rounding_of_zero(self):
        # The decimal inputs put p_h on the line D = 0, which the binary
        # ones miss by 4e-18: q_h is 2.5e-17, D/xi rounds to 0, and eta
        # comes from xi/hot, huge and above eta_ad as p_h + p_c > 1.
        p_c, p_h, xi = 0.752, 0.689504, 0.124
        assert (p_h - p_c) / xi - (1.0 - 2.0 * p_c) == 0.0
        en = cycle_energetics(CycleInputs(FREQS, p_c, p_h, xi))
        assert en.mode == MODE_ENGINE
        assert 1e15 < en.eta < math.inf

    @given(unit_interval, unit_interval, xis, xis,
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=300, deadline=None)
    def test_efficiency_identities_over_the_full_square(self, p_c, p_h,
                                                        xi_a, xi_b, ratio):
        # In engine mode D = p_h - p_c - xi (1 - 2 p_c) = q_h / nu_h > 0, and
        #   eta - eta_ad = -2 (nu_c/nu_h) xi (1 - p_h - p_c) / D,
        #   d eta / d xi = 2 (nu_c/nu_h) (p_h - p_c)(p_h + p_c - 1) / D^2.
        # eta is a Moebius function of xi, so the derivative identity also
        # holds exactly for the secant, with D^2 replaced by D_a D_b.
        freqs = CycleFrequencies(3.6 * ratio, 3.6)
        k = freqs.nu_c / freqs.nu_h
        eta_ad = adiabatic_efficiency(freqs)
        gain_rule = _sign(math.fsum((p_h, p_c, -1.0)))
        points = []
        for xi in (xi_a, xi_b):
            en = cycle_energetics(CycleInputs(freqs, p_c, p_h, xi))
            assume(en.mode == MODE_ENGINE)
            d = p_h - p_c - xi * (1.0 - 2.0 * p_c)
            assert d > 0.0
            scale = max(1.0, abs(en.eta),
                        (abs(en.w_exp) + abs(en.w_comp)) / en.q_h)
            gain = -2.0 * k * (1.0 - p_h - p_c) * (xi / d)
            assert abs((en.eta - eta_ad) - gain) <= 1e-12 * scale
            assert _sign(en.eta - eta_ad) in (0, gain_rule)
            points.append((xi, en.eta, d, scale))
        (xi_a, eta_a, d_a, s_a), (xi_b, eta_b, d_b, s_b) = points
        rule = (p_h - p_c) * (p_h + p_c - 1.0)
        # Divided last, so that rule = 0 gives 0 even where xi/d overflows.
        step = 2.0 * k * rule * (xi_b - xi_a) / d_a / d_b
        tol = 1e-12 * (s_a + s_b)
        assert abs((eta_b - eta_a) - step) <= tol
        # The sign of d eta / d xi is the sign of the rule at every xi, and
        # eta can only rise with xi when some population is > 1/2.
        rising = _sign(eta_b - eta_a) * _sign(xi_b - xi_a)
        assert rising in (0, _step_rule(p_c, p_h))
        if rising > 0:
            assert max(p_c, p_h) > 0.5

    def test_positive_temperatures_never_beat_adiabatic(self):
        eta_ad = adiabatic_efficiency(FREQS)
        for k in range(51):
            xi = 0.5 * k / 50
            en = cycle_energetics(CycleInputs(FREQS, 0.2, 0.4, xi))
            if en.mode == MODE_ENGINE:
                assert en.eta <= eta_ad
