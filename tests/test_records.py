"""Record semantics: every public record is an immutable, validated named tuple."""

import copy
import math
import pickle

import pytest

import otto_tls
from otto_tls import (ConstraintViolation, CycleEnergetics, CycleFrequencies,
                      CycleInputs, Density2, DomainError, Hermitian2,
                      IntegratorConfig, Matrix2, PhaseMapRow, PhaseMapSpec,
                      PropagatorResult, ReservoirSpec, StrokeDuration,
                      StrokeFriction, TauSweepRow, TauSweepSpec, Unitary2,
                      XiPoint, cycle_energetics, evolve_expansion,
                      exp_neg_i_h, exponent_from_population,
                      friction_from_divergence, gibbs_population, gibbs_state,
                      run_phase_map, run_tau_sweep, xi_sweep)

FREQS = CycleFrequencies(2.0, 3.6)
H = Hermitian2(0.3, 0.2 + 0.1j, 0.2 - 0.1j, -0.4)
U = exp_neg_i_h(H, 0.7)
INPUTS = CycleInputs(FREQS, 0.4, 0.8, 0.25)

SAMPLES = [
    Matrix2(1.0, 2j, -1.5, 0.5 + 0.5j),
    H,
    U,
    gibbs_state(0.3, "x"),
    FREQS,
    StrokeDuration(0.3),
    ReservoirSpec(-1.2),
    IntegratorConfig(initial_steps=32, xi_tolerance=1e-8),
    evolve_expansion(0.3, FREQS),
    xi_sweep([0.3], FREQS)[0],
    INPUTS,
    cycle_energetics(INPUTS),
    friction_from_divergence(0.4, exponent_from_population(0.4), U,
                             "expansion", FREQS),
    TauSweepSpec(FREQS, 0.4, 0.8, points=3),
    run_tau_sweep(TauSweepSpec(FREQS, 0.4, 0.8, points=2))[0],
    PhaseMapSpec(FREQS, [0.0, 1.0], [0.0, 0.5], tau_us=300.0),
    run_phase_map(PhaseMapSpec(FREQS, [0.2, 0.8], [0.1, 0.4]), threads=1)[0],
]
RECORDS = pytest.mark.parametrize("rec", SAMPLES,
                                  ids=[type(r).__name__ for r in SAMPLES])


def test_samples_cover_every_public_record():
    public = {getattr(otto_tls, n) for n in otto_tls.__all__}
    records = {c for c in public if isinstance(c, type) and issubclass(c, tuple)}
    assert records == {type(r) for r in SAMPLES}
    assert len(records) == 17  # 14 records and the three Matrix2 roles


@RECORDS
def test_pickle_round_trip(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is type(rec)


@RECORDS
def test_deepcopy_round_trip(rec):
    back = copy.deepcopy(rec)
    assert back == rec and type(back) is type(rec)


@RECORDS
def test_immutable(rec):
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_records_are_tuples():
    assert FREQS == (2.0, 3.6) and FREQS[1] == FREQS.nu_h == 3.6
    nu_c, nu_h = FREQS
    assert (nu_c, nu_h) == (2.0, 3.6)
    # Roles compare by value: a unitary equals the plain matrix it holds.
    assert Unitary2(1.0, 0.0, 0.0, 1.0) == Matrix2(1.0, 0.0, 0.0, 1.0)


class TestConstruction:
    def test_integrator_config_keywords_and_defaults(self):
        assert IntegratorConfig() == (None, 1e-9, 20)
        cfg = IntegratorConfig(xi_tolerance=1e-8)
        assert cfg == IntegratorConfig(None, 1e-8, 20)
        assert cfg.initial_steps is None and cfg.max_doublings == 20

    def test_tau_sweep_spec_defaults(self):
        spec = TauSweepSpec(FREQS, 0.4, 0.8, log_spacing=False)
        assert (spec.tau_min_us, spec.tau_max_us, spec.points) == (
            10.0, 1000.0, 100)
        assert spec.cfg == IntegratorConfig() and spec.log_spacing is False
        grid = spec.tau_grid_us()
        assert grid[1] - grid[0] == pytest.approx(grid[-1] - grid[-2])

    def test_phase_map_spec_defaults(self):
        spec = PhaseMapSpec(FREQS, [0, 1], [0, 0.5], tau_us=300.0)
        assert spec.xi == 0.25 and spec.cfg == IntegratorConfig()
        assert spec.resolve_xi() == evolve_expansion(0.3, FREQS).xi

    def test_keywords_match_positions(self):
        assert CycleInputs(freqs=FREQS, p_c=0.4, p_h=0.8, xi=0.25) == INPUTS
        assert Matrix2(a11=1.0, a12=0.0, a21=0.0, a22=1.0) == (1, 0, 0, 1)
        assert XiPoint(tau=0.3, xi=0.1, error_estimate=0.0,
                       converged=True).converged
        assert PhaseMapRow(0.2, 0.1, 0.5, mode="engine",
                           on_zero_line=False).mode == "engine"
        assert TauSweepRow(1.0, 0.1, 0.0, True,
                           energetics=cycle_energetics(INPUTS)).tau_us == 1.0
        assert StrokeFriction(0.1, 0.2, 0.5, singular_reference=False).work == 0.1
        assert CycleEnergetics(*range(7), None, "engine").is_engine

    @pytest.mark.parametrize("build", [
        lambda: CycleFrequencies(2.0),
        lambda: CycleFrequencies(2.0, 3.6, 4.0),
        lambda: IntegratorConfig(xi_tol=1e-8),
        lambda: PhaseMapRow(0.2, 0.1, 0.5, "engine"),
    ])
    def test_wrong_arguments_rejected(self, build):
        with pytest.raises(TypeError):
            build()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, exc, match", [
    (lambda: Matrix2(NAN, 0, 0, 1), ConstraintViolation, "finite"),
    (lambda: Matrix2(1, complex(0, INF), 0, 1), ConstraintViolation, "finite"),
    (lambda: Unitary2(INF, 0, 0, 1), ConstraintViolation, "finite"),
    (lambda: Hermitian2(1, 1j, 1j, 1), ConstraintViolation, "not conjugate"),
    (lambda: Hermitian2(1j, 0, 0, 1), ConstraintViolation, "not real"),
    (lambda: Unitary2(1, 1, 0, 1), ConstraintViolation, "not unitary"),
    (lambda: Density2(0.5, 0.1, 0.2, 0.5), ConstraintViolation, "not Hermitian"),
    (lambda: Density2(0.6, 0, 0, 0.6), ConstraintViolation, "trace is not 1"),
    (lambda: Density2(1.5, 0, 0, -0.5), ConstraintViolation, "negative eigenvalue"),
    (lambda: CycleFrequencies(0.0, 1.0), DomainError, "nu_c must be positive"),
    (lambda: CycleFrequencies(NAN, 1.0), DomainError, "nu_c must be positive"),
    (lambda: CycleFrequencies(2.0, 2.0), DomainError, "nu_h must be finite and exceed"),
    (lambda: CycleFrequencies(2.0, INF), DomainError, "nu_h must be finite and exceed"),
    (lambda: StrokeDuration(0.0), DomainError, "tau must be positive"),
    (lambda: StrokeDuration(NAN), DomainError, "tau must be positive"),
    (lambda: ReservoirSpec(INF), DomainError, "exponent must be finite"),
    (lambda: ReservoirSpec(NAN), DomainError, "exponent must be finite"),
    (lambda: IntegratorConfig(initial_steps=1), DomainError, "initial_steps"),
    (lambda: IntegratorConfig(xi_tolerance=0.0), DomainError, "xi_tolerance"),
    (lambda: IntegratorConfig(xi_tolerance=0.02), DomainError, "xi_tolerance"),
    (lambda: IntegratorConfig(max_doublings=0), DomainError, "max_doublings"),
    (lambda: PropagatorResult(U, 16, 0.0, 0.6), DomainError, "outside"),
    (lambda: PropagatorResult(U, 16, 0.0, -0.1), DomainError, "outside"),
    (lambda: CycleInputs(FREQS, -0.1, 0.8, 0.25), DomainError, "p_c must lie"),
    (lambda: CycleInputs(FREQS, 0.4, 1.1, 0.25), DomainError, "p_h must lie"),
    (lambda: CycleInputs(FREQS, 0.4, 0.8, 0.6), DomainError, "xi must lie"),
    (lambda: TauSweepSpec(FREQS, 0.4, 0.8, 100.0, 10.0), DomainError,
     "tau_min < tau_max"),
    (lambda: TauSweepSpec(FREQS, 0.4, 0.8, 0.0), DomainError,
     "tau_min < tau_max"),
    (lambda: TauSweepSpec(FREQS, 0.4, 0.8, points=1), DomainError,
     "points must be at least 2"),
    (lambda: TauSweepSpec(FREQS, 1.5, 0.8), DomainError, "p_c must lie"),
    (lambda: PhaseMapSpec(FREQS, [0.5], [0.1, 0.2]), DomainError,
     "ph grid must have at least 2 points"),
    (lambda: PhaseMapSpec(FREQS, [0.5, 0.6], [0.2, 0.1]), DomainError,
     "pc grid must be strictly increasing"),
    (lambda: PhaseMapSpec(FREQS, [0.5, 1.2], [0.1, 0.2]), DomainError,
     "ph grid must lie in"),
    (lambda: PhaseMapSpec(FREQS, [0.5, 0.6], [-0.1, 0.2]), DomainError,
     "pc grid must lie in"),
    (lambda: PhaseMapSpec(FREQS, [0.5, 0.6], [0.1, 0.2], xi=0.7), DomainError,
     "xi must lie"),
])
def test_validation_errors_fire(build, exc, match):
    with pytest.raises(exc, match=match):
        build()


@pytest.mark.parametrize("u", [-800.0, -1.2, 0.0, 1e-3, 0.7, 800.0])
def test_reservoir_population_is_derived(u):
    r = ReservoirSpec(u)
    assert r.p == gibbs_population(u)
    assert r.negative_temperature == (u < 0.0)
    assert ReservoirSpec.from_population(0.8).p == pytest.approx(0.8, abs=1e-14)
