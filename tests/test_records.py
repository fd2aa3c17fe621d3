"""Record semantics: every public record is an immutable, validated named tuple."""

import copy
import math
import os
import pickle
import re

import pytest

import otto_tls
from otto_tls import (ConstraintViolation, CycleEnergetics, CycleFrequencies,
                      CycleInputs, Density2, DomainError, Hermitian2,
                      IntegratorConfig, Matrix2, PhaseMapRow,
                      PropagatorResult, Unitary2, cycle_energetics,
                      entropy_production, evolve_expansion, exp_neg_i_h,
                      gibbs_population, gibbs_state, hot_population_window,
                      negative_friction_window, run_phase_map, run_tau_sweep,
                      propagate_fixed_steps, zero_friction_pc)
from otto_tls.propagator import MAX_STEPS
from otto_tls.sweep import MAX_POINTS, linear_spaced, log_spaced

FREQS = CycleFrequencies(2.0, 3.6)
H = Hermitian2(0.3, 0.2 + 0.1j, 0.2 - 0.1j, -0.4)
U = exp_neg_i_h(H, 0.7)
INPUTS = CycleInputs(FREQS, 0.4, 0.8, 0.25)
CFG = IntegratorConfig()

SAMPLES = [
    Matrix2(1.0, 2j, -1.5, 0.5 + 0.5j),
    H,
    U,
    Density2(*gibbs_state(0.3, "x")),  # gibbs_state returns plain entries
    FREQS,
    IntegratorConfig(xi_tolerance=1e-8),
    evolve_expansion(0.3, FREQS),
    INPUTS,
    cycle_energetics(INPUTS),
    run_phase_map(FREQS, [0.2, 0.8], [0.1, 0.4], 0.25, threads=1)[0],
]
RECORDS = pytest.mark.parametrize("rec", SAMPLES,
                                  ids=[type(r).__name__ for r in SAMPLES])


def test_samples_cover_every_public_record():
    public = {getattr(otto_tls, n) for n in otto_tls.__all__}
    records = {c for c in public if isinstance(c, type) and issubclass(c, tuple)}
    assert records == {type(r) for r in SAMPLES}
    assert len(records) == 10  # 7 records and the three Matrix2 roles


RECORD_FIELDS = {
    "Matrix2": "a11 a12 a21 a22",
    "Hermitian2": "a11 a12 a21 a22",
    "Unitary2": "a11 a12 a21 a22",
    "Density2": "a11 a12 a21 a22",
    "CycleFrequencies": "nu_c nu_h",
    "IntegratorConfig": "xi_tolerance",
    "PropagatorResult": "U steps_used xi_error_estimate xi converged",
    "CycleInputs": "freqs p_c p_h xi",
    "CycleEnergetics": "w_exp w_comp q_c q_h w_net w_ad w_fric eta mode",
    "PhaseMapRow": "p_h p_c w_fric mode on_zero_line",
}


def test_record_fields_are_pinned():
    # Every settable or reported value of the public API, listed here so
    # that adding or dropping a field is a reviewed change to this test.
    fields = {type(r).__name__: " ".join(r._fields) for r in SAMPLES}
    assert fields == RECORD_FIELDS


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
        assert IntegratorConfig() == (1e-9,)
        cfg = IntegratorConfig(xi_tolerance=1e-8)
        assert cfg == IntegratorConfig(1e-8)
        assert cfg.xi_tolerance == 1e-8

    def test_tau_sweep_spec_defaults(self):
        # No record holds a tau sweep's inputs any more: run_tau_sweep takes
        # the grid whole and has no default config, so the default
        # IntegratorConfig must be passed and then matches xi_sweep's.
        from otto_tls.propagator import xi_sweep
        from otto_tls.sweep import linear_spaced
        grid = linear_spaced(0.01, 1.0, 100)
        assert (grid[0], grid[-1], len(grid)) == (0.01, 1.0, 100)
        assert grid[1] - grid[0] == pytest.approx(grid[-1] - grid[-2])
        rows = run_tau_sweep(FREQS, 0.4, 0.8, grid, CFG)
        assert [pt for pt, _ in rows] == xi_sweep(grid, FREQS)
        with pytest.raises(TypeError):
            run_tau_sweep(FREQS, 0.4, 0.8, grid)

    def test_keywords_match_positions(self):
        assert CycleInputs(freqs=FREQS, p_c=0.4, p_h=0.8, xi=0.25) == INPUTS
        assert Matrix2(a11=1.0, a12=0.0, a21=0.0, a22=1.0) == (1, 0, 0, 1)
        assert not PropagatorResult(U, steps_used=16, xi_error_estimate=0.0,
                                    xi=0.1, converged=False).converged
        assert PhaseMapRow(0.2, 0.1, 0.5, mode="engine",
                           on_zero_line=False).mode == "engine"
        assert CycleEnergetics(*range(7), None, "engine").is_engine

    @pytest.mark.parametrize("build", [
        lambda: CycleFrequencies(2.0),
        lambda: CycleFrequencies(2.0, 3.6, 4.0),
        lambda: IntegratorConfig(xi_tol=1e-8),
        lambda: PhaseMapRow(0.2, 0.1, 0.5, "engine"),
        # The sweeps take no default config or xi: the CLI passes both.
        lambda: run_tau_sweep(FREQS, 0.4, 0.8, [0.01]),
        lambda: run_phase_map(FREQS, [0.2, 0.8], [0.1, 0.4]),
    ])
    def test_wrong_arguments_rejected(self, build):
        with pytest.raises(TypeError):
            build()


NAN, INF = math.nan, math.inf


# (test id, build, exception, message pattern); the ids name the cases,
# so editing a message renames no test.
VALIDATION_ERRORS = [
    ("matrix-nan",
     lambda: Matrix2(NAN, 0, 0, 1), ConstraintViolation, "finite"),
    ("matrix-inf-imag",
     lambda: Matrix2(1, complex(0, INF), 0, 1), ConstraintViolation, "finite"),
    ("unitary-inf",
     lambda: Unitary2(INF, 0, 0, 1), ConstraintViolation, "finite"),
    ("hermitian-not-conjugate",
     lambda: Hermitian2(1, 1j, 1j, 1), ConstraintViolation, "not conjugate"),
    ("hermitian-complex-diagonal",
     lambda: Hermitian2(1j, 0, 0, 1), ConstraintViolation, "not real"),
    ("unitary-not-unitary",
     lambda: Unitary2(1, 1, 0, 1), ConstraintViolation, "not unitary"),
    ("density-not-hermitian",
     lambda: Density2(0.5, 0.1, 0.2, 0.5), ConstraintViolation, "not Hermitian"),
    ("density-complex-diagonal",
     lambda: Density2(0.5 + 0.1j, 0.2, 0.2, 0.5 - 0.1j), ConstraintViolation,
     "diagonal entries are not real"),
    ("density-trace",
     lambda: Density2(0.6, 0, 0, 0.6), ConstraintViolation, "trace is not 1"),
    ("density-negative-eigenvalue",
     lambda: Density2(1.5, 0, 0, -0.5), ConstraintViolation, "negative eigenvalue"),
    ("nu-c-zero",
     lambda: CycleFrequencies(0.0, 1.0), DomainError, "nu_c must be positive"),
    ("nu-c-nan",
     lambda: CycleFrequencies(NAN, 1.0), DomainError, "nu_c must be positive"),
    ("nu-h-equal",
     lambda: CycleFrequencies(2.0, 2.0), DomainError, "nu_h must be finite and exceed"),
    ("nu-h-inf",
     lambda: CycleFrequencies(2.0, INF), DomainError, "nu_h must be finite and exceed"),
    ("resolve-tau-zero", lambda: CFG.resolve_steps(0.0, FREQS), DomainError,
     "tau must be positive"),
    ("resolve-tau-nan", lambda: CFG.resolve_steps(NAN, FREQS), DomainError,
     "tau must be positive"),
    ("resolve-tau-inf", lambda: CFG.resolve_steps(INF, FREQS), DomainError,
     "tau must be positive and finite"),
    ("exponent-inf",
     lambda: gibbs_population(INF), DomainError, "exponent must be finite"),
    ("exponent-nan",
     lambda: gibbs_population(NAN), DomainError, "exponent must be finite"),
    ("xi-tol-zero",
     lambda: IntegratorConfig(xi_tolerance=0.0), DomainError, "xi_tolerance"),
    ("xi-tol-large",
     lambda: IntegratorConfig(xi_tolerance=0.02), DomainError, "xi_tolerance"),
    ("xi-tol-small", lambda: IntegratorConfig(xi_tolerance=1e-15), DomainError,
     "1e-14, 1e-2"),  # the message names the accepted range
    ("result-xi-high",
     lambda: PropagatorResult(U, 16, 0.0, 0.6), DomainError, "outside"),
    ("result-xi-negative",
     lambda: PropagatorResult(U, 16, 0.0, -0.1), DomainError, "outside"),
    ("inputs-pc-negative",
     lambda: CycleInputs(FREQS, -0.1, 0.8, 0.25), DomainError, "p_c must lie"),
    ("inputs-ph-high",
     lambda: CycleInputs(FREQS, 0.4, 1.1, 0.25), DomainError, "p_h must lie"),
    ("inputs-xi-high",
     lambda: CycleInputs(FREQS, 0.4, 0.8, 0.6), DomainError, "xi must lie"),
    ("tau-sweep-tau-zero-last",
     lambda: run_tau_sweep(FREQS, 0.4, 0.8, [0.1, 0.0], CFG), DomainError,
     "tau must be positive and finite"),
    ("tau-sweep-tau-zero-first",
     lambda: run_tau_sweep(FREQS, 0.4, 0.8, [0.0, 1.0], CFG), DomainError,
     "tau must be positive and finite"),
    ("tau-sweep-tau-inf",
     lambda: run_tau_sweep(FREQS, 0.4, 0.8, [0.01, INF], CFG), DomainError,
     "tau must be positive and finite"),
    ("tau-sweep-tau-too-long",
     lambda: run_tau_sweep(FREQS, 0.4, 0.8, [0.01, 1e300], CFG), DomainError,
     "too long to integrate"),
    ("tau-sweep-pc-high",
     lambda: run_tau_sweep(FREQS, 1.5, 0.8, [0.01], CFG), DomainError,
     "p_c must lie"),
    ("map-ph-one-point",
     lambda: run_phase_map(FREQS, [0.5], [0.1, 0.2], 0.25), DomainError,
     "ph grid must have at least 2 points"),
    ("map-pc-decreasing",
     lambda: run_phase_map(FREQS, [0.5, 0.6], [0.2, 0.1], 0.25), DomainError,
     "pc grid must be strictly increasing"),
    ("map-ph-high",
     lambda: run_phase_map(FREQS, [0.5, 1.2], [0.1, 0.2], 0.25), DomainError,
     "ph grid must lie in"),
    ("map-pc-negative",
     lambda: run_phase_map(FREQS, [0.5, 0.6], [-0.1, 0.2], 0.25), DomainError,
     "pc grid must lie in"),
    ("map-xi-high",
     lambda: run_phase_map(FREQS, [0.5, 0.6], [0.1, 0.2], 0.7), DomainError,
     "xi must lie"),
    ("map-xi-nan",
     lambda: run_phase_map(FREQS, [0.5, 0.6], [0.1, 0.2], NAN), DomainError,
     "xi must lie"),
    ("tau-sweep-ph-nan",
     lambda: run_tau_sweep(FREQS, 0.4, NAN, [0.01], CFG), DomainError,
     "p_h must lie in"),
    ("zero-line-nan", lambda: zero_friction_pc(NAN, FREQS), DomainError,
     r"p_h must lie in \[0, 1\]"),
    ("zero-line-negative", lambda: zero_friction_pc(-0.1, FREQS), DomainError,
     r"p_h must lie in \[0, 1\]"),
    ("zero-line-high", lambda: zero_friction_pc(1.5, FREQS), DomainError,
     r"p_h must lie in \[0, 1\]"),
    ("pc-window-nan",
     lambda: negative_friction_window(NAN, FREQS), DomainError,
     "p_h must lie in"),
    ("ph-window-nan",
     lambda: hot_population_window(NAN, FREQS), DomainError, "p_c must lie"),
    ("entropy-p-nan", lambda: entropy_production(NAN, 0.25), DomainError,
     "population must lie"),
    ("entropy-xi-nan",
     lambda: entropy_production(0.4, NAN), DomainError, "xi must lie"),
    ("gibbs-state-nan",
     lambda: gibbs_state(NAN, "x"), DomainError, "population must lie"),
    ("linear-spaced-equal",
     lambda: linear_spaced(0.5, 0.5, 3), DomainError, "need lo < hi"),
    *[(f"threads-{name}",
       lambda t=t: run_phase_map(FREQS, [0.2, 0.8], [0.1, 0.4], 0.25,
                                 threads=t), DomainError,
       "threads must be an int in")
      for name, t in [("zero", 0), ("negative", -1),
                      ("cpus-plus-1", (os.cpu_count() or 1) + 1),
                      ("huge", 10**30), ("bool", True), ("float", 1.5),
                      ("str", "2"), ("whole-float", 1.0)]],
    # Every count passes one rule, which refuses a count that is not an
    # exact int (bool subclasses int) as well as one out of its range.
    *[(f"{f.__name__}-{name}", lambda f=f, n=n: f(1.0, 2.0, n), DomainError,
       rf"^points must be an int in \[2, {MAX_POINTS}\], "
       rf"got {re.escape(repr(n))}$")
      for f in (log_spaced, linear_spaced)
      for name, n in [("float", 2.5), ("whole-float", 3.0), ("bool", True),
                      ("str", "3")]],
    *[(f"steps-{name}", lambda n=n: propagate_fixed_steps(0.3, FREQS, n),
       DomainError,
       rf"^steps must be an int in \[1, {MAX_STEPS}\], "
       rf"got {re.escape(repr(n))}$")
      for name, n in [("bool", True), ("whole-float", 2.0), ("str", "8"),
                      ("zero", 0), ("over-max", MAX_STEPS + 1)]],
]


@pytest.mark.parametrize("build, exc, match", [
    pytest.param(*row, id=row_id) for row_id, *row in VALIDATION_ERRORS])
def test_validation_errors_fire(build, exc, match, monkeypatch):
    # No refusal may take an integrator step.
    def no_step(*args):
        raise AssertionError("an integrator step was taken")

    monkeypatch.setattr("otto_tls.propagator._propagate_magnus6", no_step)
    with pytest.raises(exc, match=match):
        build()
