"""Closed-form 2x2 kernel against brute-force references."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otto_tls import (ConstraintViolation, CycleFrequencies, Density2,
                      Hermitian2, Matrix2, Unitary2, evolve_expansion,
                      exp_neg_i_h, gibbs_state)
from otto_tls.complex2 import UNITARY_TOL

from conftest import random_hermitian, to_numpy

EYE = np.eye(2)


def expm_reference(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Taylor-series exponential with scaling and squaring."""
    norm = np.abs(m).sum()
    k = max(0, int(math.ceil(math.log2(max(norm, 1e-30)))) + 1)
    a = m / (2 ** k)
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, terms + 1):
        term = term @ a / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


finite_reals = st.floats(min_value=-5.0, max_value=5.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def hermitians(draw):
    a = draw(finite_reals)
    d = draw(finite_reals)
    br = draw(finite_reals)
    bi = draw(finite_reals)
    b = complex(br, bi)
    return Hermitian2(a, b, b.conjugate(), d)


class TestConstraints:
    def test_nan_entries_rejected(self):
        with pytest.raises(ConstraintViolation):
            Matrix2(float("nan"), 0, 0, 1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ConstraintViolation):
            Hermitian2(1.0, 1.0, 2.0, 1.0)

    def test_complex_diagonal_rejected(self):
        with pytest.raises(ConstraintViolation):
            Hermitian2(1.0 + 0.1j, 0.0, 0.0, 1.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(ConstraintViolation):
            Unitary2(1.0, 0.0, 0.0, 2.0)

    def test_density_trace_enforced(self):
        with pytest.raises(ConstraintViolation):
            Density2(0.7, 0.0, 0.0, 0.7)

    def test_density_negative_eigenvalue_rejected(self):
        with pytest.raises(ConstraintViolation):
            Density2(1.2, 0.0, 0.0, -0.2)

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("role, base", [
        (Matrix2, (1.0, 0.0, 0.0, 1.0)),
        (Hermitian2, (1.0, 0.0, 0.0, 1.0)),
        (Unitary2, (1.0, 0.0, 0.0, 1.0)),
        (Density2, (0.5, 0.0, 0.0, 0.5)),
    ])
    def test_non_finite_entry_rejected(self, role, base, index, bad, part):
        entries = list(base)
        x = entries[index]
        entries[index] = complex(bad, 0.0) if part == "real" else complex(x, bad)
        with pytest.raises(ConstraintViolation,
                           match="^matrix entries must be finite$"):
            role(*entries)

    @pytest.mark.parametrize("entries", [
        (1e200, 0.0, 0.0, 1.0),
        (1e200, 1e200, 1e200, 1e200),
        (1e155j, 1e155, 0.0, 1.0),
    ])
    def test_overflowing_unitarity_residual_rejected(self, entries):
        # Finite entries whose products overflow to inf (or inf - inf).
        with pytest.raises(ConstraintViolation, match="not unitary"):
            Unitary2(*entries)


@st.composite
def perturbed_unitaries(draw):
    u = exp_neg_i_h(draw(hermitians()), draw(finite_reals))
    eps = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-8.0))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    return [z + eps * complex(draw(unit), draw(unit)) for z in u]


class TestClosedFormChecks:
    @given(perturbed_unitaries())
    @settings(max_examples=300, deadline=None)
    def test_unitary_check_matches_matrix_form(self, entries):
        # Matrix2 arithmetic, so that the rounding matches the check's.
        m = Matrix2(*entries)
        dev = ((m.adjoint() @ m) - Matrix2(1.0, 0.0, 0.0, 1.0)).max_abs()
        assume(abs(dev - UNITARY_TOL) > 1e-6 * UNITARY_TOL)
        try:
            Unitary2(*entries)
            accepted = True
        except ConstraintViolation:
            accepted = False
        assert accepted == (dev <= UNITARY_TOL)

    def test_role_checks_build_no_matrices(self, monkeypatch):
        u = evolve_expansion(0.3, CycleFrequencies(2.0, 3.6)).U

        def refuse(*args):
            raise AssertionError("a role check built a temporary matrix")

        for name in ("__matmul__", "adjoint", "__sub__"):
            monkeypatch.setattr(Matrix2, name, refuse)
        Unitary2(*u)
        Density2(*gibbs_state(0.3, "y"))
        Hermitian2(*gibbs_state(1.0, "x"))


class TestExp:
    def test_zero_scale_is_identity(self):
        u = exp_neg_i_h(Hermitian2(1.0, 0.5j, -0.5j, -1.0), 0.0)
        assert np.max(np.abs(to_numpy(u) - EYE)) < 1e-15

    def test_pauli_x_pi(self):
        h = Hermitian2(0.0, 1.0, 1.0, 0.0)
        u = exp_neg_i_h(h, math.pi)
        ref = expm_reference(-1j * math.pi * to_numpy(h))
        assert np.max(np.abs(to_numpy(u) - ref)) < 1e-12
        assert np.max(np.abs(to_numpy(u) + EYE)) < 1e-12  # exp(-i pi sx) = -I
        # Squaring gives exp(-2 pi i H) back.
        ref2 = expm_reference(-2j * math.pi * to_numpy(h))
        assert np.max(np.abs(to_numpy(u @ u) - ref2)) < 1e-12

    def test_random_against_taylor_reference(self):
        rng = random.Random(11)
        for _ in range(100):
            h = random_hermitian(rng)
            u = exp_neg_i_h(h, 0.3)
            ref = expm_reference(-0.3j * to_numpy(h))
            assert np.max(np.abs(to_numpy(u) - ref)) < 1e-10

    @given(hermitians(), finite_reals)
    @settings(max_examples=200, deadline=None)
    def test_inverse_property(self, h, s):
        u = exp_neg_i_h(h, s)
        v = exp_neg_i_h(h, -s)
        assert np.max(np.abs(to_numpy(u @ v) - EYE)) < 1e-10

    @given(hermitians(), finite_reals)
    @settings(max_examples=200, deadline=None)
    def test_det_modulus_one(self, h, s):
        u = exp_neg_i_h(h, s)
        det = u.a11 * u.a22 - u.a12 * u.a21
        assert abs(abs(det) - 1.0) < 1e-10
