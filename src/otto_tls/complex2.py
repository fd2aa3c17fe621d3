"""Exact 2x2 complex linear algebra.

Everything in the cycle lives in dimension two, so unitary exponentials
are done in closed form rather than through a general linear-algebra
library.  A matrix is an immutable named tuple of its four entries, with
only the operations the package uses: product, difference, adjoint and
max-abs norm.  The constrained roles validate their structure on every
construction.  Hermitian2 and Unitary2 extend Matrix2, and Density2 extends
Hermitian2: a density matrix passes the Hermitian check (conjugate
off-diagonal, real diagonal) before its trace and eigenvalue checks.  Each
check works in closed form on the four entries and builds no intermediate
matrix: U^dag U - I, for example, is formed from the two column norms and
the column overlap.

Conventions: a Hermitian matrix is split as H = c*I + v.sigma with
c = tr(H)/2 and v the Bloch components; the exponential uses
exp(-i*theta*(n.sigma)) = cos(theta)*I - i*sin(theta)*(n.sigma).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import OttoError  # the package root defines the error types

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIG_TOL = 1e-12


class ConstraintViolation(OttoError):
    """A matrix failed the structural check for its declared role."""


class Matrix2(namedtuple("Matrix2", "a11 a12 a21 a22")):
    """A dense 2x2 complex matrix, stored row-major.

    Construction runs _check, which each constrained role extends.
    """

    __slots__ = ()

    def __new__(cls, a11: complex, a12: complex, a21: complex, a22: complex):
        self = tuple.__new__(cls, (a11, a12, a21, a22))
        self._check()
        return self

    def _check(self) -> None:
        a11, a12, a21, a22 = self
        isfinite = cmath.isfinite  # takes int, float and complex alike
        if not (isfinite(a11) and isfinite(a12)
                and isfinite(a21) and isfinite(a22)):
            raise ConstraintViolation("matrix entries must be finite")

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = other
        return Matrix2(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                       a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a11 - other.a11, self.a12 - other.a12,
                       self.a21 - other.a21, self.a22 - other.a22)

    def adjoint(self) -> "Matrix2":
        return Matrix2(
            self.a11.conjugate(), self.a21.conjugate(),
            self.a12.conjugate(), self.a22.conjugate(),
        )

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a11, self.a12, self.a21, self.a22)


class Hermitian2(Matrix2):
    """Matrix2 constrained to be Hermitian within HERMITIAN_TOL."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        a11, a12, a21, a22 = self
        tol = HERMITIAN_TOL * max(1.0, abs(a11), abs(a12), abs(a21), abs(a22))
        if abs(a21 - a12.conjugate()) > tol:
            raise ConstraintViolation("matrix is not Hermitian: off-diagonal "
                                      "entries are not conjugate")
        if abs(a11.imag) > tol or abs(a22.imag) > tol:
            raise ConstraintViolation("matrix is not Hermitian: diagonal "
                                      "entries are not real")


class Unitary2(Matrix2):
    """Matrix2 constrained to satisfy U^dag U = I within UNITARY_TOL."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        a11, a12, a21, a22 = self
        c11 = a11.conjugate()
        c21 = a21.conjugate()
        # The entries of U^dag U - I, with the same arithmetic as the matrix
        # form; its (2, 1) entry is the conjugate of the (1, 2) entry.  Each
        # test is written so that a NaN from an overflowing product rejects.
        if not (abs(c11 * a11 + c21 * a21 - 1.0) <= UNITARY_TOL
                and abs(a12.conjugate() * a12 + a22.conjugate() * a22 - 1.0)
                <= UNITARY_TOL
                and abs(c11 * a12 + c21 * a22) <= UNITARY_TOL):
            raise ConstraintViolation("matrix is not unitary")


class Density2(Hermitian2):
    """Hermitian2 constrained to unit trace and no negative eigenvalue."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        a11, a12, a21, a22 = self
        if abs(a11 + a22 - 1.0) > DENSITY_TRACE_TOL:
            raise ConstraintViolation("density matrix trace is not 1")
        a = a11.real
        d = a22.real
        if 0.5 * (a + d) - math.hypot(0.5 * (a - d), abs(a12)) \
                < -DENSITY_EIG_TOL:
            raise ConstraintViolation("density matrix has a negative eigenvalue")


def exp_neg_i_h(h: Hermitian2, phase_scale: float) -> Unitary2:
    """Closed-form unitary exp(-i * phase_scale * H) for Hermitian H.

    Splits H = c*I + v.sigma and applies the Pauli-exponential identity;
    the result is unitary to rounding.
    """
    a = h.a11.real
    d = h.a22.real
    b = h.a12
    c = 0.5 * (a + d)
    hz = 0.5 * (a - d)
    r = math.hypot(hz, abs(b))
    s = float(phase_scale)

    phase = cmath.exp(-1j * s * c)
    if r == 0.0:
        return Unitary2(phase, 0.0, 0.0, phase)

    cs = math.cos(s * r)
    k = -1j * math.sin(s * r) / r
    return Unitary2(
        phase * (cs + k * hz),
        phase * k * b,
        phase * k * b.conjugate(),
        phase * (cs - k * hz),
    )
