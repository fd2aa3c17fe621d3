"""Exact 2x2 complex linear algebra.

Everything in the cycle lives in dimension two, so eigendecompositions and
unitary exponentials are done in closed form rather than through a general
linear-algebra library.  A matrix is an immutable named tuple of its four
entries; the three constrained roles (Hermitian, unitary, density matrix)
validate their structure on construction.

Conventions: a Hermitian matrix is split as H = c*I + v.sigma with
c = tr(H)/2 and v the Bloch components; the exponential uses
exp(-i*theta*(n.sigma)) = cos(theta)*I - i*sin(theta)*(n.sigma).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import ConstraintViolation

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIG_TOL = 1e-12
DEGENERACY_TOL = 1e-12


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


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
        for z in self:
            if not _finite(complex(z)):
                raise ConstraintViolation("matrix entries must be finite")

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __add__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a11 + other.a11, self.a12 + other.a12,
                       self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a11 - other.a11, self.a12 - other.a12,
                       self.a21 - other.a21, self.a22 - other.a22)

    def __neg__(self) -> "Matrix2":
        return Matrix2(-self.a11, -self.a12, -self.a21, -self.a22)

    def scaled(self, c: complex) -> "Matrix2":
        return Matrix2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def adjoint(self) -> "Matrix2":
        return Matrix2(
            self.a11.conjugate(), self.a21.conjugate(),
            self.a12.conjugate(), self.a22.conjugate(),
        )

    def trace(self) -> complex:
        return self.a11 + self.a22

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))

    def apply(self, v: tuple[complex, complex]) -> tuple[complex, complex]:
        """Matrix-vector product."""
        return (self.a11 * v[0] + self.a12 * v[1],
                self.a21 * v[0] + self.a22 * v[1])

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a11, self.a12, self.a21, self.a22)


IDENTITY = Matrix2(1.0, 0.0, 0.0, 1.0)


class Hermitian2(Matrix2):
    """Matrix2 constrained to be Hermitian within HERMITIAN_TOL."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        scale = max(1.0, self.max_abs())
        if abs(self.a21 - complex(self.a12).conjugate()) > HERMITIAN_TOL * scale:
            raise ConstraintViolation("off-diagonal entries are not conjugate")
        if abs(complex(self.a11).imag) > HERMITIAN_TOL * scale \
                or abs(complex(self.a22).imag) > HERMITIAN_TOL * scale:
            raise ConstraintViolation("diagonal entries are not real")


class Unitary2(Matrix2):
    """Matrix2 constrained to satisfy U^dag U = I within UNITARY_TOL."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        dev = (self.adjoint() @ self) - IDENTITY
        if dev.max_abs() > UNITARY_TOL:
            raise ConstraintViolation("matrix is not unitary")


class Density2(Matrix2):
    """Matrix2 constrained to be a valid density matrix."""

    __slots__ = ()

    def _check(self) -> None:
        super()._check()
        scale = max(1.0, self.max_abs())
        if abs(self.a21 - complex(self.a12).conjugate()) > HERMITIAN_TOL * scale:
            raise ConstraintViolation("density matrix is not Hermitian")
        if abs(self.trace() - 1.0) > DENSITY_TRACE_TOL:
            raise ConstraintViolation("density matrix trace is not 1")
        a = complex(self.a11).real
        d = complex(self.a22).real
        m = 0.5 * (a + d)
        r = math.hypot(0.5 * (a - d), abs(self.a12))
        if m - r < -DENSITY_EIG_TOL:
            raise ConstraintViolation("density matrix has a negative eigenvalue")


def eig_hermitian2(h: Hermitian2) -> tuple[tuple[float, float], Unitary2]:
    """Eigendecomposition of a Hermitian 2x2 matrix.

    Returns the eigenvalues in ascending order and a unitary whose columns
    are the corresponding eigenvectors.  The global phase of each eigenvector
    is fixed by making its first nonzero component real and positive, so the
    output is deterministic.  A near-degenerate spectrum (gap below
    DEGENERACY_TOL relative to the matrix scale) returns the identity basis.
    """
    if not isinstance(h, Hermitian2):
        h = Hermitian2(*h.entries())
    a = complex(h.a11).real
    d = complex(h.a22).real
    b = complex(h.a12)
    m = 0.5 * (a + d)
    r = math.hypot(0.5 * (a - d), abs(b))
    lo, hi = m - r, m + r

    scale = max(1.0, h.max_abs())
    if 2.0 * r < DEGENERACY_TOL * scale:
        return (lo, hi), Unitary2(1.0, 0.0, 0.0, 1.0)

    if abs(b) < DEGENERACY_TOL * scale:
        # Diagonal: order the standard basis by eigenvalue.
        if a <= d:
            return (lo, hi), Unitary2(1.0, 0.0, 0.0, 1.0)
        return (lo, hi), Unitary2(0.0, 1.0, 1.0, 0.0)

    def _phase_fix(v1: complex, v2: complex) -> tuple[complex, complex]:
        # First nonzero component made real positive.
        lead = v1 if abs(v1) > 1e-12 else v2
        ph = lead / abs(lead)
        return v1 / ph, v2 / ph

    # Eigenvector of the upper eigenvalue from whichever of the two row
    # equations is better conditioned; (hi - a) + (hi - d) = 2r, so the
    # larger choice is never smaller than r.
    if hi - a >= hi - d:
        w1, w2 = b, complex(hi - a)
    else:
        w1, w2 = complex(hi - d), b.conjugate()
    n = math.sqrt(abs(w1) ** 2 + abs(w2) ** 2)
    v_hi = _phase_fix(w1 / n, w2 / n)
    # The lower eigenvector is the exact orthogonal complement.
    v_lo = _phase_fix(-v_hi[1].conjugate(), v_hi[0].conjugate())
    return (lo, hi), Unitary2(v_lo[0], v_hi[0], v_lo[1], v_hi[1])


def exp_neg_i_h(h: Hermitian2, phase_scale: float) -> Unitary2:
    """Closed-form unitary exp(-i * phase_scale * H) for Hermitian H.

    Splits H = c*I + v.sigma and applies the Pauli-exponential identity;
    the result is unitary to rounding.
    """
    if not isinstance(h, Hermitian2):
        h = Hermitian2(*h.entries())
    a = complex(h.a11).real
    d = complex(h.a22).real
    b = complex(h.a12)
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
