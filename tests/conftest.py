import cmath
import math
import random

import numpy as np
import pytest

from otto_tls import CycleFrequencies, Hermitian2, Unitary2, exp_neg_i_h

# Excited / ground eigenstates of the two stroke endpoint Hamiltonians, the
# oracle kets of the transition probability xi = |<+y|U|-x>|^2.
_S2 = 1.0 / math.sqrt(2.0)
KET_PLUS_X = (_S2 + 0j, _S2 + 0j)
KET_MINUS_X = (_S2 + 0j, -_S2 + 0j)
KET_PLUS_Y = (_S2 + 0j, 1j * _S2)
KET_MINUS_Y = (_S2 + 0j, -1j * _S2)


@pytest.fixture
def reference_freqs():
    """The frequency pair used throughout the reference figures."""
    return CycleFrequencies(2.0, 3.6)


def to_numpy(m) -> np.ndarray:
    """A 2x2 matrix, or its row-major entries, as a complex numpy array."""
    a11, a12, a21, a22 = m
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def midpoint_entries(tau: float, freqs: CycleFrequencies,
                     steps: int) -> tuple[complex, complex, complex, complex]:
    """Expansion stroke by the second-order exponential-midpoint rule.

    An oracle independent of the package's Magnus kernel: it steps in the
    lab frame, where the midpoint Hamiltonian is H/h = c0*I + hx*sx + hy*sy
    with c0 = r*(cos+sin), (hx, hy) = r*(cos, sin), r = nu(t)/2, so each
    step is three sin/cos pairs.  Returns U's row-major entries.
    """
    dt = tau / steps
    s = 2.0 * math.pi * dt
    # After factoring out the scalar phase exp(-i*s*c0), each step matrix is
    # [[a, b], [-conj(b), a]] with a real, and that SU(2)-like form is closed
    # under products; track only (u, v) of [[u, v], [-conj(v), conj(u)]] and
    # accumulate the phase angle separately.
    u = 1.0 + 0j
    v = 0j
    total_angle = 0.0
    quarter_turn = 0.5 * math.pi
    dnu = freqs.nu_h - freqs.nu_c
    nu_c = freqs.nu_c
    cos, sin = math.cos, math.sin
    for k in range(steps):
        x = (k + 0.5) / steps  # t / tau, also where tau / steps underflows
        r = 0.5 * (nu_c + dnu * x)
        th = quarter_turn * x
        c = cos(th)
        sn = sin(th)
        sr = s * r
        total_angle += sr * (c + sn)
        a = cos(sr)
        msr = sin(sr)
        b = complex(-msr * sn, -msr * c)  # -i*sin(sr)*(c - i*sn)
        u, v = a * u - b * v.conjugate(), a * v + b * u.conjugate()
    phase = complex(cos(total_angle), -sin(total_angle))
    return (phase * u, phase * v,
            -phase * v.conjugate(), phase * u.conjugate())


def xi_1(tau: float, freqs: CycleFrequencies) -> float:
    """xi of a long expansion stroke to first order in 1/tau (ms, kHz).

    The adiabatic-limit oracle: first-order adiabatic perturbation theory
    leaves the tilt 1/(4 nu tau) of the co-rotating frame's eigenbasis at
    each end of the stroke, and xi is the interference of the two,
    [1/nu_c^2 + 1/nu_h^2 - 2 cos(pi (nu_c + nu_h) tau)/(nu_c nu_h)]
    / (64 tau^2).  The next order adds O(1/tau^3).
    """
    nu_c, nu_h = freqs.nu_c, freqs.nu_h
    phase = cmath.exp(1j * math.pi * (nu_c + nu_h) * tau)
    return abs(1.0 / (8.0 * nu_c * tau) - phase / (8.0 * nu_h * tau)) ** 2


def random_hermitian(rng: random.Random, scale: float = 2.0) -> Hermitian2:
    a = rng.uniform(-scale, scale)
    d = rng.uniform(-scale, scale)
    b = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
    return Hermitian2(a, b, b.conjugate(), d)


def random_unitary(rng: random.Random) -> Unitary2:
    return exp_neg_i_h(random_hermitian(rng), rng.uniform(0.0, 2.0))


def stroke_unitary(alpha: float, phi1: float = 0.0,
                   phi2: float = 0.0) -> Unitary2:
    """Unitary mapping the x eigenbasis to the y eigenbasis with mixing.

    Sends |+x> -> cos(a) e^{i phi1} |+y> + sin(a) e^{i phi2} |-y> (and the
    orthogonal partner), so its transition probability is exactly sin(a)^2.
    Useful for building test unitaries with a prescribed xi.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    e1 = complex(math.cos(phi1), math.sin(phi1))
    e2 = complex(math.cos(phi2), math.sin(phi2))
    # Columns of V_x / V_y are the basis kets.
    vx = ((KET_PLUS_X[0], KET_MINUS_X[0]), (KET_PLUS_X[1], KET_MINUS_X[1]))
    vy = ((KET_PLUS_Y[0], KET_MINUS_Y[0]), (KET_PLUS_Y[1], KET_MINUS_Y[1]))
    r = ((c * e1, -s * e1), (s * e2, c * e2))
    # U = V_y R V_x^dag
    m = [[0j, 0j], [0j, 0j]]
    for i in range(2):
        for j in range(2):
            acc = 0j
            for k in range(2):
                for l in range(2):
                    acc += vy[i][k] * r[k][l] * vx[j][l].conjugate()
            m[i][j] = acc
    return Unitary2(m[0][0], m[0][1], m[1][0], m[1][1])


def random_stroke_unitary(rng: random.Random) -> Unitary2:
    """Random unitary whose transition probability lies in [0, 1/2]."""
    alpha = math.asin(math.sqrt(rng.uniform(0.0, 0.5)))
    return stroke_unitary(alpha, rng.uniform(0, 2 * math.pi),
                          rng.uniform(0, 2 * math.pi))
