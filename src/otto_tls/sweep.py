"""Parameter sweeps: xi(tau) curves, cycle tau-sweeps, and the friction map.

Sweep points are independent pure computations, evaluated in input order.
Only the phase map may run its cells on a thread pool (threads); it
assembles them in input order, so its output is bitwise deterministic
whatever the thread count.  xi_sweep and run_tau_sweep loop serially: their
per-point work is pure Python that holds the interpreter lock, and a pool
measured slower.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError
from .propagator import IntegratorConfig, _expansion_or_best, evolve_expansion
from .thermo import CycleEnergetics, CycleInputs, _classify, cycle_energetics
from .tls import CycleFrequencies

DEFAULT_TAU_MIN_US = 10.0
DEFAULT_TAU_MAX_US = 1000.0
DEFAULT_TAU_POINTS = 100


def _check_finite_bounds(lo: float, hi: float) -> None:
    for x in (lo, hi):
        if not math.isfinite(x):
            raise DomainError(f"grid bounds must be finite, got {x}")


def log_spaced(lo: float, hi: float, points: int) -> list[float]:
    """Strictly increasing log-spaced grid including both endpoints."""
    _check_finite_bounds(lo, hi)
    if not (0.0 < lo < hi):
        raise DomainError(f"need 0 < lo < hi, got {lo}, {hi}")
    if points < 2:
        raise DomainError("points must be at least 2")
    la, lb = math.log(lo), math.log(hi)
    return [math.exp(la + (lb - la) * i / (points - 1)) for i in range(points)]


def linear_spaced(lo: float, hi: float, points: int) -> list[float]:
    _check_finite_bounds(lo, hi)
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got {lo}, {hi}")
    if points < 2:
        raise DomainError("points must be at least 2")
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _map_ordered(fn, items, threads: int | None):
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # Imported here so that serial runs skip the import cost.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class TauSweepSpec(namedtuple("TauSweepSpec", (
        "freqs p_c p_h tau_min_us tau_max_us points cfg log_spacing"))):
    """Cycle sweep over stroke durations (tau bounds in microseconds)."""

    __slots__ = ()

    def __new__(cls, freqs: CycleFrequencies, p_c: float, p_h: float,
                tau_min_us: float = DEFAULT_TAU_MIN_US,
                tau_max_us: float = DEFAULT_TAU_MAX_US,
                points: int = DEFAULT_TAU_POINTS,
                cfg: IntegratorConfig = IntegratorConfig(),
                log_spacing: bool = True):
        if not (0.0 < tau_min_us < tau_max_us):
            raise DomainError("need 0 < tau_min < tau_max")
        if points < 2:
            raise DomainError("points must be at least 2")
        CycleInputs(freqs, p_c, p_h, 0.0)  # validates p_c, p_h
        return tuple.__new__(cls, (freqs, p_c, p_h, tau_min_us, tau_max_us,
                                   points, cfg, log_spacing))

    def tau_grid_us(self) -> list[float]:
        if self.log_spacing:
            return log_spaced(self.tau_min_us, self.tau_max_us, self.points)
        return linear_spaced(self.tau_min_us, self.tau_max_us, self.points)


class TauSweepRow(namedtuple("TauSweepRow",
                             "tau_us xi xi_error converged energetics")):
    __slots__ = ()


def run_tau_sweep(spec: TauSweepSpec) -> list[TauSweepRow]:
    """Propagate each stroke duration and evaluate the cycle energetics.

    Convergence failures are flagged per row (the best available xi is still
    used) and never abort the sweep.
    """
    rows = []
    for tau_us in spec.tau_grid_us():
        res, converged = _expansion_or_best(tau_us * 1e-3, spec.freqs, spec.cfg)
        xi = min(max(res.xi, 0.0), 0.5)
        en = cycle_energetics(CycleInputs(spec.freqs, spec.p_c, spec.p_h, xi))
        rows.append(TauSweepRow(tau_us, res.xi, res.xi_error_estimate,
                                converged, en))
    return rows


class PhaseMapSpec(namedtuple("PhaseMapSpec",
                              "freqs ph_values pc_values xi tau_us cfg")):
    """Friction map over reservoir populations at fixed xi.

    The sign structure of the friction work does not depend on the stroke
    duration, so xi enters only as a magnitude; alternatively a stroke
    duration (microseconds) can be given from which xi is computed once.
    """

    __slots__ = ()

    def __new__(cls, freqs: CycleFrequencies, ph_values: Sequence[float],
                pc_values: Sequence[float], xi: float = 0.25,
                tau_us: float | None = None,
                cfg: IntegratorConfig = IntegratorConfig()):
        for name, grid, hi in (("ph", ph_values, 1.0), ("pc", pc_values, 0.5)):
            if len(grid) < 2:
                raise DomainError(f"{name} grid must have at least 2 points")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise DomainError(f"{name} grid must be strictly increasing")
            if grid[0] < 0.0 or grid[-1] > hi:
                raise DomainError(f"{name} grid must lie in [0, {hi}]")
        if not (0.0 <= xi <= 0.5):
            raise DomainError("xi must lie in [0, 1/2]")
        return tuple.__new__(cls, (freqs, ph_values, pc_values, xi, tau_us,
                                   cfg))

    def resolve_xi(self) -> float:
        if self.tau_us is None:
            return self.xi
        return evolve_expansion(self.tau_us * 1e-3, self.freqs, self.cfg).xi


class PhaseMapRow(namedtuple("PhaseMapRow",
                             "p_h p_c w_fric mode on_zero_line")):
    __slots__ = ()


def zero_friction_line(ph_values: Sequence[float],
                       freqs: CycleFrequencies) -> list[tuple[float, float]]:
    """Analytic zero-friction curve p_c(p_h) = (1/2)(1 + (1-2p_h) nu_c/nu_h)."""
    ratio = freqs.nu_c / freqs.nu_h
    return [(ph, 0.5 * (1.0 + (1.0 - 2.0 * ph) * ratio)) for ph in ph_values]


def run_phase_map(spec: PhaseMapSpec,
                  threads: int | None = None) -> list[PhaseMapRow]:
    """Friction work on the (p_h, p_c) grid, row-major in p_h then p_c.

    A cell is marked on_zero_line when the friction expression is smaller
    than the grid resolution maps into energy units.
    """
    xi = spec.resolve_xi()
    nu_c, nu_h = spec.freqs.nu_c, spec.freqs.nu_h
    d_pc = max(b - a for a, b in zip(spec.pc_values, spec.pc_values[1:]))
    d_ph = max(b - a for a, b in zip(spec.ph_values, spec.ph_values[1:]))
    line_tol = nu_h * d_pc + nu_c * d_ph

    cells = [(ph, pc) for ph in spec.ph_values for pc in spec.pc_values]

    def cell(point: tuple[float, float]) -> PhaseMapRow:
        ph, pc = point
        # Direct formulas rather than cycle_energetics: routing the cells
        # through it under the thread pool measured 25-33% more wall time
        # on a 200x200 map (2-core host).
        sign_expr = nu_h * (1.0 - 2.0 * pc) + nu_c * (1.0 - 2.0 * ph)
        w_fric = xi * sign_expr
        w_net = -(nu_h - nu_c) * (ph - pc) + w_fric
        q_h = nu_h * ((ph - pc) - xi * (1.0 - 2.0 * pc))
        return PhaseMapRow(ph, pc, w_fric, _classify(w_net, q_h),
                           abs(sign_expr) < line_tol)

    return _map_ordered(cell, cells, threads)
