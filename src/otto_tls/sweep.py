"""Parameter sweeps: cycle tau-sweeps and the friction map.

Times are in ms, as everywhere below the CLI.  log_spaced and linear_spaced
build unit-free grids from finite bounds, and cli._tau_grid the CLI's tau
grid.  Every count here (points, threads) and propagator's step counts
pass the package's one count rule, otto_tls._check_count.  Each sweep
checks its inputs when it is called: run_tau_sweep the
populations, leaving the strokes to propagator.xi_sweep, the loop behind
the xi(tau) curve, which checks every tau before it integrates any;
run_phase_map its grids and xi.  run_tau_sweep pairs each PropagatorResult
with its CycleEnergetics; the phase map takes xi as given and loads no
integrator, and its zero-friction line is thermo.zero_friction_pc.  Every
energy comes from thermo.cycle_energetics: a tau-sweep point and a
phase-map cell at the same (p_c, p_h, xi) report the same friction work
and mode.  Sweep points are independent pure computations, evaluated in
input order.  Only the phase map may run its cells on a thread pool of
`threads` workers, at most the CPU count, which run_phase_map checks before
it starts any; it assembles them in input order, so its output is bitwise
deterministic whatever the thread count.  The tau loop is serial:
its per-point work is pure Python that holds the interpreter lock, and a
pool measured slower.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Sequence

from . import DomainError, _check_count, _check_xi
from .thermo import (CycleEnergetics, CycleFrequencies, CycleInputs,
                     _check_population, cycle_energetics)

TYPE_CHECKING = False
if TYPE_CHECKING:  # run_tau_sweep imports propagator when it runs
    from .propagator import IntegratorConfig, PropagatorResult

# The most points of a grid and cells of a phase map: the grids, the rows
# and the CSV lines are held in memory, and a 500,000-cell map peaks near
# 1 GB (about 1.9 kB per cell on the thread pool).
MAX_POINTS = 500_000


def _check_finite_bounds(lo: float, hi: float) -> None:
    for x in (lo, hi):
        if not math.isfinite(x):
            raise DomainError(f"grid bounds must be finite, got {x}")


def log_spaced(lo: float, hi: float, points: int) -> list[float]:
    """Strictly increasing log-spaced grid from exactly lo to exactly hi."""
    _check_finite_bounds(lo, hi)
    if not (0.0 < lo < hi):
        raise DomainError(f"need 0 < lo < hi, got {lo}, {hi}")
    _check_count("points", points, 2, MAX_POINTS)
    la, lb = math.log(lo), math.log(hi)
    grid = [math.exp(la + (lb - la) * i / (points - 1)) for i in range(points)]
    grid[0], grid[-1] = lo, hi  # exp(log(x)) can miss x by ulps
    return grid


def linear_spaced(lo: float, hi: float, points: int) -> list[float]:
    _check_finite_bounds(lo, hi)
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got {lo}, {hi}")
    _check_count("points", points, 2, MAX_POINTS)
    grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    grid[-1] = hi  # lo + (hi - lo) can round above hi
    return grid


def run_tau_sweep(freqs: CycleFrequencies, p_c: float, p_h: float,
                  taus: Sequence[float], cfg: IntegratorConfig
                  ) -> list[tuple[PropagatorResult, CycleEnergetics]]:
    """xi_sweep over the stroke durations taus (ms), then the energetics.

    p_c and p_h are checked first, then xi_sweep checks every tau before it
    integrates any.  Returns (PropagatorResult, CycleEnergetics) pairs in
    grid order.  A point that does not converge within
    propagator.MAX_STEPS has converged=False and the xi of its last pass;
    it never aborts the sweep.
    """
    from .propagator import xi_sweep

    _check_population(p_c, "p_c")
    _check_population(p_h, "p_h")
    return [(pt, cycle_energetics(CycleInputs(freqs, p_c, p_h, pt.xi)))
            for pt in xi_sweep(taus, freqs, cfg)]


class PhaseMapRow(namedtuple("PhaseMapRow",
                             "p_h p_c w_fric mode on_zero_line")):
    __slots__ = ()


def _check_map_inputs(ph_values: Sequence[float],
                      pc_values: Sequence[float], threads: int | None) -> int:
    """run_phase_map's checks of its grids and threads; the thread count."""
    for name, grid in (("ph", ph_values), ("pc", pc_values)):
        if len(grid) < 2:
            raise DomainError(f"{name} grid must have at least 2 points")
        # Written so that NaN anywhere in the grid fails one of the tests.
        if not all(a < b for a, b in zip(grid, grid[1:])):
            raise DomainError(f"{name} grid must be strictly increasing")
        for x in (grid[0], grid[-1]):
            _check_population(x, f"{name} grid")
    count = len(ph_values) * len(pc_values)
    if count > MAX_POINTS:
        raise DomainError(
            f"phase map has {count} cells, more than {MAX_POINTS}")
    cpus = os.cpu_count() or 1
    threads = cpus if threads is None else threads
    _check_count("threads", threads, 1, cpus)  # before any OS thread starts
    return threads


def run_phase_map(freqs: CycleFrequencies, ph_values: Sequence[float],
                  pc_values: Sequence[float], xi: float,
                  threads: int | None = None) -> list[PhaseMapRow]:
    """Friction work on the (p_h, p_c) grid at xi, row-major in p_h then p_c.

    The sign structure of the friction work does not depend on the stroke
    duration, so xi enters only as a magnitude.  Each grid needs at least
    2 strictly increasing points in [0, 1], as CycleInputs' populations,
    and the two hold at most MAX_POINTS cells; xi lies in [0, 1/2].
    The cells run on a pool of threads workers, serially at 1; threads
    None means os.cpu_count(), and any other value must be an int in [1,
    that count].  The grids and threads are checked first, then xi, all
    before any thread starts.
    w_fric and mode are those of cycle_energetics.  A cell is marked
    on_zero_line when the friction bracket nu_h (1 - 2 p_c) + nu_c (1 - 2 p_h)
    is smaller than the grid resolution maps into energy units; the bracket
    is evaluated here because w_fric = xi * bracket loses it at xi = 0.
    """
    threads = _check_map_inputs(ph_values, pc_values, threads)
    _check_xi(xi)
    nu_c, nu_h = freqs.nu_c, freqs.nu_h
    d_pc = max(b - a for a, b in zip(pc_values, pc_values[1:]))
    d_ph = max(b - a for a, b in zip(ph_values, ph_values[1:]))
    line_tol = nu_h * d_pc + nu_c * d_ph

    cells = [(ph, pc) for ph in ph_values for pc in pc_values]

    def cell(point: tuple[float, float]) -> PhaseMapRow:
        ph, pc = point
        en = cycle_energetics(CycleInputs(freqs, pc, ph, xi))
        bracket = nu_h * (1.0 - 2.0 * pc) + nu_c * (1.0 - 2.0 * ph)
        return PhaseMapRow(ph, pc, en.w_fric, en.mode,
                           abs(bracket) < line_tol)

    if threads == 1:
        return [cell(x) for x in cells]
    # Imported here so that serial runs skip the import cost.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(cell, cells))
