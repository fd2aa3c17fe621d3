"""The three benchmark workloads: seeded CLI arguments and output checks.

Every check here is independent of the program under test: the tau grid,
the phase-map grid, the closed-form energetics and the zero-friction line
are recomputed from the formulas in this file, and xi is compared with a
stored reference (see make_reference.py).  A row fails when it is missing,
unconverged, or outside tolerance; a nonzero exit code fails every row.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NU_C, NU_H = 2.0, 3.6
TAU_MIN_US, TAU_MAX_US, TAU_POINTS = 10.0, 1000.0, 100
PH_MIN, PH_MAX, PC_MIN, PC_MAX, MAP_POINTS = 0.02, 1.0, 0.02, 0.49, 200
VERIFY_CHECKS = 8

# Same tolerance as the golden xi regression test.
XI_TOL = 5e-9
# Energies are printed with 12 significant digits and are O(1) in h*kHz.
ENERGY_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference_xi.json")
FREQ_ARGS = ["--nu-c", "2", "--nu-h", "3.6"]


@dataclass(frozen=True)
class Check:
    """Outcome of checking one output: rows attempted and rows failed."""

    attempted: int
    failed: int
    first_error: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]
    expected_rows: int
    check: Callable[[str], Check]


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    la, lb = math.log(lo), math.log(hi)
    return [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]


def linear_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _data_rows(text: str, width: int, mode_col: int) -> list[list[str]]:
    """CSV rows after the '#' unit comment and the header line.

    The mode field is written unquoted and some modes contain a comma, so
    the fields are split from both ends and the rest joined back into mode.
    """
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        tail = width - mode_col - 1
        if len(f) > width:
            f = f[:mode_col] + [",".join(f[mode_col:len(f) - tail])] + f[len(f) - tail:]
        rows.append(f)
    return rows


def closed_form_energetics(p_c: float, p_h: float, xi: float) -> dict:
    """Stage energies of the Otto cycle in h*kHz, from the paper's closed forms."""
    dnu = NU_H - NU_C
    w_exp = dnu * p_c + NU_H * xi * (1.0 - 2.0 * p_c)
    w_comp = -dnu * p_h + NU_C * xi * (1.0 - 2.0 * p_h)
    q_h = NU_H * (p_h - p_c) - NU_H * xi * (1.0 - 2.0 * p_c)
    q_c = -NU_C * (p_h - p_c) - NU_C * xi * (1.0 - 2.0 * p_h)
    w_fric = xi * (NU_H * (1.0 - 2.0 * p_c) + NU_C * (1.0 - 2.0 * p_h))
    return {"w_net": w_exp + w_comp, "w_ad": -dnu * (p_h - p_c),
            "w_fric": w_fric, "q_h": q_h, "q_c": q_c}


def _tau_sweep_row_error(row: list[str], tau_ref: float, xi_ref: float,
                         p_c: float, p_h: float) -> str:
    if len(row) != 10:
        return f"expected 10 fields, got {len(row)}"
    tau, xi, w_net, w_ad, w_fric, q_h, q_c, eta, mode, converged = row
    if converged != "1":
        return "unconverged"
    if not _close(float(tau), tau_ref, 1e-11):
        return f"tau_us {tau} != {tau_ref}"
    xi = float(xi)
    if abs(xi - xi_ref) > XI_TOL:
        return f"xi {xi} differs from reference {xi_ref} by more than {XI_TOL}"
    want = closed_form_energetics(p_c, p_h, xi)
    for name, got in zip(("w_net", "w_ad", "w_fric", "q_h", "q_c"),
                         (w_net, w_ad, w_fric, q_h, q_c)):
        if abs(float(got) - want[name]) > ENERGY_TOL:
            return f"{name} {got} != closed form {want[name]}"
    w, q = want["w_net"], want["q_h"]
    if abs(w) > ENERGY_TOL and abs(q) > ENERGY_TOL:
        engine = w < 0.0 and q > 0.0
        if engine != (mode == "engine"):
            return f"mode {mode!r} with w_net={w}, q_h={q}"
        if engine and not _close(float(eta), -w / q, 1e-9):
            return f"eta {eta} != -w_net/q_h = {-w / q}"
        if not engine and eta != "":
            return f"eta {eta!r} printed outside engine mode"
    return ""


def _check_rows(rows: list, expected: int, row_error: Callable[[int, list], str]) -> Check:
    """One error string per row ("" for a good row), rows past `expected`
    and unparsable rows failing, and missing rows counted as failed."""
    errors = []
    for i, row in enumerate(rows):
        try:
            errors.append(row_error(i, row) if i < expected else "unexpected extra row")
        except ValueError as exc:
            errors.append(f"row {i}: unparsable ({exc})")
    found = [e for e in errors if e]
    missing = max(0, expected - len(errors))
    first = found[0] if found else (f"{missing} row(s) missing" if missing else "")
    return Check(max(expected, len(errors)), len(found) + missing, first)


def tau_sweep(seed: int) -> Workload:
    # The seed picks populations inside the inverted "faster is more
    # efficient" region p_h > 1 - p_c; integration work does not depend on
    # them, so every seed integrates the same 100 strokes.
    rng = random.Random(seed)
    p_c = round(rng.uniform(0.10, 0.45), 4)
    p_h = round(rng.uniform(max(0.55, 1.0 - p_c + 0.05), 0.95), 4)
    reference = json.loads(REFERENCE_PATH.read_text())["xi"]
    taus = log_grid(TAU_MIN_US, TAU_MAX_US, TAU_POINTS)

    def check(text: str) -> Check:
        return _check_rows(_data_rows(text, 10, 8), TAU_POINTS, lambda i, r:
                           _tau_sweep_row_error(r, taus[i], reference[i], p_c, p_h))

    argv = ["tau-sweep", *FREQ_ARGS, "--pc", repr(p_c), "--ph", repr(p_h),
            "--points", str(TAU_POINTS)]
    return Workload("tau-sweep", argv, TAU_POINTS, check)


def phase_map(seed: int) -> Workload:
    # The seed picks xi; the map costs the same for every xi.
    xi = round(random.Random(seed).uniform(0.05, 0.45), 4)
    ph_grid = linear_grid(PH_MIN, PH_MAX, MAP_POINTS)
    pc_grid = linear_grid(PC_MIN, PC_MAX, MAP_POINTS)
    cells = [(ph, pc) for ph in ph_grid for pc in pc_grid]
    expected = len(cells) + len(ph_grid)

    def row_error(i: int, row: list[str]) -> str:
        if len(row) != 6:
            return f"expected 6 fields, got {len(row)}"
        series, ph, pc, w_fric = row[0], float(row[1]), float(row[2]), float(row[3])
        if i < len(cells):
            want_ph, want_pc = cells[i]
            want_w = xi * (NU_H * (1.0 - 2.0 * want_pc) + NU_C * (1.0 - 2.0 * want_ph))
            want_series = "grid"
        else:
            want_ph = ph_grid[i - len(cells)]
            want_pc = 0.5 * (1.0 + (1.0 - 2.0 * want_ph) * NU_C / NU_H)
            want_w = 0.0
            want_series = "zero_line"
        if series != want_series:
            return f"row {i}: series {series!r}, expected {want_series!r}"
        if not (_close(ph, want_ph, 1e-11) and _close(pc, want_pc, 1e-11)):
            return f"row {i}: point ({ph}, {pc}) != ({want_ph}, {want_pc})"
        if abs(w_fric - want_w) > ENERGY_TOL:
            return f"row {i}: w_fric {w_fric} != analytic {want_w}"
        return ""

    def check(text: str) -> Check:
        return _check_rows(_data_rows(text, 6, 4), expected, row_error)

    argv = ["phase-map", *FREQ_ARGS, "--xi", repr(xi),
            "--ph-points", str(MAP_POINTS), "--pc-points", str(MAP_POINTS)]
    return Workload("phase-map", argv, expected, check)


def verify(seed: int) -> Workload:
    # verify takes no inputs; the seed is recorded but cannot change them.
    def check(text: str) -> Check:
        # "PASS  name" / "FAIL  name"; the summary line "FAILED: n" is not a row.
        lines = [ln for ln in text.splitlines()
                 if ln.startswith(("PASS  ", "FAIL  "))]
        return _check_rows(lines, VERIFY_CHECKS,
                           lambda i, ln: "" if ln.startswith("PASS") else ln)

    return Workload("verify", ["verify"], VERIFY_CHECKS, check)


WORKLOADS = {"tau-sweep": tau_sweep, "phase-map": phase_map, "verify": verify}
