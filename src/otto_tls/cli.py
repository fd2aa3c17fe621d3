"""Command-line front end: it parses, calls the package, and writes.

Subcommands:
  xi         transition probability versus stroke duration
  cycle      single-cycle energetics for given populations and xi (or tau)
  tau-sweep  full cycle energetics versus stroke duration
  phase-map  friction work over the (p_h, p_c) population grid, and the
             zero-friction line p_c(p_h) of thermo.zero_friction_pc
  windows    negative-friction population intervals
  verify     the self-check suite of otto_tls.verify (exit 0 on pass)

Times are accepted and printed in microseconds, energies in h*kHz; the
library below works in ms, and each command converts its times once.  CSV
output starts with a '#' comment line naming the units and is byte-stable
for identical inputs; a field holding a comma or a double quote is quoted
as in RFC 4180.  Exit codes: 0 success; 1 a domain error, a verification
or convergence failure, or stdout closed early (a broken pipe); 2 argument
errors and an output that cannot be written, a file or stdout (full, or
closed when the program started).

Each subparser names its `_cmd_*` function with set_defaults(run=...),
argparse's dispatch idiom, so the parser is the one list of subcommands.
That function computes its whole result and returns it as (status, lines);
`main` calls args.run and then writes the lines once, to stdout or to
--output.  So a failure, in validation or in the computation, leaves an
existing output file untouched, and an unwritable path is reported after
the work.  A status is the exit code, or the one-line report of points
that did not converge, printed after the write and exiting 1.

Start-up: at module level this file imports only the standard library and
the package root's `__version__` and error types.  Each `_cmd_*` function
imports the package names it uses when it runs, so `--version`, `--help`
and a usage error load no numeric module, and a subcommand compiles only
the modules it runs.  A function-level import reads the home module's
namespace at call time, so a name patched there is the one called.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from . import DomainError, OttoError, __version__

UNITS_COMMENT = "# energy unit: h*kHz; time unit: us"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0
    s = str(x)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'  # RFC 4180 quoting
    return s


def _csv(header: Sequence[str], rows):
    """Lines of a CSV table: the units comment, the header, then each row."""
    yield UNITS_COMMENT + "\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_fmt(v) for v in row) + "\n"


def _stdout_to_devnull() -> None:
    # So that the final flush at exit fails no more: the recipe of the
    # Python docs (the signal module's note on SIGPIPE).
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(path: str | None, lines) -> None:
    """Write lines to stdout (path None or '-') or to the file at path.

    An output that cannot be written is an argument error: main exits 2.
    A BrokenPipeError, the reader closing stdout early, passes to main.
    """
    if path is None or path == "-":
        if sys.stdout is None:  # fd 1 was closed when Python started
            raise ValueError("cannot write stdout: it is closed")
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()  # so a failed write shows here, not at exit
        except BrokenPipeError:
            raise
        except OSError as exc:
            _stdout_to_devnull()
            raise ValueError(
                f"cannot write stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _add_freq_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu-c", type=float, required=True,
                   help="cold endpoint frequency in kHz")
    p.add_argument("--nu-h", type=float, required=True,
                   help="hot endpoint frequency in kHz (must exceed --nu-c)")


def _add_reservoir_args(p: argparse.ArgumentParser) -> None:
    cold = p.add_mutually_exclusive_group(required=True)
    cold.add_argument("--pc", type=float,
                      help="cold reservoir excited-state population")
    cold.add_argument("--uc", type=float,
                      help="cold reservoir exponent beta*h*nu_c (give a "
                           "negative value in scientific notation as "
                           "--uc=-1e3)")
    hot = p.add_mutually_exclusive_group(required=True)
    hot.add_argument("--ph", type=float,
                     help="hot reservoir excited-state population")
    hot.add_argument("--uh", type=float,
                     help="hot reservoir exponent beta*h*nu_h, negative for "
                          "population inversion (give a negative value in "
                          "scientific notation as --uh=-1e3)")


def _add_tau_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-min", type=float, default=10.0,
                   help="smallest stroke duration in us (default 10)")
    p.add_argument("--tau-max", type=float, default=1000.0,
                   help="largest stroke duration in us (default 1000)")
    p.add_argument("--points", type=int, default=100,
                   help="number of sweep points (default 100)")
    p.add_argument("--linear", action="store_true",
                   help="use a linear tau grid instead of log-spaced")


def _add_output_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None,
                   help="output file ('-' or omitted: stdout)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    # None when not given, so that cycle and phase-map can refuse it
    # without --tau; _config applies the default.
    p.add_argument("--xi-tol", type=float, default=None,
                   help="step-doubling tolerance on xi (default 1e-9)")
    _add_output_arg(p)


def _populations(args) -> tuple[float, float]:
    from .thermo import gibbs_population

    p_c = args.pc if args.pc is not None else gibbs_population(args.uc)
    p_h = args.ph if args.ph is not None else gibbs_population(args.uh)
    return p_c, p_h


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otto-tls",
        description="Finite-time quantum Otto cycle of a driven two-level "
                    "system, including negative-temperature reservoirs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xi", help="transition probability versus stroke time")
    p.set_defaults(run=_cmd_xi)
    _add_freq_args(p)
    _add_tau_args(p)
    _add_common_args(p)

    p = sub.add_parser("cycle", help="single-cycle energetics")
    p.set_defaults(run=_cmd_cycle)
    _add_freq_args(p)
    _add_reservoir_args(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--xi", type=float, help="transition probability in [0, 1/2]")
    g.add_argument("--tau", type=float, help="stroke duration in us (xi is computed)")
    _add_common_args(p)

    p = sub.add_parser("tau-sweep", help="cycle energetics versus stroke time")
    p.set_defaults(run=_cmd_tau_sweep)
    _add_freq_args(p)
    _add_reservoir_args(p)
    _add_tau_args(p)
    _add_common_args(p)

    p = sub.add_parser("phase-map", help="friction work over (p_h, p_c)")
    p.set_defaults(run=_cmd_phase_map)
    _add_freq_args(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--xi", type=float, default=0.25,
                   help="transition probability (default 0.25)")
    g.add_argument("--tau", type=float,
                   help="stroke duration in us from which xi is computed once")
    p.add_argument("--ph-min", type=float, default=0.02,
                   help="smallest hot population, in [0, 1] (default 0.02)")
    p.add_argument("--ph-max", type=float, default=1.0,
                   help="largest hot population, in [0, 1] (default 1)")
    p.add_argument("--ph-points", type=int, default=50,
                   help="number of hot populations, at least 2 (default 50)")
    p.add_argument("--pc-min", type=float, default=0.02,
                   help="smallest cold population, in [0, 1] (default 0.02)")
    p.add_argument("--pc-max", type=float, default=0.49,
                   help="largest cold population, in [0, 1] (default 0.49)")
    p.add_argument("--pc-points", type=int, default=50,
                   help="number of cold populations, at least 2 (default 50)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for the map cells (default: cpu count)")
    _add_common_args(p)

    p = sub.add_parser("windows", help="negative-friction population windows")
    p.set_defaults(run=_cmd_windows)
    _add_freq_args(p)
    p.add_argument("--ph", type=float, help="hot population: report the p_c window")
    p.add_argument("--pc", type=float, help="cold population: report the p_h window")
    _add_output_arg(p)

    p = sub.add_parser("verify", help="run the built-in self-check suite")
    p.set_defaults(run=_cmd_verify)
    return parser


def _config(args):
    """The IntegratorConfig of --xi-tol, whose default is 1e-9."""
    from .propagator import IntegratorConfig

    if args.xi_tol is None:
        return IntegratorConfig()
    return IntegratorConfig(args.xi_tol)


def _ms(tau_us: float) -> float:
    """A stroke duration in ms, from one in us that must not round to 0."""
    tau = tau_us * 1e-3
    if tau_us > 0.0 and tau == 0.0:
        raise DomainError(f"tau={tau_us} us rounds to 0 ms")
    return tau


def _tau_grid(args) -> tuple:
    """Stroke durations from --tau-min, --tau-max, --points, --linear.

    Finite bounds outside 0 < tau_min < tau_max are refused here, the rest
    by sweep's grid builders.  Returned in us, as printed, and in ms, as
    integrated (the one conversion), with the IntegratorConfig of --xi-tol.
    """
    from .sweep import linear_spaced, log_spaced

    lo, hi = args.tau_min, args.tau_max
    if math.isfinite(lo) and math.isfinite(hi) and not (0.0 < lo < hi):
        raise DomainError(f"need 0 < tau_min < tau_max, got {lo}, {hi}")
    spacing = linear_spaced if args.linear else log_spaced
    taus_us = spacing(lo, hi, args.points)
    return taus_us, [_ms(t) for t in taus_us], _config(args)


def _xi(args, freqs) -> float:
    """xi from --xi, or from a stroke of --tau us, which must converge."""
    if args.tau is None:
        if args.xi_tol is not None:
            raise ValueError("--xi-tol has no effect without --tau")  # exits 2
        return args.xi
    from . import propagator

    tau, cfg = _ms(args.tau), _config(args)
    res = propagator.evolve_expansion(tau, freqs, cfg)
    if not res.converged:
        raise OttoError(f"xi not converged to {cfg.xi_tolerance} within "
                        f"{propagator.MAX_STEPS} steps (tau={tau} ms)")
    return res.xi


def _unconverged(points) -> int | str:
    """0 if every point converged, else the report of those that did not."""
    failed = sum(not pt.converged for pt in points)
    if not failed:
        return 0
    return f"{failed} of {len(points)} points did not converge (converged = 0)"


def _cmd_xi(args) -> tuple:
    from .propagator import xi_sweep
    from .thermo import CycleFrequencies

    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    taus_us, taus, cfg = _tau_grid(args)
    points = xi_sweep(taus, freqs, cfg)
    return _unconverged(points), _csv(
        ["tau_us", "xi", "xi_error", "converged"],
        [(t, pt.xi, pt.xi_error_estimate, pt.converged)
         for t, pt in zip(taus_us, points)])


def _cmd_cycle(args) -> tuple:
    from .thermo import (CycleFrequencies, CycleInputs, adiabatic_efficiency,
                         cycle_energetics)

    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    p_c, p_h = _populations(args)
    xi = _xi(args, freqs)
    en = cycle_energetics(CycleInputs(freqs, p_c, p_h, xi))
    lines = [UNITS_COMMENT + "\n"]
    lines += [f"{name} = {_fmt(value)}\n" for name, value in [
        ("nu_c", freqs.nu_c), ("nu_h", freqs.nu_h), ("p_c", p_c),
        ("p_h", p_h), ("xi", xi), ("w_exp", en.w_exp), ("w_comp", en.w_comp),
        ("q_c", en.q_c), ("q_h", en.q_h), ("w_net", en.w_net),
        ("w_ad", en.w_ad), ("w_fric", en.w_fric),
        ("eta_ad", adiabatic_efficiency(freqs))]]
    lines.append(f"eta = {_fmt(en.eta) if en.eta is not None else 'undefined'}\n")
    lines.append(f"mode = {en.mode}\n")
    return 0, lines


def _cmd_tau_sweep(args) -> tuple:
    from .sweep import run_tau_sweep
    from .thermo import CycleFrequencies

    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    p_c, p_h = _populations(args)
    taus_us, taus, cfg = _tau_grid(args)
    rows = run_tau_sweep(freqs, p_c, p_h, taus, cfg)
    return _unconverged([pt for pt, _ in rows]), _csv(
        ["tau_us", "xi", "w_net", "w_ad", "w_fric", "q_h", "q_c", "eta",
         "mode", "converged"],
        [(t, pt.xi, en.w_net, en.w_ad, en.w_fric, en.q_h, en.q_c, en.eta,
          en.mode, pt.converged)
         for t, (pt, en) in zip(taus_us, rows)])


def _cmd_phase_map(args) -> tuple:
    from .sweep import linear_spaced, run_phase_map
    from .thermo import CycleFrequencies, zero_friction_pc

    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    ph_values = linear_spaced(args.ph_min, args.ph_max, args.ph_points)
    pc_values = linear_spaced(args.pc_min, args.pc_max, args.pc_points)
    rows = run_phase_map(freqs, ph_values, pc_values, _xi(args, freqs),
                         threads=args.threads)
    out = [("grid", r.p_h, r.p_c, r.w_fric, r.mode, r.on_zero_line)
           for r in rows]
    out += [("zero_line", ph, zero_friction_pc(ph, freqs), 0.0, "", "")
            for ph in ph_values]
    return 0, _csv(["series", "p_h", "p_c", "w_fric", "mode", "on_zero_line"],
                   out)


def _cmd_windows(args) -> tuple:
    from .thermo import (CycleFrequencies, hot_population_window,
                         negative_friction_window)

    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    if args.ph is None and args.pc is None:
        raise ValueError("windows: provide --ph and/or --pc")  # exits 2
    rows = []
    for window_for, given, window in (
            ("p_c", args.ph, negative_friction_window),
            ("p_h", args.pc, hot_population_window)):
        if given is not None:
            w = window(given, freqs)
            rows.append((window_for, given,
                         w[0] if w else "", w[1] if w else "", w is None))
    return 0, _csv(["window_for", "given", "lower", "upper", "empty"], rows)


def _cmd_verify(args) -> tuple:
    from .verify import run_suite

    return run_suite()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status, lines = args.run(args)
        _write(getattr(args, "output", None), lines)  # verify has no -o
    except BrokenPipeError:  # the reader closed stdout early
        _stdout_to_devnull()
        return 1
    except (OttoError, ValueError) as exc:
        # DomainError is both, and exits 1.
        print(f"otto-tls: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OttoError) else 2
    if isinstance(status, str):  # unconverged points, reported after the write
        print(f"otto-tls: {status}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
