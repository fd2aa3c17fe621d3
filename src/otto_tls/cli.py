"""Command-line interface.

Subcommands:
  xi         transition probability versus stroke duration
  cycle      single-cycle energetics for given populations and xi (or tau)
  tau-sweep  full cycle energetics versus stroke duration
  phase-map  friction work over the (p_h, p_c) population grid
  windows    negative-friction population intervals
  verify     built-in self-check suite (exit 0 on pass)

Times are accepted and printed in microseconds, energies in h*kHz.  CSV
output starts with a '#' comment line naming the units and is byte-stable
for identical inputs; a field holding a comma or a double quote is quoted
as in RFC 4180.  Exit codes: 0 success; 1 a domain error, a verification
or convergence failure, or stdout closed early (a broken pipe); 2 argument
errors and an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Sequence

from . import __version__
from .complex2 import Hermitian2, exp_neg_i_h
from .errors import OttoError
from .propagator import (IntegratorConfig, evolve_expansion,
                         integrate_compression, transition_probability,
                         xi_sweep)
from .sweep import (PhaseMapSpec, TauSweepSpec, linear_spaced, log_spaced,
                    run_phase_map, run_tau_sweep, zero_friction_line)
from .thermo import (CycleInputs, adiabatic_efficiency, cycle_energetics,
                     energetics_from_states, friction_from_divergence,
                     hot_population_window, negative_friction_window)
from .tls import CycleFrequencies, exponent_from_population, gibbs_population

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


def _emit(stream, header: Sequence[str], rows) -> None:
    stream.write(UNITS_COMMENT + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


@contextlib.contextmanager
def _output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        # An unwritable --output is an argument error: main exits 2.
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
                      help="cold reservoir exponent beta*h*nu_c")
    hot = p.add_mutually_exclusive_group(required=True)
    hot.add_argument("--ph", type=float,
                     help="hot reservoir excited-state population")
    hot.add_argument("--uh", type=float,
                     help="hot reservoir exponent beta*h*nu_h "
                          "(negative for population inversion)")


def _add_tau_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-min", type=float, default=10.0,
                   help="smallest stroke duration in us (default 10)")
    p.add_argument("--tau-max", type=float, default=1000.0,
                   help="largest stroke duration in us (default 1000)")
    p.add_argument("--points", type=int, default=100,
                   help="number of sweep points (default 100)")
    p.add_argument("--linear", action="store_true",
                   help="use a linear tau grid instead of log-spaced")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi-tol", type=float, default=1e-9,
                   help="step-doubling tolerance on xi (default 1e-9)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for phase-map (default: cpu count); "
                        "other subcommands run serially")
    p.add_argument("-o", "--output", default=None,
                   help="output file ('-' or omitted: stdout)")


def _populations(args) -> tuple[float, float]:
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
    _add_freq_args(p)
    _add_tau_args(p)
    _add_common_args(p)

    p = sub.add_parser("cycle", help="single-cycle energetics")
    _add_freq_args(p)
    _add_reservoir_args(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--xi", type=float, help="transition probability in [0, 1/2]")
    g.add_argument("--tau", type=float, help="stroke duration in us (xi is computed)")
    _add_common_args(p)

    p = sub.add_parser("tau-sweep", help="cycle energetics versus stroke time")
    _add_freq_args(p)
    _add_reservoir_args(p)
    _add_tau_args(p)
    _add_common_args(p)

    p = sub.add_parser("phase-map", help="friction work over (p_h, p_c)")
    _add_freq_args(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--xi", type=float, default=0.25,
                   help="transition probability (default 0.25)")
    g.add_argument("--tau", type=float,
                   help="stroke duration in us from which xi is computed once")
    p.add_argument("--ph-min", type=float, default=0.02)
    p.add_argument("--ph-max", type=float, default=1.0)
    p.add_argument("--ph-points", type=int, default=50)
    p.add_argument("--pc-min", type=float, default=0.02)
    p.add_argument("--pc-max", type=float, default=0.49)
    p.add_argument("--pc-points", type=int, default=50)
    _add_common_args(p)

    p = sub.add_parser("windows", help="negative-friction population windows")
    _add_freq_args(p)
    p.add_argument("--ph", type=float, help="hot population: report the p_c window")
    p.add_argument("--pc", type=float, help="cold population: report the p_h window")
    _add_common_args(p)

    p = sub.add_parser("verify", help="run the built-in self-check suite")
    p.add_argument("--quick", action="store_true",
                   help="reduce sample counts for a faster pass")
    return parser


def _cmd_xi(args) -> int:
    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    spacing = linear_spaced if args.linear else log_spaced
    taus_us = spacing(args.tau_min, args.tau_max, args.points)
    cfg = IntegratorConfig(xi_tolerance=args.xi_tol)
    points = xi_sweep([t * 1e-3 for t in taus_us], freqs, cfg)
    with _output(args.output) as fh:
        _emit(fh, ["tau_us", "xi", "xi_error", "converged"],
              [(t, pt.xi, pt.error_estimate, pt.converged)
               for t, pt in zip(taus_us, points)])
    return 0 if all(pt.converged for pt in points) else 1


def _cmd_cycle(args) -> int:
    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    p_c, p_h = _populations(args)
    if args.xi is not None:
        xi = args.xi
    else:
        cfg = IntegratorConfig(xi_tolerance=args.xi_tol)
        xi = evolve_expansion(args.tau * 1e-3, freqs, cfg).xi
    en = cycle_energetics(CycleInputs(freqs, p_c, p_h, xi))
    with _output(args.output) as fh:
        fh.write(UNITS_COMMENT + "\n")
        for name, value in [("nu_c", freqs.nu_c), ("nu_h", freqs.nu_h),
                            ("p_c", p_c), ("p_h", p_h), ("xi", xi),
                            ("w_exp", en.w_exp), ("w_comp", en.w_comp),
                            ("q_c", en.q_c), ("q_h", en.q_h),
                            ("w_net", en.w_net), ("w_ad", en.w_ad),
                            ("w_fric", en.w_fric),
                            ("eta_ad", adiabatic_efficiency(freqs))]:
            fh.write(f"{name} = {_fmt(value)}\n")
        fh.write(f"eta = {_fmt(en.eta) if en.eta is not None else 'undefined'}\n")
        fh.write(f"mode = {en.mode}\n")
    return 0


def _cmd_tau_sweep(args) -> int:
    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    p_c, p_h = _populations(args)
    spec = TauSweepSpec(freqs, p_c, p_h, args.tau_min, args.tau_max,
                        args.points, IntegratorConfig(xi_tolerance=args.xi_tol),
                        log_spacing=not args.linear)
    rows = run_tau_sweep(spec)
    with _output(args.output) as fh:
        _emit(fh, ["tau_us", "xi", "w_net", "w_ad", "w_fric", "q_h", "q_c",
                   "eta", "mode", "converged"],
              [(r.tau_us, r.xi, r.energetics.w_net, r.energetics.w_ad,
                r.energetics.w_fric, r.energetics.q_h, r.energetics.q_c,
                r.energetics.eta, r.energetics.mode, r.converged)
               for r in rows])
    return 0 if all(r.converged for r in rows) else 1


def _cmd_phase_map(args) -> int:
    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    spec = PhaseMapSpec(
        freqs,
        ph_values=linear_spaced(args.ph_min, args.ph_max, args.ph_points),
        pc_values=linear_spaced(args.pc_min, args.pc_max, args.pc_points),
        xi=args.xi if args.tau is None else 0.0,
        tau_us=args.tau,
        cfg=IntegratorConfig(xi_tolerance=args.xi_tol))
    rows = run_phase_map(spec, threads=args.threads)
    line = zero_friction_line(spec.ph_values, freqs)
    out = [("grid", r.p_h, r.p_c, r.w_fric, r.mode, r.on_zero_line)
           for r in rows]
    out += [("zero_line", ph, pc, 0.0, "", "") for ph, pc in line]
    with _output(args.output) as fh:
        _emit(fh, ["series", "p_h", "p_c", "w_fric", "mode", "on_zero_line"],
              out)
    return 0


def _cmd_windows(args) -> int:
    freqs = CycleFrequencies(args.nu_c, args.nu_h)
    if args.ph is None and args.pc is None:
        print("windows: provide --ph and/or --pc", file=sys.stderr)
        return 2
    rows = []
    if args.ph is not None:
        w = negative_friction_window(args.ph, freqs)
        rows.append(("p_c", args.ph,
                     w[0] if w else "", w[1] if w else "", w is None))
    if args.pc is not None:
        w = hot_population_window(args.pc, freqs)
        rows.append(("p_h", args.pc,
                     w[0] if w else "", w[1] if w else "", w is None))
    with _output(args.output) as fh:
        _emit(fh, ["window_for", "given", "lower", "upper", "empty"], rows)
    return 0


def _random_unitary(rng: random.Random):
    # Rejection-sampled so xi stays in the protocol's physical range [0, 1/2].
    while True:
        a = rng.uniform(-2.0, 2.0)
        d = rng.uniform(-2.0, 2.0)
        b = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        u = exp_neg_i_h(Hermitian2(a, b, b.conjugate(), d),
                        rng.uniform(0.0, 2.0))
        if transition_probability(u) <= 0.5:
            return u


def _cmd_verify(args) -> int:
    import random  # only verify draws random inputs

    freqs = CycleFrequencies(2.0, 3.6)
    rng = random.Random(20240817)
    n_sample = 50 if args.quick else 300
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    # Closed-form identities over random inputs.
    ok_close = ok_decomp = ok_oracle = True
    for _ in range(n_sample):
        p_c = rng.uniform(0.01, 0.99)
        p_h = rng.uniform(0.01, 0.99)
        u = _random_unitary(rng)
        xi = transition_probability(u)
        en = cycle_energetics(CycleInputs(freqs, p_c, p_h, xi))
        ok_close &= abs(en.w_exp + en.w_comp + en.q_c + en.q_h) <= 1e-12
        ok_decomp &= abs(en.w_net - (en.w_ad + en.w_fric)) <= 1e-12
        en2 = energetics_from_states(p_c, p_h, u, freqs)
        ok_oracle &= all(abs(a - b) <= 1e-10 for a, b in [
            (en.w_exp, en2.w_exp), (en.w_comp, en2.w_comp),
            (en.q_c, en2.q_c), (en.q_h, en2.q_h)])
    check("first-law closure", ok_close)
    check("net work decomposition", ok_decomp)
    check("trace-based oracle equivalence", ok_oracle)

    # Divergence route reproduces the friction terms, inversion included.
    ok_div = True
    for p, stroke, nu_fin in [(0.4, "expansion", 3.6), (0.8, "compression", 2.0),
                              (0.25, "expansion", 3.6)]:
        u = _random_unitary(rng)
        xi = transition_probability(u)
        res = friction_from_divergence(p, exponent_from_population(p),
                                       u, stroke, freqs)
        ok_div &= abs(res.work - nu_fin * xi * (1.0 - 2.0 * p)) <= 1e-10
        ok_div &= res.divergence >= -1e-12
    check("entropy-production route", ok_div)

    w = negative_friction_window(0.8, freqs)
    check("negative-friction window lower bound 1/3",
          w is not None and abs(w[0] - 1.0 / 3.0) <= 1e-12)

    taus = [0.05, 0.2, 0.7] if args.quick else [0.02, 0.1, 0.3, 0.6, 1.0]
    ok_adj = True
    for tau in taus:
        ue = evolve_expansion(tau, freqs).U
        uc = integrate_compression(tau, freqs).U
        ok_adj &= (uc - ue.adjoint()).max_abs() <= 1e-9
    check("compression propagator = adjoint of expansion", ok_adj)

    xi_fast = evolve_expansion(1e-4, freqs).xi
    xi_slow = evolve_expansion(2.0, freqs).xi
    check("xi limits (sudden 1/2, adiabatic 0)",
          0.499 <= xi_fast <= 0.5 + 1e-9 and xi_slow < 0.01)

    en = cycle_energetics(CycleInputs(freqs, 0.4, 0.8, 0.0))
    check("adiabatic efficiency 1 - nu_c/nu_h",
          en.eta is not None and abs(en.eta - (1.0 - 2.0 / 3.6)) <= 1e-12)

    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{failures} failure(s)")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "xi": _cmd_xi,
    "cycle": _cmd_cycle,
    "tau-sweep": _cmd_tau_sweep,
    "phase-map": _cmd_phase_map,
    "windows": _cmd_windows,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Recipe from the Python docs (the
        # signal module's note on SIGPIPE): point stdout at devnull, so that
        # the interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OttoError as exc:
        print(f"otto-tls: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"otto-tls: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
