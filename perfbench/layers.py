"""Per-layer metrics of one traced run, computed from its spans.

Which end-to-end metric each should move, and on which workload, is listed
in perfbench/README.md.
"""

from __future__ import annotations

from tracing import EVOLVE, SWEEPS, Span, self_times, union_length

ORACLES = ("thermo.energetics_from_states", "thermo.friction_from_divergence",
           "thermo.relative_entropy")
# Counts that must repeat exactly from one traced run to the next.
EXACT_COUNTS = ("propagator.evolve_calls", "propagator.steps_final",
                "propagator.steps_computed_total", "propagator.unconverged",
                "sweep.points", "thermo.cycle_energetics_calls",
                "cli.rows_out", "cli.bytes_out")


def busy(spans: list[Span]) -> float:
    """Time during which at least one of the spans was open.

    Sweep points run on several threads that take turns holding the
    interpreter lock, so summed durations would count the waiting too.
    """
    return union_length([(s.start, s.end) for s in spans])


def from_spans(spans: list[Span], stdout: str, rows: int) -> dict[str, float]:
    own = self_times(spans)

    def layer_self(layer: str) -> float:
        return sum(own[s.id] for s in spans if s.layer == layer)

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    evolve = named(*(f"propagator.{n}" for n in EVOLVE))
    evolve_s = busy(evolve)
    final = sum(s.attrs.get("steps_final", 0) for s in evolve)
    computed = sum(s.attrs.get("steps_computed", 0) for s in evolve)
    energetics = named("thermo.cycle_energetics")
    sweeps = named(*(f"sweep.{n}" for n in SWEEPS))
    cli_self = layer_self("cli")
    bytes_out = len(stdout.encode())
    return {
        "propagator.evolve_calls": len(evolve),
        "propagator.evolve_s": evolve_s,
        "propagator.us_per_xi": 1e6 * evolve_s / len(evolve) if evolve else 0.0,
        "propagator.steps_final": final,
        "propagator.steps_computed_total": computed,
        "propagator.useful_step_ratio": final / computed if computed else 0.0,
        "propagator.max_xi_error": max((s.attrs.get("xi_error", 0.0) for s in evolve),
                                       default=0.0),
        "propagator.unconverged": sum(not s.attrs.get("converged", True) for s in evolve),
        "sweep.self_s": layer_self("sweep"),
        "sweep.points": sum(s.attrs.get("points", 0) for s in sweeps),
        "thermo.cycle_energetics_calls": len(energetics),
        "thermo.cycle_energetics_s": busy(energetics),
        "thermo.oracle_s": busy(named(*ORACLES)),
        "cli.self_s": cli_self,
        "cli.rows_out": rows,
        "cli.bytes_out": bytes_out,
        "cli.ns_per_byte": 1e9 * cli_self / bytes_out if bytes_out else 0.0,
    }
