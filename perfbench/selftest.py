"""Self-test of the benchmark itself; exits nonzero on the first failure.

    python3 perfbench/selftest.py

Checks that:
- self time subtracts the union of children, so overlapping worker-thread
  spans are not subtracted twice;
- two traced tau-sweep runs report exactly the same step counts;
- the output checks accept the program's output and reject a row that is
  off by more than its tolerance.
Takes about 10 s.
"""

from __future__ import annotations

import importlib
import sys

import layers
from program import import_package
from run import run_in_process
from tracing import Span, Tracer, install, self_times
from workloads import WORKLOADS


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'}  {what}")
    if not cond:
        sys.exit(1)


def test_self_time() -> None:
    spans = [Span(0, "sweep.run", None, 0.0, 10.0),
             Span(1, "propagator.a", 0, 1.0, 6.0),
             Span(2, "propagator.b", 0, 4.0, 8.0),   # overlaps span 1
             Span(3, "thermo.c", 1, 2.0, 3.0)]
    own = self_times(spans)
    check(own == {0: 3.0, 1: 4.0, 2: 4.0, 3: 1.0},
          f"self time is duration minus the union of children: {own}")


def traced(cli, otto, argv):
    tracer = Tracer()
    restore = install(tracer, otto)
    try:
        _, code, out = run_in_process(cli.main, argv)  # now traced
    finally:
        restore()
    return code, out, tracer.spans


def test_tau_sweep(cli, otto) -> None:
    workload = WORKLOADS["tau-sweep"](1)
    runs = [traced(cli, otto, workload.argv) for _ in range(2)]
    counts = [layers.from_spans(spans, out, 0) for _, out, spans in runs]
    for name in ("propagator.steps_final", "propagator.steps_computed_total"):
        check(counts[0][name] == counts[1][name] > 0,
              f"{name} repeats exactly: {counts[0][name]}, {counts[1][name]}")
    code, out, _ = runs[0]
    result = workload.check(out)
    check(code == 0 and result.failed == 0 and result.attempted == 100,
          f"tau-sweep output passes: {result}")
    lines = out.splitlines()
    fields = lines[50].split(",")
    fields[1] = repr(float(fields[1]) + 1e-8)
    lines[50] = ",".join(fields)
    bad = workload.check("\n".join(lines))
    check(bad.failed == 1, f"xi off by 1e-8 in one row fails that row: {bad}")
    lines[60] = lines[60].replace(",", ",not-a-number,", 1)
    bad = workload.check("\n".join(lines))
    check(bad.failed == 2, f"an unparsable row fails without stopping the check: {bad}")


def test_phase_map(cli) -> None:
    workload = WORKLOADS["phase-map"](1)
    code, out = run_in_process(cli.main, workload.argv)[1:]
    result = workload.check(out)
    check(code == 0 and result.failed == 0 and result.attempted == 40200,
          f"phase-map output passes: {result.attempted} rows, {result.failed} failed")
    lines = out.splitlines()
    fields = lines[1000].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[1000] = ",".join(fields)
    bad = workload.check("\n".join(lines[:-5]))
    check(bad.failed == 6, f"one wrong w_fric and five missing rows fail six: {bad}")


def test_verify() -> None:
    workload = WORKLOADS["verify"](1)
    text = "PASS  a\nFAIL  b\n" + "PASS  c\n" * 6 + "FAILED: 1 failure(s)\n"
    result = workload.check(text)
    check(result.attempted == 8 and result.failed == 1,
          f"verify counts one row per PASS/FAIL line: {result}")


def main() -> None:
    otto = import_package()
    cli = importlib.import_module("otto_tls.cli")
    test_self_time()
    test_verify()
    test_phase_map(cli)
    test_tau_sweep(cli, otto)


if __name__ == "__main__":
    main()
