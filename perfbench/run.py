"""otto-tls benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tau-sweep --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload as a user does, `python -m otto_tls.cli ...` in
a child process with default flags (so the default thread pool is
included), for --seconds, and reports the end-to-end metrics of
BENCHMARK.json.  Each sample is preceded by one `--version` run, whose wall
time is the set-up time.

--trace 1 runs the same command in-process, alternating untraced and traced
runs (spans recorded at the module boundaries by tracing.py), then the
microbenchmarks of the layers the trace reached, and reports the per-layer
metrics.

Every output is checked (workloads.py).  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines before it and
perfbench/out/<workload>-seed<n>-trace<t>.json hold the machine, Python
version, source revision and seed, and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import layers
import micro
import tracing
from program import ROOT, SRC, child_env, import_package, require_source
from workloads import WORKLOADS, Check, Workload

OUT_DIR = ROOT / "perfbench" / "out"
MIN_SAMPLES = 3
RUN_LIMIT_S = 150.0  # a run must end within 180 s, even if the program hangs
TAIL_BEYOND = 10  # the tail percentile is the highest with 10 samples beyond it


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(args: list[str], timeout: float = RUN_LIMIT_S) -> Sample:
    """Run the CLI in a child process; wall, CPU and peak RSS come from wait4.

    A child still running after timeout seconds is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "otto_tls.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = timeout - (time.perf_counter() - t0)
                if left <= 0:
                    proc.kill()
                for key, _ in sel.select(timeout=max(left, 0.1)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                  proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                  b"".join(chunks[proc.stderr]).decode())


class Checker:
    """Checks outputs, re-checking only when the bytes differ from the last one."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self._last: tuple[str, Check] | None = None

    def add(self, code: int, stdout: str) -> Check:
        if code != 0:
            check = Check(self.workload.expected_rows, self.workload.expected_rows,
                          f"exit code {code}")
        elif self._last and self._last[0] == stdout:
            check = self._last[1]
        else:
            check = self.workload.check(stdout)
            self._last = (stdout, check)
        self.attempted += check.attempted
        self.failed += check.failed
        if check.first_error:
            self.errors.append(check.first_error)
        return check


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; with too few samples, the slowest sample and 100."""
    v = sorted(values)
    k = len(v) - TAIL_BEYOND - 1 if len(v) > TAIL_BEYOND else len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v)


def measure_end_to_end(workload: Workload, seconds: float, checker: Checker):
    run_child(["--version"])  # byte-compile the sources before timing
    setups, samples = [], []
    t_start = time.perf_counter()
    while True:
        setup = run_child(["--version"], RUN_LIMIT_S - (time.perf_counter() - t_start))
        if setup.code != 0:
            checker.errors.append(f"--version exit code {setup.code}")
        setups.append(setup.wall_s)
        s = run_child(workload.argv, RUN_LIMIT_S - (time.perf_counter() - t_start))
        if s.code != 0 and s.stderr:
            checker.errors.append(s.stderr.strip().splitlines()[-1])
        checker.add(s.code, s.stdout)
        samples.append(s)
        finish = time.perf_counter() - t_start + setup.wall_s + s.wall_s
        if finish > RUN_LIMIT_S or (len(samples) >= MIN_SAMPLES and finish > seconds):
            break
    walls = [s.wall_s for s in samples]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups),
    }
    tail_value, tail_pct = tail(walls)
    notes = {"wall_tail_s": tail_value, "wall_tail_percentile": tail_pct,
             "samples": len(samples), "walls_s": walls,
             "cpus_s": [s.cpu_s for s in samples], "setups_s": setups}
    return metrics, notes


def run_in_process(main, argv: list[str]) -> tuple[float, int, str]:
    """Call cli.main(argv) with stdout captured; an escaped exception is
    printed to stderr and counted as exit code 1, as the child would."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return time.perf_counter() - t0, code, buf.getvalue()


def measure_layers(workload: Workload, seconds: float, checker: Checker):
    otto = import_package()
    cli = importlib.import_module("otto_tls.cli")
    untraced, traced, per_run = [], [], []
    t_start = time.perf_counter()
    while True:
        wall, code, out = run_in_process(cli.main, workload.argv)
        checker.add(code, out)
        untraced.append(wall)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, otto)
        try:
            wall, code, out = run_in_process(cli.main, workload.argv)  # now traced
        finally:
            restore()
        check = checker.add(code, out)
        traced.append(wall)
        per_run.append(layers.from_spans(tracer.spans, out, check.attempted))
        elapsed = time.perf_counter() - t_start
        if elapsed + untraced[-1] + traced[-1] > seconds:
            break
    for name in layers.EXACT_COUNTS:
        values = {m[name] for m in per_run}
        if len(values) != 1:
            checker.errors.append(f"{name} differs between traced runs: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics.update(micro.run(otto, {s.name for s in tracer.spans}))
    notes = {"traced_runs": len(traced), "traced_s": traced, "untraced_s": untraced,
             "spans": [vars(s) for s in tracer.spans]}
    return metrics, notes


def source_revision() -> dict:
    """Git SHA when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            sha = proc.stdout.strip() or None
        except OSError:  # git is not installed
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_source()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload](args.seed)
    checker = Checker(workload)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, notes = measure(workload, args.seconds, checker)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "do not match BENCHMARK.json")

    meta = {"workload": workload.name, "argv": workload.argv, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), **source_revision()}
    failed_share = checker.failed / max(checker.attempted, 1)
    result = {"correct": checker.failed == 0 and not checker.errors,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result,
                                  "errors": checker.errors, **notes}) + "\n")

    print("# " + json.dumps(meta))
    for err in checker.errors[:5]:
        print(f"# error: {err}")
    print(f"# failed_share = {failed_share:.6g} ({checker.failed} of "
          f"{checker.attempted} rows); details in {record.relative_to(ROOT)}")
    for k in units:
        print(f"# {k} = {metrics[k]:.6g} {units[k]}")
    if "wall_tail_s" in notes:
        print(f"# wall_tail_s = {notes['wall_tail_s']:.6g} s (p{notes['wall_tail_percentile']:.0f}"
              f" of {notes['samples']} samples)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
