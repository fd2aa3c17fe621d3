"""Golden corpora of the CLI: exact bytes, and the integrated-xi paths.

tests/golden/cli.json holds, for each argv list in CASES, the exact stdout,
stderr and exit code of `otto_tls.cli.main(argv)` with COLUMNS=80 set; a
large stdout is kept as its sha256.

tests/golden/xi.json holds the same record for XI_CASES, the outputs that
carry an integrated xi (`xi`, `tau-sweep`, `cycle --tau`, `phase-map
--tau`).  Their last digits follow the integrator, so xi is compared at
XI_TOL, the bound of test_golden_regression, and every field computed from
xi is recomputed from the printed xi by the closed forms of
thermo.cycle_energetics.  phase-map prints no xi: it is read back from the
grid cell with the largest friction bracket, w_fric / bracket.  Every other
field, and the exit code and stderr, must match exactly.

Help and usage texts are rendered by argparse, which changes between Python
minor versions, so they are compared only on the version that recorded the
corpus.  After a deliberate change to the output, regenerate both with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in CHANGES.md which cases changed and why.
"""

import csv
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from otto_tls import (CycleFrequencies, CycleInputs, cycle_energetics,
                      gibbs_population)
from otto_tls.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli.json"
XI_CORPUS = Path(__file__).parent / "golden" / "xi.json"
FREQS = ("--nu-c", "2", "--nu-h", "3.6")
CYCLE = ("cycle", *FREQS)

# (name, argv, stdout stored as its sha256, text rendered by argparse)
CASES = [
    ("version", ("--version",), False, False),
    ("help", ("--help",), False, True),
    *[(f"help-{cmd}", (cmd, "-h"), False, True)
      for cmd in ("xi", "cycle", "tau-sweep", "phase-map", "windows",
                  "verify")],
    ("usage-no-command", (), False, True),
    ("usage-tau-sweep", ("tau-sweep",), False, True),
    ("cycle-worked-example",
     (*CYCLE, "--pc", "0.4", "--ph", "0.8", "--xi", "0.25"), False, False),
    ("cycle-quoted-mode",
     (*CYCLE, "--pc", "0.45", "--ph", "0.3", "--xi", "0.2"), False, False),
    ("cycle-negative-zero",
     (*CYCLE, "--pc", "0.3", "--ph", "0.3", "--xi", "0"), False, False),
    ("cycle-uh-scientific",
     (*CYCLE, "--pc", "0.4", "--uh=-1e3", "--xi", "0.1"), False, False),
    ("windows", ("windows", *FREQS, "--ph", "0.8", "--pc", "0.4"),
     False, False),
    ("windows-empty", ("windows", *FREQS, "--ph", "0.3", "--pc", "0.1"),
     False, False),
    ("windows-no-population", ("windows", *FREQS), False, False),
    ("phase-map-small",
     ("phase-map", *FREQS, "--xi", "0.2", "--ph-points", "6",
      "--pc-points", "5"), False, False),
    ("phase-map-200x200",
     ("phase-map", *FREQS, "--xi", "0.31", "--ph-points", "200",
      "--pc-points", "200"), True, False),
    ("verify", ("verify",), False, False),
    # The error paths of test_invalid_input_leaves_output_untouched.
    ("error-xi-order", ("xi", "--nu-c", "3.6", "--nu-h", "2"), False, False),
    ("error-cycle-order",
     ("cycle", "--nu-c", "3.6", "--nu-h", "2", "--pc", "0.4", "--ph", "0.8",
      "--xi", "0.25"), False, False),
    ("error-tau-sweep-order",
     ("tau-sweep", "--nu-c", "3.6", "--nu-h", "2", "--pc", "0.4",
      "--ph", "0.8"), False, False),
    ("error-phase-map-order", ("phase-map", "--nu-c", "3.6", "--nu-h", "2"),
     False, False),
    ("error-windows-order",
     ("windows", "--nu-c", "3.6", "--nu-h", "2", "--ph", "0.8"),
     False, False),
    ("error-xi-linear-tau-min-0",
     ("xi", *FREQS, "--linear", "--tau-min", "0"), False, False),
    ("error-cycle-negative-tau",
     (*CYCLE, "--pc", "0.4", "--ph", "0.8", "--tau", "-5"), False, False),
    ("error-phase-map-negative-tau", ("phase-map", *FREQS, "--tau", "-5"),
     False, False),
    ("error-windows-population", ("windows", *FREQS, "--ph", "1.5"),
     False, False),
    ("error-tau-sweep-infinite-bound",
     ("tau-sweep", *FREQS, "--pc", "0.4", "--ph", "0.8", "--tau-max", "inf"),
     False, False),
    ("error-xi-tau-too-long",
     ("xi", *FREQS, "--tau-max", "1e308", "--points", "2"), False, False),
    ("error-cycle-tau-too-long",
     (*CYCLE, "--pc", "0.3", "--ph", "0.8", "--tau", "1e9"), False, False),
    ("error-cycle-start-steps-huge",
     ("cycle", "--nu-c", "1e-300", "--nu-h", "1e300", "--pc", "0.3",
      "--ph", "0.8", "--tau", "1"), False, False),
    ("error-cycle-start-steps-infinite",
     ("cycle", "--nu-c", "1", "--nu-h", "1e305", "--pc", "0.3", "--ph", "0.8",
      "--tau", "1e10"), False, False),
]


def record(argv, hashed: bool) -> dict:
    """What main(argv) writes and returns, as the corpus stores it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if hashed:
        stdout = {"sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                  "bytes": len(stdout.encode())}
    return {"argv": list(argv), "code": code, "stdout": stdout,
            "stderr": err.getvalue()}


def _python() -> str:
    return "{}.{}".format(*sys.version_info[:2])


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, argv, hashed, argparse_text", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output_matches_the_corpus(corpus, monkeypatch, name, argv,
                                       hashed, argparse_text):
    if argparse_text and corpus["python"] != _python():
        pytest.skip(f"argparse text recorded on Python {corpus['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    assert record(argv, hashed) == corpus["cases"][name]


def test_corpus_holds_exactly_the_cases(corpus):
    assert list(corpus["cases"]) == [c[0] for c in CASES]


SWEEP = ("tau-sweep", *FREQS)
# (name, argv) of the outputs that hold an integrated xi; every stroke
# converges at the default --xi-tol.
XI_CASES = [
    ("xi-log", ("xi", *FREQS, "--points", "12")),
    ("xi-linear", ("xi", *FREQS, "--tau-min", "50", "--tau-max", "500",
                   "--points", "7", "--linear")),
    ("tau-sweep-inverted",
     (*SWEEP, "--pc", "0.2", "--ph", "0.9", "--points", "9")),
    ("tau-sweep-positive",
     (*SWEEP, "--pc", "0.2", "--ph", "0.4", "--points", "9")),
    ("tau-sweep-exponents",
     (*SWEEP, "--uc", "1.5", "--uh=-2", "--tau-min", "100", "--tau-max",
      "700", "--points", "6", "--linear")),
    ("cycle-tau-300", (*CYCLE, "--pc", "0.4", "--ph", "0.8", "--tau", "300")),
    ("cycle-tau-minimum-of-xi",
     (*CYCLE, "--pc", "0.2", "--ph", "0.9", "--tau", "340")),
    ("cycle-tau-sudden",
     (*CYCLE, "--pc", "0.3", "--ph", "0.45", "--tau", "0.001")),
    ("phase-map-tau-50",
     ("phase-map", *FREQS, "--tau", "50", "--ph-points", "6",
      "--pc-points", "5")),
    ("phase-map-tau-700",
     ("phase-map", *FREQS, "--tau", "700", "--ph-points", "4",
      "--pc-points", "7")),
]
XI_TOL = 5e-9
# Energies are printed with 12 significant digits and are O(1) in h*kHz.
ENERGY_TOL = 1e-9
ENERGIES = ("w_exp", "w_comp", "q_c", "q_h", "w_net", "w_ad", "w_fric")


def _options(argv) -> dict:
    """Option values of argv, given as `--name value` or `--name=value`."""
    out, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name.startswith("--") and name != "--linear":
            out[name] = value if eq else next(tokens)
    return out


def _populations(opts: dict) -> tuple[float, float]:
    """p_c and p_h of a tau-sweep, from --pc/--ph or --uc/--uh."""
    return tuple(float(opts[p]) if p in opts else gibbs_population(
        float(opts[u])) for p, u in (("--pc", "--uc"), ("--ph", "--uh")))


def _derived_errors(fields: dict, en) -> list[str]:
    """Energies, eta and mode in fields that differ from those of en."""
    errors = [f"{k}={fields[k]} != {getattr(en, k)}" for k in ENERGIES
              if k in fields
              and not abs(float(fields[k]) - getattr(en, k)) <= ENERGY_TOL]
    if fields["mode"] != en.mode:
        errors.append(f"mode={fields['mode']} != {en.mode}")
    eta = fields.get("eta")  # the phase map prints none
    if eta is None:
        return errors
    if en.eta is None:
        ok = eta in ("", "undefined")
    else:
        ok = eta not in ("", "undefined") and abs(float(eta) - en.eta) <= (
            ENERGY_TOL * max(1.0, abs(en.eta)))
    return errors + ([] if ok else [f"eta={eta} != {en.eta}"])


def _rows(command: str, lines: list[str]) -> list[dict]:
    """The cycle's `name = value` lines as one row, or the CSV rows."""
    if command == "cycle":
        return [dict(line.split(" = ") for line in lines[1:])]
    header, *rows = csv.reader(lines[1:])
    return [dict(zip(header, row)) for row in rows]


def _phase_map_xi(freqs, rows: list[dict]) -> float:
    """xi read back as w_fric / bracket on the largest-bracket grid cell."""
    def bracket(r):
        return (freqs.nu_h * (1.0 - 2.0 * float(r["p_c"]))
                + freqs.nu_c * (1.0 - 2.0 * float(r["p_h"])))

    cell = max((r for r in rows if r["series"] == "grid"),
               key=lambda r: abs(bracket(r)))
    return float(cell["w_fric"]) / bracket(cell)


def xi_field_errors(argv, got: str, want: str) -> list[str]:
    """How the stdout got differs from the recorded want, field by field."""
    command, opts = argv[0], _options(argv)
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got_lines[:2] != want_lines[:2]:
        return ["line count, units comment or header differs"]
    freqs = CycleFrequencies(float(opts["--nu-c"]), float(opts["--nu-h"]))
    got_rows, want_rows = _rows(command, got_lines), _rows(command, want_lines)
    errors, map_xi = [], None
    if command == "phase-map":
        map_xi = _phase_map_xi(freqs, got_rows)
        want_xi = _phase_map_xi(freqs, want_rows)
        if not abs(map_xi - want_xi) <= XI_TOL:
            errors.append(f"xi={map_xi} != {want_xi}")
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        xi = float(g["xi"]) if map_xi is None else map_xi
        inexact = {"xi", "xi_error"}
        if "xi" in w and not abs(xi - float(w["xi"])) <= XI_TOL:
            errors.append(f"row {i}: xi={g['xi']} != {w['xi']}")
        # The error estimate follows the integrator; it is below --xi-tol.
        if "xi_error" in w and not 0.0 <= float(g["xi_error"]) < 1e-9:
            errors.append(f"row {i}: xi_error={g['xi_error']}")
        if "w_fric" in w and g.get("series", "grid") == "grid":
            p_c, p_h = (_populations(opts) if command == "tau-sweep"
                        else (float(g["p_c"]), float(g["p_h"])))
            en = cycle_energetics(CycleInputs(freqs, p_c, p_h, xi))
            errors += [f"row {i}: {e}" for e in _derived_errors(g, en)]
            inexact |= {*ENERGIES, "eta", "mode"}
        errors += [f"row {i}: {k}={g.get(k)} != {w[k]}" for k in w
                   if k not in inexact and g.get(k) != w[k]]
    return errors


@pytest.fixture(scope="module")
def xi_corpus():
    return json.loads(XI_CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, argv", XI_CASES, ids=[c[0] for c in XI_CASES])
def test_integrated_xi_output_matches_the_corpus(xi_corpus, name, argv):
    got, want = record(argv, False), xi_corpus["cases"][name]
    assert (got["argv"], got["code"], got["stderr"]) == (
        want["argv"], want["code"], want["stderr"])
    assert want["code"] == 0
    assert xi_field_errors(argv, got["stdout"], want["stdout"]) == []


def test_xi_corpus_holds_exactly_the_cases(xi_corpus):
    assert list(xi_corpus["cases"]) == [c[0] for c in XI_CASES]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for path, cases in (
            (CORPUS, {name: record(argv, hashed)
                      for name, argv, hashed, _ in CASES}),
            (XI_CORPUS, {name: record(argv, False)
                         for name, argv in XI_CASES})):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"python": _python(), "cases": cases},
                                   indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(cases)} cases to {path}")
