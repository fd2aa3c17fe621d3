"""Golden corpus for the CLI paths whose bytes are closed-form.

tests/golden/cli.json holds, for each argv list below, the exact stdout,
stderr and exit code of `otto_tls.cli.main(argv)` with COLUMNS=80 set; a
large stdout is kept as its sha256.  Outputs that hold an integrated xi
(`xi`, `tau-sweep`, `cycle --tau`, `phase-map --tau`) are not here: their
last digits follow the integrator, and test_golden_regression compares
them at a tolerance instead.

Help and usage texts are rendered by argparse, which changes between Python
minor versions, so they are compared only on the version that recorded the
corpus.  After a deliberate change to the output, regenerate with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in CHANGES.md which cases changed and why.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from otto_tls.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli.json"
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
    ("windows-empty", ("windows", *FREQS, "--ph", "0.3"), False, False),
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


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = {name: record(argv, hashed) for name, argv, hashed, _ in CASES}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"python": _python(), "cases": cases},
                                 indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {CORPUS}")
