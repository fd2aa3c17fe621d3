"""Command-line surface: schemas, determinism, exit codes."""

import csv
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import otto_tls
from otto_tls.cli import main

UNITS_LINE = "# energy unit: h*kHz; time unit: us"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, [dict(zip(header, r)) for r in rows]


def child_env():
    """Environment whose PYTHONPATH finds this otto_tls and nothing else."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(otto_tls.__file__)))
    return dict(os.environ, PYTHONPATH=src)


class TestXi:
    def test_limits_and_schema(self):
        code, out, _ = run_cli("xi", "--nu-c", "2", "--nu-h", "3.6",
                               "--tau-min", "10", "--tau-max", "1000",
                               "--points", "12", "--xi-tol", "1e-8")
        assert code == 0
        assert out.splitlines()[0] == UNITS_LINE
        header, rows = parse_csv(out)
        assert header == ["tau_us", "xi", "xi_error", "converged"]
        assert len(rows) == 12
        assert float(rows[0]["xi"]) > 0.4
        assert float(rows[-1]["xi"]) < 0.01

    def test_identical_runs_identical_bytes(self):
        args = ("xi", "--nu-c", "2", "--nu-h", "3.6", "--points", "5",
                "--tau-min", "20", "--tau-max", "200", "--xi-tol", "1e-8")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2


class TestCycle:
    def test_worked_example_point(self):
        code, out, _ = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.4", "--ph", "0.8", "--xi", "0.25")
        assert code == 0
        values = dict(line.split(" = ") for line in out.splitlines()
                      if " = " in line)
        assert float(values["w_fric"]) == pytest.approx(-0.12, abs=1e-12)
        assert float(values["eta"]) == pytest.approx(0.6031746031746, abs=1e-10)
        assert values["mode"] == "engine"

    def test_exponent_flags_round_trip(self):
        u_h = math.log(0.25)  # p_h = 0.8
        code, out, _ = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.4", "--uh", str(u_h),
                               "--xi", "0.25")
        assert code == 0
        values = dict(line.split(" = ") for line in out.splitlines()
                      if " = " in line)
        assert float(values["p_h"]) == pytest.approx(0.8, abs=1e-12)
        assert float(values["w_fric"]) == pytest.approx(-0.12, abs=1e-10)

    def test_population_and_exponent_mutually_exclusive(self):
        code, _, _ = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                             "--pc", "0.4", "--uc", "1.0",
                             "--ph", "0.8", "--xi", "0.25")
        assert code == 2

    def test_tau_instead_of_xi(self):
        code, out, _ = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.4", "--ph", "0.8", "--tau", "300",
                               "--xi-tol", "1e-8")
        assert code == 0
        values = dict(line.split(" = ") for line in out.splitlines()
                      if " = " in line)
        assert float(values["xi"]) == pytest.approx(0.0149863, abs=1e-5)

    def test_engine_edge_where_q_h_nearly_vanishes(self):
        # q_h is 4e-16 here, so -w_net/q_h and the population form of eta
        # differ by about 4%; the cycle is still reported.
        code, out, err = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                                 "--pc", "0.5658384796150766",
                                 "--ph", "0.5100447308006065",
                                 "--xi", "0.42371686846861634")
        assert code == 0
        assert "mode = engine" in out.splitlines()
        assert "Traceback" not in err

    def test_zero_temperature_exponents(self):
        # |u| = 800 puts the populations at exactly 0 and 1.
        code, out, _ = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                               "--uc", "800", "--uh", "-800", "--xi", "0.25")
        assert code == 0
        lines = out.splitlines()
        for expected in ("p_c = 0", "p_h = 1", "eta = 0.444444444444"):
            assert expected in lines

    def test_no_negative_zero(self):
        # At p_c = p_h and xi = 0, q_c and w_ad are IEEE -0.0.
        code, out, _ = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.3", "--ph", "0.3", "--xi", "0")
        assert code == 0
        lines = out.splitlines()
        assert "q_c = 0" in lines and "w_ad = 0" in lines
        assert not any(line.endswith("= -0") for line in lines)


class TestTauSweep:
    def test_schema_and_modes(self):
        code, out, _ = run_cli("tau-sweep", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.4", "--ph", "0.8",
                               "--points", "6", "--xi-tol", "1e-8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau_us", "xi", "w_net", "w_ad", "w_fric", "q_h",
                          "q_c", "eta", "mode", "converged"]
        assert all(r["mode"] == "engine" for r in rows)
        assert all(float(r["w_net"]) < 0 for r in rows)

    def test_output_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli("tau-sweep", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.4", "--ph", "0.8", "--points", "3",
                               "--xi-tol", "1e-8", "-o", str(path))
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith(UNITS_LINE)

    def test_zero_temperature_exponents(self):
        code, out, _ = run_cli("tau-sweep", "--nu-c", "2", "--nu-h", "3.6",
                               "--uc", "800", "--uh", "-800", "--points", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert all(r["converged"] == "1" for r in rows)

    def test_no_negative_zero(self):
        code, out, _ = run_cli("tau-sweep", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.5", "--ph", "0.5", "--points", "3",
                               "--xi-tol", "1e-8")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["w_ad"], r["q_c"]) for r in rows] == [("0", "0")] * 3
        assert "-0," not in out


class TestCsvQuoting:
    @pytest.mark.parametrize("argv", [
        ("tau-sweep", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.45",
         "--ph", "0.3", "--points", "3", "--xi-tol", "1e-8"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--ph-points", "20",
         "--pc-points", "20"),
    ])
    def test_every_row_has_the_header_width(self, argv):
        code, out, _ = run_cli(*argv)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header, *rows = csv.reader(lines)
        assert rows and all(len(r) == len(header) for r in rows)
        # The mode holding a comma is present, quoted.
        assert '"not-engine(w_net>=0, q_h<=0)"' in out
        assert "not-engine(w_net>=0, q_h<=0)" in [r[header.index("mode")]
                                                  for r in rows]


class TestPhaseMap:
    def test_grid_and_zero_line_series(self):
        code, out, _ = run_cli("phase-map", "--nu-c", "2", "--nu-h", "3.6",
                               "--ph-points", "6", "--pc-points", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["series", "p_h", "p_c", "w_fric", "mode",
                          "on_zero_line"]
        grid = [r for r in rows if r["series"] == "grid"]
        line = [r for r in rows if r["series"] == "zero_line"]
        assert len(grid) == 24
        assert len(line) == 6
        for r in grid:
            if float(r["p_h"]) <= 0.5:
                assert float(r["w_fric"]) >= 0

    def test_grid_may_start_at_zero(self):
        code, out, err = run_cli("phase-map", "--nu-c", "2", "--nu-h", "3.6",
                                 "--pc-min", "0", "--ph-min", "0",
                                 "--ph-points", "3", "--pc-points", "3")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert rows[0]["p_c"] == "0" and rows[0]["p_h"] == "0"


class TestWindows:
    def test_reference_window(self):
        code, out, _ = run_cli("windows", "--nu-c", "2", "--nu-h", "3.6",
                               "--ph", "0.8")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["lower"]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(rows[0]["upper"]) == 0.5
        assert rows[0]["empty"] == "0"

    def test_empty_window(self):
        code, out, _ = run_cli("windows", "--nu-c", "2", "--nu-h", "3.6",
                               "--ph", "0.3")
        _, rows = parse_csv(out)
        assert rows[0]["empty"] == "1"

    def test_requires_a_population(self):
        code, _, err = run_cli("windows", "--nu-c", "2", "--nu-h", "3.6")
        assert code == 2


class TestErrorsAndVerify:
    def test_argument_error_exit_2(self):
        code, _, _ = run_cli("xi", "--nu-c", "2")  # missing --nu-h
        assert code == 2

    def test_bad_frequency_order(self):
        code, _, err = run_cli("xi", "--nu-c", "3.6", "--nu-h", "2",
                               "--points", "3")
        assert code == 1
        assert "nu_h" in err

    @pytest.mark.parametrize("argv", [
        ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4", "--ph", "0.8",
         "--tau", "inf"),
        ("xi", "--nu-c", "2", "--nu-h", "inf", "--points", "3"),
    ])
    def test_non_finite_input_one_line_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("otto-tls: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("tau-sweep", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
         "--ph", "0.8", "--tau-max", "inf"),
        ("xi", "--nu-c", "2", "--nu-h", "3.6", "--tau-min=-inf"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--pc-max", "inf"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--ph-min", "nan"),
    ])
    def test_non_finite_grid_bound_named(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("otto-tls: grid bounds must be finite, got ")
        assert err.split()[-1] in ("inf", "-inf", "nan")

    def test_unwritable_output_one_line_error(self, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                                 "--pc", "0.4", "--ph", "0.8", "--xi", "0.25",
                                 "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"otto-tls: cannot write {path}: No such file or directory"]

    def test_closed_pipe_exits_1_without_traceback(self):
        # About 150 kB of CSV, more than a pipe buffers, so the child is
        # still writing when the reader goes away after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "otto_tls.cli", "phase-map", "--nu-c", "2",
             "--nu-h", "3.6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert first.decode() == UNITS_LINE + "\n"
        assert proc.returncode == 1
        assert err == b""

    def test_verify_quick_passes(self):
        code, out, _ = run_cli("verify", "--quick")
        assert code == 0
        assert "FAIL" not in out


def test_startup_imports_stay_lean():
    # -S skips site, whose .pth files may import typing or random
    # themselves and hide a regression here.
    modules = ("dataclasses", "inspect", "typing", "random",
               "concurrent.futures")
    code = ("import sys, otto_tls.cli; "
            f"print(','.join(m for m in {modules!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
