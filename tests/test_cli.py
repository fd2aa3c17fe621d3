"""Command-line surface: schemas, determinism, exit codes."""

import argparse
import csv
import inspect
import io
import math
import os
import shutil
import subprocess
import sys
import time
import typing
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otto_tls
from otto_tls import CycleFrequencies, evolve_expansion, run_phase_map
from otto_tls import cli as otto_cli
from otto_tls.cli import build_parser, main
from otto_tls.sweep import MAX_POINTS, linear_spaced

UNITS_LINE = "# energy unit: h*kHz; time unit: us"
CPUS = os.cpu_count() or 1


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


class TestTauGrid:
    @pytest.mark.parametrize("spacing", [(), ("--linear",)],
                             ids=["log", "linear"])
    def test_xi_and_tau_sweep_share_one_grid(self, spacing):
        grid = ("--nu-c", "2", "--nu-h", "3.6", "--tau-min", "20",
                "--tau-max", "400", "--points", "6", *spacing)
        code_xi, out_xi, _ = run_cli("xi", *grid)
        code_sw, out_sw, _ = run_cli("tau-sweep", *grid, "--pc", "0.4",
                                     "--ph", "0.8")
        assert code_xi == code_sw == 0
        _, xi_rows = parse_csv(out_xi)
        _, sweep_rows = parse_csv(out_sw)
        assert len(xi_rows) == 6
        assert [(r["tau_us"], r["xi"]) for r in xi_rows] == \
               [(r["tau_us"], r["xi"]) for r in sweep_rows]

    def test_bad_bounds_give_the_same_message(self):
        freqs = ("--nu-c", "2", "--nu-h", "3.6")
        for bounds, got in [(("--tau-min", "100", "--tau-max", "10"),
                             "100.0, 10.0"),
                            (("--linear", "--tau-min", "0"), "0.0, 1000.0")]:
            code_xi, _, err_xi = run_cli("xi", *freqs, *bounds)
            code_sw, _, err_sw = run_cli("tau-sweep", *freqs, *bounds,
                                         "--pc", "0.4", "--ph", "0.8")
            assert code_xi == code_sw == 1
            assert err_xi == err_sw == \
                   f"otto-tls: need 0 < tau_min < tau_max, got {got}\n"


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

    def test_tau_at_the_sudden_limit(self):
        # The integrated xi rounds one ulp above 1/2 at this stroke; it is
        # stored as 1/2, as xi and tau-sweep print it.
        code, out, err = run_cli("cycle", "--nu-c", "1", "--nu-h", "10",
                                 "--pc", "0.3", "--ph", "0.8",
                                 "--tau", "3e-6")
        assert (code, err) == (0, "")
        assert "xi = 0.5" in out.splitlines()
        # A positive stroke whose ms value rounds to 0 is refused by the
        # value typed in us, not as the 0.0 ms that would reach the library.
        for argv, typed in (
                (("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
                  "--ph", "0.8", "--tau", "5e-324"), "5e-324"),
                (("xi", "--nu-c", "2", "--nu-h", "3.6", "--tau-min", "1e-322",
                  "--tau-max", "1", "--points", "3"), "1e-322")):
            assert run_cli(*argv) == (
                1, "", f"otto-tls: tau={typed} us rounds to 0 ms\n")

    def test_engine_edge_where_q_h_nearly_vanishes(self):
        # q_h is 4e-16 here and eta about 3e14; the cycle is still
        # reported.
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

    @pytest.mark.parametrize("uh", [("--uh=-1e3",), ("--uh", "-800")])
    def test_negative_exponent_forms(self, uh):
        # argparse takes "-1e3" after a space for an option string, so a
        # negative exponent in scientific notation needs the "=" form.
        code, out, err = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                                 "--pc", "0.4", *uh, "--xi", "0.1")
        assert (code, err) == (0, "")
        assert "p_h = 1" in out.splitlines()

    def test_friction_work_near_the_float_maximum(self):
        code, out, _ = run_cli("cycle", "--nu-c", "1e308", "--nu-h",
                               "1.7e308", "--pc", "0", "--ph", "0", "--xi",
                               "0.5")
        assert code == 0
        lines = out.splitlines()
        assert "w_fric = 1.35e+308" in lines and "w_net = 1.35e+308" in lines

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
        # ... and ends at its upper bounds, which lo + (hi - lo) can round
        # above.
        for bounds in (("--pc-min", "0.04", "--pc-max", "0.5",
                        "--pc-points", "6"),
                       ("--ph-min", "0.1", "--ph-points", "14")):
            code, out, err = run_cli("phase-map", "--nu-c", "2",
                                     "--nu-h", "3.6", *bounds)
            assert (code, err) == (0, "")

    def test_tau_gives_the_map_at_the_integrated_xi(self):
        code, out, _ = run_cli("phase-map", "--nu-c", "2", "--nu-h", "3.6",
                               "--tau", "300", "--ph-points", "5",
                               "--pc-points", "4")
        assert code == 0
        _, rows = parse_csv(out)
        freqs = CycleFrequencies(2.0, 3.6)
        want = run_phase_map(
            freqs, linear_spaced(0.02, 1.0, 5), linear_spaced(0.02, 0.49, 4),
            evolve_expansion(0.3, freqs).xi)
        grid = [r for r in rows if r["series"] == "grid"]
        assert [r["mode"] for r in grid] == [w.mode for w in want]
        assert [float(r["w_fric"]) for r in grid] == pytest.approx(
            [w.w_fric for w in want], rel=1e-11, abs=1e-12)

    def test_tau_at_the_sudden_limit(self):
        grid = ("--ph-points", "3", "--pc-points", "3")
        freqs = ("--nu-c", "1", "--nu-h", "10")
        code, out, err = run_cli("phase-map", *freqs, *grid, "--tau", "3e-6")
        assert (code, err) == (0, "")
        assert out == run_cli("phase-map", *freqs, *grid, "--xi", "0.5")[1]

    def test_bad_xi_is_named(self):
        # The same message as cycle --xi gives for the same value.
        for argv in (("phase-map", "--nu-c", "2", "--nu-h", "3.6"),
                     ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
                      "--ph", "0.8")):
            code, out, err = run_cli(*argv, "--xi", "0.7")
            assert (code, out) == (1, "")
            assert err == "otto-tls: xi must lie in [0, 1/2], got 0.7\n"


class TestWindows:
    def test_reference_window(self):
        code, out, _ = run_cli("windows", "--nu-c", "2", "--nu-h", "3.6",
                               "--ph", "0.8")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["lower"]) == pytest.approx(1 / 3, abs=1e-12)
        assert rows[0]["upper"] == "1"
        assert rows[0]["empty"] == "0"

    def test_empty_window(self):
        # The p_c window is never empty; the p_h window of p_c = 0.1 is.
        code, out, _ = run_cli("windows", "--nu-c", "2", "--nu-h", "3.6",
                               "--pc", "0.1")
        _, rows = parse_csv(out)
        assert rows[0]["window_for"] == "p_h"
        assert rows[0]["empty"] == "1"

    def test_requires_a_population(self):
        code, out, err = run_cli("windows", "--nu-c", "2", "--nu-h", "3.6")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("otto-tls: ")


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

    @pytest.mark.parametrize("argv, message", [
        (("xi", "--nu-c", "2", "--nu-h", "3.6", "--points", "300000000"),
         f"points must be an int in [2, {MAX_POINTS}], got 300000000"),
        (("tau-sweep", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
          "--ph", "0.8", "--linear", "--points", str(MAX_POINTS + 1)),
         f"points must be an int in [2, {MAX_POINTS}], got {MAX_POINTS + 1}"),
        (("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--ph-points", "20000",
          "--pc-points", "20000"),
         f"phase map has 400000000 cells, more than {MAX_POINTS}"),
    ], ids=["xi-points", "tau-sweep-points", "phase-map-cells"])
    def test_oversized_grid_is_refused_at_once(self, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 2.0
        assert (code, out, err) == (1, "", f"otto-tls: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "1.5", "--ph",
          "0.8", "--tau", "7e7"), "p_c must lie in [0, 1], got 1.5"),
        (("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4", "--ph",
          "-0.2", "--tau", "7e7"), "p_h must lie in [0, 1], got -0.2"),
        (("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--tau", "2e7",
          "--ph-max", "1.5"), "ph grid must lie in [0, 1], got 1.5"),
        (("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--tau", "2e7",
          "--threads", str(CPUS + 1)),
         f"threads must be an int in [1, {CPUS}], got {CPUS + 1}"),
    ], ids=["cycle-pc", "cycle-ph", "phase-map-grid-end", "phase-map-threads"])
    def test_tau_is_integrated_after_every_other_check(self, monkeypatch,
                                                        argv, message):
        # A refusal that needs no integration comes before the stroke of
        # --tau, which may take a minute.
        def no_step(*args):
            raise AssertionError("an integrator step was taken")

        monkeypatch.setattr("otto_tls.propagator._propagate_magnus6", no_step)
        assert run_cli(*argv) == (1, "", f"otto-tls: {message}\n")

    @pytest.mark.parametrize("threads", ["0", "-1", str(CPUS + 1), "100000"],
                             ids=["zero", "negative", "cpus-plus-1", "huge"])
    def test_threads_outside_cpu_count_refused(self, monkeypatch, threads):
        # --threads reaches run_phase_map unchanged, which refuses it
        # before it builds a pool.
        def never(*args, **kwargs):
            raise AssertionError("a ThreadPoolExecutor was constructed")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", never)
        code, out, err = run_cli("phase-map", "--nu-c", "2", "--nu-h", "3.6",
                                 "--threads", threads)
        assert (code, out, err) == (
            1, "", f"otto-tls: threads must be an int in [1, {CPUS}], got "
                   f"{threads}\n")

    @pytest.mark.parametrize("argv", [
        ("tau-sweep", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
         "--ph", "0.8", "--threads", "2"),
        ("xi", "--nu-c", "2", "--nu-h", "3.6", "--threads", "2"),
        ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4", "--ph", "0.8",
         "--xi", "0.25", "--threads", "2"),
        ("windows", "--nu-c", "2", "--nu-h", "3.6", "--ph", "0.8",
         "--xi-tol", "1e-8"),
        ("windows", "--nu-c", "2", "--nu-h", "3.6", "--ph", "0.8",
         "--threads", "2"),
        ("verify", "--quick"),
        ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4", "--ph", "0.8",
         "--xi", "0.25", "--xi-tol", "1e-300"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--xi", "0.25",
         "--xi-tol", "5"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--xi-tol", "1e-8"),
    ])
    def test_option_without_effect_rejected(self, argv):
        # --threads belongs to phase-map alone, windows never integrates,
        # and verify takes no options: the parser does not know them.
        # cycle and phase-map integrate only with --tau, so they refuse
        # --xi-tol without it, in one line.
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        if "--xi-tol" in argv and argv[0] != "windows":
            assert err == "otto-tls: --xi-tol has no effect without --tau\n"
        else:
            assert "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_unwritable_output_one_line_error(self, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli("cycle", "--nu-c", "2", "--nu-h", "3.6",
                                 "--pc", "0.4", "--ph", "0.8", "--xi", "0.25",
                                 "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"otto-tls: cannot write {path}: No such file or directory"]

    def test_unwritable_output_after_unconverged_points(self, tmp_path,
                                                        monkeypatch):
        # The unconverged point is reported only after a successful write,
        # so an unwritable -o still gives one line and exit 2.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 18)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli("xi", "--nu-c", "2", "--nu-h", "3.6",
                                 "--tau-min", "10", "--tau-max", "300",
                                 "--points", "2", "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"otto-tls: cannot write {path}: No such file or directory"]

    @pytest.mark.parametrize("argv", [
        ("xi", "--nu-c", "3.6", "--nu-h", "2"),
        ("cycle", "--nu-c", "3.6", "--nu-h", "2", "--pc", "0.4", "--ph", "0.8",
         "--xi", "0.25"),
        ("tau-sweep", "--nu-c", "3.6", "--nu-h", "2", "--pc", "0.4",
         "--ph", "0.8"),
        ("phase-map", "--nu-c", "3.6", "--nu-h", "2"),
        ("windows", "--nu-c", "3.6", "--nu-h", "2", "--ph", "0.8"),
        ("xi", "--nu-c", "2", "--nu-h", "3.6", "--linear", "--tau-min", "0"),
        ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4", "--ph", "0.8",
         "--tau", "-5"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--tau", "-5"),
        ("windows", "--nu-c", "2", "--nu-h", "3.6", "--ph", "1.5"),
        ("tau-sweep", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
         "--ph", "0.8", "--tau-max", "inf"),
        # Strokes too long to integrate within MAX_STEPS.
        ("xi", "--nu-c", "2", "--nu-h", "3.6", "--tau-max", "1e308",
         "--points", "2"),
        ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.3", "--ph", "0.8",
         "--tau", "1e9"),
        ("cycle", "--nu-c", "1e-300", "--nu-h", "1e300", "--pc", "0.3",
         "--ph", "0.8", "--tau", "1"),
        ("cycle", "--nu-c", "1", "--nu-h", "1e305", "--pc", "0.3",
         "--ph", "0.8", "--tau", "1e10"),
    ])
    def test_invalid_input_leaves_output_untouched(self, tmp_path, argv):
        path = tmp_path / "kept.csv"
        path.write_text("earlier output\n")
        code, out, err = run_cli(*argv, "-o", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("otto-tls: ")
        assert path.read_text() == "earlier output\n"

    @pytest.mark.parametrize("argv", [
        ("cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4", "--ph", "0.8",
         "--tau", "300"),
        ("phase-map", "--nu-c", "2", "--nu-h", "3.6", "--tau", "300"),
    ])
    def test_convergence_failure_leaves_output_untouched(self, tmp_path,
                                                         monkeypatch, argv):
        # 300 us starts at 9 steps; a bound of 18 allows one doubling,
        # which does not settle xi to 1e-9.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 18)
        path = tmp_path / "kept.csv"
        path.write_text("earlier output\n")
        code, out, err = run_cli(*argv, "-o", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("otto-tls: xi not converged to 1e-09 within "
                              "18 steps")
        assert path.read_text() == "earlier output\n"

    def test_xi_tolerance_below_rounding_is_refused_at_once(self):
        # Rounding keeps |xi_2n - xi_n| above about 1e-15, so at 1e-300
        # every stroke ran to MAX_STEPS, 4.7 s each; the 1e-14 floor of
        # xi_tolerance ends the call before any integration.
        start = time.perf_counter()
        code, out, err = run_cli(
            "cycle", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
            "--ph", "0.8", "--tau", "300", "--xi-tol", "1e-300")
        elapsed = time.perf_counter() - start
        assert code == 1
        assert out == ""
        assert err == ("otto-tls: xi_tolerance must lie in [1e-14, 1e-2), "
                       "got 1e-300\n")
        assert elapsed < 1.0

    @pytest.mark.parametrize("command", [
        ("xi", "--nu-c", "2", "--nu-h", "3.6"),
        ("tau-sweep", "--nu-c", "2", "--nu-h", "3.6", "--pc", "0.4",
         "--ph", "0.8"),
    ])
    def test_unconverged_points_named_on_stderr(self, monkeypatch, command):
        # 300 us starts at 9 steps; a bound of 18 allows one doubling,
        # which does not settle xi to 1e-9.  10 us converges at 16 steps.
        monkeypatch.setattr("otto_tls.propagator.MAX_STEPS", 18)
        code, out, err = run_cli(*command, "--tau-min", "10",
                                 "--tau-max", "300", "--points", "2")
        assert code == 1
        _, rows = parse_csv(out)
        assert [r["converged"] for r in rows] == ["1", "0"]
        assert err.splitlines() == [
            "otto-tls: 1 of 2 points did not converge (converged = 0)"]

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

    # A stdout that cannot be written is one line and exit 2, as an
    # unwritable --output is, with nothing more at the final flush.
    STDOUT_COMMANDS = [("verify",), ("xi", "--nu-c", "2", "--nu-h", "3.6",
                                     "--points", "3"),
                       ("phase-map", "--nu-c", "2", "--nu-h", "3.6")]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_full_stdout_one_line_exit_2(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "otto_tls.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, env=child_env(),
                timeout=60)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("otto-tls: cannot write stdout: ")

    @pytest.mark.skipif(shutil.which("sh") is None, reason="needs sh")
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_closed_stdout_one_line_exit_2(self, argv):
        proc = subprocess.run(
            ["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m",
             "otto_tls.cli", *argv],
            stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "otto-tls: cannot write stdout: it is closed\n"

    def test_verify_passes(self):
        code, out, _ = run_cli("verify")
        assert code == 0
        assert "FAIL" not in out


# Option values: boundary, huge, infinite and NaN spellings, and floats,
# some of them in [0, 1] where populations and xi are valid.
VALUES = st.one_of(
    st.sampled_from(["0", "-0", "5e-324", "1e-300", "1e-9", "1e-3", "0.5",
                     "1", "-1", "2", "3.6", "300", "1e4", "1e9", "1e308",
                     "-1e308", "inf", "-inf", "nan"]),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.floats().map(repr))
# Frequency pairs: the reference pair, any valid pair, or any two values.
FREQ_PAIRS = st.one_of(
    st.just(("2", "3.6")),
    st.lists(st.floats(min_value=5e-324, max_value=1.7e308), min_size=2,
             max_size=2, unique=True).map(lambda p: sorted(map(repr, p),
                                                           key=float)),
    st.tuples(VALUES, VALUES))
# Grid sizes: small enough to run, below 2, or far above sweep.MAX_POINTS,
# which a grid refuses before it allocates.
COUNTS = st.one_of(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=MAX_POINTS + 1, max_value=10**30)).map(str)
# Thread counts: in range but at most 4, or outside [1, cpu count], which
# phase-map refuses before it starts a thread; no huge value is accepted.
THREADS = st.one_of(
    st.integers(min_value=1, max_value=min(CPUS, 4)),
    st.integers(min_value=-1, max_value=0),
    st.integers(min_value=CPUS + 1, max_value=10**30)).map(str)


@st.composite
def argvs(draw):
    """A subcommand with drawn values for its numeric options."""
    def opts(*names):
        return [f"{name}={draw(VALUES)}" for name in names
                if draw(st.booleans())]

    def one_of(*names):
        return [f"{draw(st.sampled_from(names))}={draw(VALUES)}"]

    command = draw(st.sampled_from(
        ["xi", "cycle", "tau-sweep", "phase-map", "windows"]))
    nu_c, nu_h = draw(FREQ_PAIRS)
    argv = [command, f"--nu-c={nu_c}", f"--nu-h={nu_h}"]
    if command in ("cycle", "tau-sweep"):
        argv += one_of("--pc", "--uc") + one_of("--ph", "--uh")
    if command in ("xi", "tau-sweep"):
        argv += opts("--tau-min", "--tau-max") + ["--points", draw(COUNTS)]
    if command == "cycle":
        argv += one_of("--xi", "--tau")
    if command == "phase-map":
        argv += opts("--xi", "--tau")[:1]
        argv += opts("--ph-min", "--ph-max", "--pc-min", "--pc-max")
        argv += ["--ph-points", draw(COUNTS), "--pc-points", draw(COUNTS)]
        if draw(st.booleans()):
            argv += ["--threads", draw(THREADS)]
    if command == "windows":
        argv += opts("--ph", "--pc")
    else:
        argv += opts("--xi-tol")
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_any_input_ends_in_a_result_or_one_line(argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("otto_tls.propagator.MAX_STEPS", 1024)
        start = time.perf_counter()
        code, _, err = run_cli(*argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("otto-tls: ")
    assert elapsed < 2.0


def test_startup_imports_stay_lean():
    # -S skips site, whose .pth files may import typing or random
    # themselves and hide a regression here.  A bare import loads no
    # submodule; --version, --help and a usage error load none of the
    # numeric modules.  The integrator loads no model module: it reads xi
    # from U's entries, and CycleFrequencies is only its annotation.
    modules = ("dataclasses", "inspect", "typing", "random",
               "concurrent.futures", "otto_tls.complex2",
               "otto_tls.propagator", "otto_tls.thermo", "otto_tls.sweep")
    code = f"""
import contextlib, io, sys
import otto_tls
print([m for m in sys.modules if m.startswith("otto_tls.")])
from otto_tls.cli import main
for argv in (["--version"], ["--help"], ["tau-sweep"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(code, [m for m in {modules!r} if m in sys.modules])
for m in [m for m in sys.modules if m.startswith("otto_tls")]:
    del sys.modules[m]
import otto_tls.propagator
print(sorted(m for m in sys.modules if m.startswith("otto_tls")))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "0 []", "0 []", "2 []",
        "['otto_tls', 'otto_tls.propagator']"]


FREQ_ARGV = ["--nu-c", "2", "--nu-h", "3.6"]
POPULATIONS = ["--pc", "0.4", "--ph", "0.8"]
SMALL_MAP = ["--ph-points", "3", "--pc-points", "3"]


@pytest.mark.parametrize("argv, loaded", [
    (["windows", *FREQ_ARGV, "--ph", "0.8"], []),
    (["cycle", *FREQ_ARGV, *POPULATIONS, "--xi", "0.25"], []),
    (["tau-sweep", *FREQ_ARGV, *POPULATIONS, "--points", "3"],
     ["otto_tls.propagator"]),
    (["xi", *FREQ_ARGV, "--points", "3"], ["otto_tls.propagator"]),
    (["cycle", *FREQ_ARGV, *POPULATIONS, "--tau", "300"],
     ["otto_tls.propagator"]),
    (["phase-map", *FREQ_ARGV, "--xi", "0.25", *SMALL_MAP], []),
    (["phase-map", *FREQ_ARGV, "--tau", "300", *SMALL_MAP],
     ["otto_tls.propagator"]),
    (["verify"], ["otto_tls.propagator", "otto_tls.verify"]),
])
def test_closed_form_commands_load_no_integrator(argv, loaded):
    # windows, cycle --xi and phase-map --xi are closed forms: they load
    # neither the stroke integrator nor the checking path.  No production
    # command, integrating or not, loads the checking path, and no command,
    # verify included, loads complex2 or the cmath it imports.
    modules = ("otto_tls.propagator", "otto_tls.verify", "otto_tls.complex2",
               "cmath")
    code = f"""
import contextlib, io, sys
from otto_tls.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, [m for m in {modules!r} if m in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 {loaded!r}"]


def test_annotations_resolve():
    # Every annotation in otto_tls.cli names something the module can
    # resolve, although `from __future__ import annotations` defers them.
    funcs = [f for f in vars(otto_cli).values()
             if inspect.isfunction(f) and f.__module__ == otto_cli.__name__]
    assert funcs
    for f in funcs:
        typing.get_type_hints(f)


OPTIONS = {
    "xi": "-h --help --nu-c --nu-h --tau-min --tau-max --points --linear "
          "--xi-tol -o --output",
    "cycle": "-h --help --nu-c --nu-h --pc --uc --ph --uh --xi --tau "
             "--xi-tol -o --output",
    "tau-sweep": "-h --help --nu-c --nu-h --pc --uc --ph --uh --tau-min "
                 "--tau-max --points --linear --xi-tol -o --output",
    "phase-map": "-h --help --nu-c --nu-h --xi --tau --ph-min --ph-max "
                 "--ph-points --pc-min --pc-max --pc-points --threads "
                 "--xi-tol -o --output",
    "windows": "-h --help --nu-c --nu-h --ph --pc -o --output",
    "verify": "-h --help",
}


def test_option_strings_are_pinned():
    # Every option of every subcommand, listed here so that a new knob is
    # a reviewed change to this test.
    parser = build_parser()
    top = [s for a in parser._actions for s in a.option_strings]
    assert top == ["-h", "--help", "--version"]
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: " ".join(s for a in p._actions for s in a.option_strings)
               for name, p in sub.choices.items()}
    assert options == OPTIONS


def test_each_subcommand_runs_its_own_function():
    # The parser is the one registry: each subparser names its _cmd_*
    # function through set_defaults(run=...).
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for name, p in sub.choices.items():
        assert p.get_default("run") is \
            getattr(otto_cli, "_cmd_" + name.replace("-", "_")), name
