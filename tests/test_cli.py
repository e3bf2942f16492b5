"""CLI contract: flags, exit codes, output formats, dataset determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sombrero
from sombrero import PotentialParams, TrialWavefunction, cli, eval_s0, maxima_radius
from sombrero.cli import main

SQRT3 = math.sqrt(3.0)

WORKED_FLAGS = [
    "--g", "1.5",
    "--alpha", "3.4641016151377544",
    "--beta", "2",
    "--A", "1.1547005383792515",
    "--N", "3",
]


POTENTIAL = {"--g": "1.5", "--alpha": "3.4641016", "--beta": "2", "--A": "1.1547005", "--N": "3"}

# one valid invocation per subcommand, as flag -> value; "OUT" marks the output path
VALID = {
    "derive": POTENTIAL,
    "from-lambda": {"--g": "1.5", "--lambda": "1.5", "--N": "3"},
    "scan-lambda": {"--N": "3", "--from": "1.5", "--to": "2.5", "--steps": "3", "--out": "OUT"},
    "jackiw": {"--N": "3"},
    "eta-mu": {"--g": "1", "--N": "3", "--rmax": "8", "--grid": "2000"},
    "verify": {**POTENTIAL, "--rmax": "8", "--grid": "2000"},
    "plot-data": {"--what": "potential", **POTENTIAL, "--r-from": "0", "--r-to": "3", "--steps": "5", "--out": "OUT"},
}
NUMERIC = [(cmd, flag) for cmd, flags in VALID.items() for flag in flags if flag not in ("--out", "--what")]


def argv_for(command, flags, out_path):
    argv = [command]
    for flag, value in flags.items():
        argv += [flag, str(out_path) if value == "OUT" else value]
    return argv


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    values = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    return values


class TestDerive:
    def test_reference_case(self, capsys):
        code, out, _ = run_cli(["derive", *WORKED_FLAGS], capsys)
        assert code == 0
        table = parse_table(out)
        assert float(table["derived.c"]) == pytest.approx(SQRT3 / 2.0, abs=1e-9)
        assert abs(float(table["derived.m"])) < 1e-9
        assert abs(float(table["derived.e0"])) < 1e-9

    def test_seven_digit_flags(self, capsys):
        code, out, _ = run_cli(
            ["derive", "--g", "1.5", "--alpha", "3.4641016", "--beta", "2",
             "--A", "1.1547005", "--N", "3"],
            capsys,
        )
        assert code == 0
        table = parse_table(out)
        assert float(table["derived.c"]) == pytest.approx(0.8660254, abs=1e-6)
        assert abs(float(table["derived.m"])) < 1e-6
        assert abs(float(table["derived.e0"])) < 1e-6

    def test_log_term_case(self, capsys):
        code, out, _ = run_cli(
            ["derive", "--g", "1", "--alpha", "0", "--beta", "0", "--A", "0", "--N", "3"],
            capsys,
        )
        assert code == 0
        table = parse_table(out)
        assert float(table["derived.m"]) == 1.25
        assert float(table["derived.e0"]) == 2.5

    def test_unresolved_oracle_is_named(self, capsys):
        # both constraints hold (e0 = -3.3e-6 is what rounding leaves of
        # terms near 1e5); at the 8192-cell cap the ladder's error
        # estimate is 1.9e-3 and |E - e0| 8.4e-4, both above the tolerance
        # 1e-6 / r_max^2 = 7.5e-7
        code, out, err = run_cli(["eta-mu", "--g", "1e5", "--N", "3"], capsys)
        assert code == 1
        assert err == ""
        table = parse_table(out)
        assert table["verification.verdict"] == "FAIL"
        assert [v for k, v in table.items() if k.startswith("verification.failures.")] == ["oracle_unresolved"]

    def test_nonpositive_g_exits_2(self, capsys):
        code, _, err = run_cli(
            ["derive", "--g", "-1", "--alpha", "0", "--beta", "0", "--A", "0", "--N", "3"],
            capsys,
        )
        assert code == 2
        assert "--g" in err

    def test_malformed_flag_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["derive", "--g", "abc", "--alpha", "0", "--beta", "0", "--A", "0", "--N", "3"],
            capsys,
        )
        assert code == 2

    def test_negative_value_in_exponent_notation(self, capsys):
        flags = ["--g", "1.5", "--alpha", "3.4641016", "--beta", "2", "--N", "3"]
        code, out, err = run_cli(["derive", *flags, "--A", "-1.4e-05"], capsys)
        joined = run_cli(["derive", *flags, "--A=-1.4e-05"], capsys)
        assert (code, out, err) == joined
        assert code == 0
        assert "A = -1.4e-05" in out

    def test_json_round_trips_byte_identically(self, capsys):
        code, out, _ = run_cli(["derive", *WORKED_FLAGS, "--format", "json"], capsys)
        assert code == 0
        document = out[:-1]  # strip trailing newline from print
        assert json.dumps(json.loads(document), indent=2, sort_keys=True) == document

    def test_human_values_present_in_machine_format(self, capsys):
        _, human, _ = run_cli(["derive", *WORKED_FLAGS], capsys)
        _, machine, _ = run_cli(["derive", *WORKED_FLAGS, "--format", "json"], capsys)
        doc = json.loads(machine)
        table = parse_table(human)
        for key in ("a", "c", "m", "e0"):
            human_val = float(table[f"derived.{key}"])
            assert doc["derived"][key] == pytest.approx(human_val, rel=1e-8, abs=1e-9)


class TestFromLambda:
    def test_reference_case(self, capsys):
        code, out, _ = run_cli(
            ["from-lambda", "--g", "1.5", "--lambda", "1.5", "--N", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        (sol,) = doc["solutions"]
        assert sol["eta"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert sol["beta"] == pytest.approx(2.0, abs=1e-9)
        assert sol["alpha"] == pytest.approx(math.sqrt(12.0), abs=1e-9)
        assert sol["A"] == pytest.approx(math.sqrt(12.0) / 3.0, abs=1e-9)
        assert sol["c"] == pytest.approx(SQRT3 / 2.0, abs=1e-9)

    def test_no_root_exits_1(self, capsys):
        code, out, _ = run_cli(["from-lambda", "--g", "1.5", "--lambda", "1.0", "--N", "3"], capsys)
        assert code == 1
        assert "no eta in (0,1)" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, _ = run_cli(["from-lambda", "--g", "1.5", "--lambda", "abc", "--N", "3"], capsys)
        assert code == 2


class TestScanLambda:
    def test_dataset_shape_and_reference_row(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        args = ["scan-lambda", "--N", "3", "--from", "1.01", "--to", "10", "--steps", "200", "--out", str(out_path)]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lambda,eta"
        assert len(lines) == 201
        etas = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all((etas > 0.0) & (etas < 1.0))
        assert np.all(np.diff(etas) > 0.0)

    def test_reference_row_value(self, tmp_path, capsys):
        out_path = tmp_path / "row.csv"
        run_cli(["scan-lambda", "--N", "3", "--from", "1.5", "--to", "2.5", "--steps", "3", "--out", str(out_path)], capsys)
        first = out_path.read_text(encoding="utf-8").splitlines()[1]
        lam, eta = first.split(",")
        assert float(lam) == 1.5
        assert float(eta) == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["scan-lambda", "--N", "3", "--from", "1.01", "--to", "10", "--steps", "50", "--out", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["scan-lambda", "--N", "3", "--from", "2", "--to", "1", "--steps", "10", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "--from" in err

    def test_from_must_exceed_one(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["scan-lambda", "--N", "3", "--from", "0.5", "--to", "2", "--steps", "10", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2

    def test_unwritable_path_exits_2(self, capsys):
        code, _, err = run_cli(
            ["scan-lambda", "--N", "3", "--from", "1.5", "--to", "2", "--steps", "5", "--out", "/nonexistent-dir/x.csv"],
            capsys,
        )
        assert code == 2
        assert err

    def test_usage_error_writes_no_file(self, tmp_path, capsys):
        # at N = 9 the eta cubic of lambda = 2.5e307 overflows; every lambda
        # is solved before the file is opened
        out_path = tmp_path / "x.csv"
        argv = ["scan-lambda", "--N", "9", "--from", "1.5", "--to", "1e308", "--steps", "5", "--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: cubic coefficients must be finite with a finite sum, got (inf, inf, -inf, -inf)\n"
        assert not out_path.exists()
        out_path.write_bytes(b"an earlier file\n")
        assert run_cli(argv, capsys)[0] == 2
        assert out_path.read_bytes() == b"an earlier file\n"

    def test_lambda_without_a_root_is_an_empty_field(self, tmp_path, monkeypatch, capsys):
        # every lambda > 1 has a root, so the grid finder is made to miss two
        def missing_two(lams, n_dim):
            etas = np.full(len(lams), 0.25)
            etas[[0, 2]] = np.nan
            return etas

        monkeypatch.setattr(cli, "_solve_eta_grid", missing_two)
        out_path = tmp_path / "x.csv"
        code, _, _ = run_cli(
            ["scan-lambda", "--N", "3", "--from", "1.5", "--to", "2.5", "--steps", "3", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == "lambda,eta\n1.5,\n2,0.25\n2.5,\n"


class TestJackiw:
    def test_three_dimensional_branches(self, capsys):
        code, out, _ = run_cli(["jackiw", "--N", "3", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        first, second = doc["branches"]
        assert first["alpha"] == pytest.approx(2.5819889, abs=1e-6)
        assert first["e0"] == pytest.approx(2.1516574, abs=1e-6)
        assert second["alpha"] == pytest.approx(-7.7459667, abs=1e-6)
        assert second["e0"] == pytest.approx(9.8976241, abs=1e-6)

    def test_one_dimensional(self, capsys):
        code, out, _ = run_cli(["jackiw", "--N", "1", "--format", "json"], capsys)
        assert code == 0
        first = json.loads(out)["branches"][0]
        assert first["alpha"] == pytest.approx(2.0, rel=1e-12)
        assert first["e0"] == pytest.approx(1.0, rel=1e-12)

    def test_bad_dimension_exits_2(self, capsys):
        code, _, _ = run_cli(["jackiw", "--N", "0"], capsys)
        assert code == 2


class TestEtaMu:
    def test_reference_solution_verifies(self, capsys):
        code, out, _ = run_cli(
            ["eta-mu", "--g", "1", "--N", "3", "--rmax", "8", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["eta"] == pytest.approx(0.797005, abs=1e-6)
        assert doc["solution"]["mu"] == pytest.approx(0.7707726, abs=1e-6)
        assert doc["solution"]["c"] == pytest.approx(0.1310326, abs=1e-6)
        assert doc["c_rule"] == "c = (1 - eta) * g * r0_sq / 2"
        assert doc["verification"]["verdict"] == "PASS"
        assert abs(doc["verification"]["oracle_energy"]) < 1e-6

    def test_large_g_verifies_on_the_auto_domain(self, capsys):
        code, out, _ = run_cli(["eta-mu", "--g", "100", "--N", "3"], capsys)
        assert code == 0
        assert parse_table(out)["verification.verdict"] == "PASS"

    @pytest.mark.parametrize("g", ["1000", "3000"])
    def test_peaked_trial_keeps_a_finite_similarity(self, g):
        # psi = exp(-S0) peaks at exp(c^2 / 4a), exp(416) at g = 1000, so
        # psi^2 overflows unless psi is scaled before the overlap
        proc = run_module(["eta-mu", "--g", g, "--N", "3", "--format", "json"])
        doc = json.loads(proc.stdout, parse_constant=_reject_constant)["verification"]
        assert "warning:" not in proc.stderr
        assert doc["similarity"] > 1.0 - 1e-6
        assert "eigenvector_similarity" not in doc["failures"]
        assert proc.returncode == (0 if doc["verdict"] == "PASS" else 1)
        if g == "1000":  # resolved within the grid ladder's 8192-cell cap
            assert proc.returncode == 0

    def test_coupling_just_above_three_quarters_verifies(self, capsys):
        # beta from eta alone: r0^4 (1 - mu) cancelled here and the
        # rebuilt potential missed the constraints (no solution, exit 1)
        code, out, err = run_cli(["eta-mu", "--g", "0.7500001", "--N", "1", "--format", "json"], capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["verification"]["verdict"] == "PASS"

    def test_no_root_exits_1(self, capsys):
        # the cubic is negative on all of (0, 1) for g < 3/4
        code, out, err = run_cli(["eta-mu", "--g", "0.5", "--N", "3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("no solution: ")
        assert "eta" in err
        assert len(err.strip().splitlines()) == 1

    def test_strong_coupling_fails_at_the_grid_cap(self, capsys):
        # the solution meets both constraints, but the 8192-cell grid
        # cannot resolve its narrow ring, |E - e0| = 8.4e-4, and the
        # ladder's own error estimate says so: the verdict names the
        # unresolved oracle, not a wrong energy
        code, out, err = run_cli(["eta-mu", "--g", "1e5", "--N", "3", "--format", "json"], capsys)
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert doc["verification"]["verdict"] == "FAIL"
        assert doc["verification"]["failures"] == ["oracle_unresolved"]
        assert doc["verification"]["energy_error"] > 1e-6
        assert abs(doc["verification"]["m_residual"]) < 1e-10
        assert abs(doc["verification"]["zero_energy_residual"]) < 1e-10

    def test_nonpositive_g_exits_2(self, capsys):
        code, _, _ = run_cli(["eta-mu", "--g", "0", "--N", "3"], capsys)
        assert code == 2

    def test_nonpositive_rmax_exits_2(self, capsys):
        code, _, err = run_cli(["eta-mu", "--g", "1", "--N", "3", "--rmax", "-1"], capsys)
        assert code == 2
        assert "--rmax" in err
        assert "Traceback" not in err


class TestVerify:
    def test_reference_case_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", *WORKED_FLAGS, "--rmax", "8", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["verdict"] == "PASS"
        assert abs(doc["verification"]["oracle_energy"]) < 1e-6

    @pytest.mark.parametrize("g", [1e-3, 2e4])
    def test_extreme_g_passes_on_the_auto_domain(self, g, capsys):
        (eta,) = sombrero.solve_eta(1.5, 3)
        p = sombrero.params_from_lambda(g, 1.5, eta, 3).potential
        flags = ["--g", repr(p.g), "--alpha", repr(p.alpha), "--beta", repr(p.beta), "--A", repr(p.bigA), "--N", "3"]
        code, out, _ = run_cli(["verify", *flags], capsys)
        assert code == 0
        assert parse_table(out)["verification.verdict"] == "PASS"

    def test_perturbed_beta_fails_with_m_flag(self, capsys):
        flags = list(WORKED_FLAGS)
        flags[flags.index("2") ] = "2.1"  # --beta value
        code, out, _ = run_cli(["verify", *flags, "--rmax", "8", "--format", "json"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["verification"]["verdict"] == "FAIL"
        assert "m_zero_residual" in doc["verification"]["failures"]

    def test_oracle_failure_exits_1(self, capsys):
        # a lambda-family potential this close to lambda = 1 (N = 1) has a
        # well so narrow that even the finest pair, the 4096- and 8192-cell
        # eigenvalues (4.2e15 and 1.1e15), differ by far more than the
        # coarser grid's own kinetic scale 1/dr^2
        flags = ["--g", "1.5", "--alpha", "126491106.40658", "--beta", "4.0e15", "--A", "7.0e-9", "--N", "1"]
        code, out, err = run_cli(["verify", *flags], capsys)
        assert code == 1
        assert out == ""
        assert "grid too coarse" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda v: np.where(np.arange(v.size) == 7, np.nan, v), "groundstate vector is not finite"),
            (lambda v: -v, "groundstate vector changed sign; eigenpair suspect"),
        ],
        ids=["nan", "sign"],
    )
    def test_spoiled_vector_exits_1(self, monkeypatch, capsys, spoil, message):
        eigenvector = sombrero._kernels.eigenvector
        monkeypatch.setattr(sombrero._kernels, "eigenvector", lambda *args: spoil(eigenvector(*args)))
        code, out, err = run_cli(["verify", *WORKED_FLAGS, "--rmax", "8"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"oracle failed: {message}\n"

    def test_small_grid_exits_2(self, capsys):
        code, _, err = run_cli(["verify", *WORKED_FLAGS, "--grid", "8"], capsys)
        assert code == 2
        assert "128" in err

    def test_coarse_grid_is_unresolved_not_a_wrong_claim(self, capsys):
        # eta-mu at g = 1000 is a true claim; capped at 128 to 1024 cells
        # the oracle's own error estimate is above the tolerance,
        # 1e-6 / r_max^2 = 5.8e-7 on its domain r_max = 1.31, so the
        # energy comparison is not made (|E - e0| = 2.4, 0.16, 3.3e-4 and
        # 4.8e-6), and from 2048 cells on it passes
        claim = ["eta-mu", "--g", "1000", "--N", "3", "--format", "json"]
        for grid in ("128", "256", "512", "1024"):
            code, out, _ = run_cli([*claim, "--grid", grid], capsys)
            assert code == 1
            failures = json.loads(out)["verification"]["failures"]
            assert "oracle_unresolved" in failures
            assert "oracle_energy_vs_e0" not in failures
        code, out, _ = run_cli([*claim, "--grid", "2048"], capsys)
        assert code == 0
        assert json.loads(out)["verification"]["verdict"] == "PASS"
        # a cap that gives no four-level ladder is a usage error
        for grid in ("16", "64", "120", "124", "132"):
            code, out, err = run_cli(["verify", *WORKED_FLAGS, "--grid", grid], capsys)
            assert code == 2
            assert out == ""
            assert err.splitlines()[-1].endswith(f"argument --grid: must be a multiple of 8 and >= 128, got {grid}")
            assert "Traceback" not in err

    def test_grid_flag_accepts_exactly_the_ladder_caps(self):
        # every --grid from 16 to 8000 is either a cap groundstate accepts
        # or a usage error, never an error from inside the oracle
        for n in range(16, 8001):
            try:
                levels = sombrero.eigensolver._ladder(n)
            except ValueError:
                levels = None
            try:
                cli._GRID(str(n))
                accepted = True
            except argparse.ArgumentTypeError:
                accepted = False
            assert accepted == (levels is not None), n
            if levels is not None:
                assert levels[-1] == n and len(levels) >= 4
                assert all(fine == 2 * coarse for coarse, fine in zip(levels, levels[1:]))
                assert levels[0] >= sombrero.eigensolver.MIN_GRID_POINTS


class TestPlotData:
    def test_wavefunction_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "psi.csv"
        code, _, _ = run_cli(
            ["plot-data", "--what", "wavefunction", *WORKED_FLAGS,
             "--r-from", "0", "--r-to", "3", "--steps", "300", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r,value"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert data.shape == (300, 2)
        peak_r = data[np.argmax(data[:, 1]), 0]
        spacing = 3.0 / 299
        assert abs(peak_r - 1.0745699) <= spacing
        assert data[:, 1].max() == pytest.approx(1.0, abs=1e-4)

    def test_wavefunction_peak_past_the_double_range(self, tmp_path, capsys):
        # the ring peaks at r = 26.1 with S0 = -4.6e5 there, so exp(-S0)
        # at the peak overflows; the ratio to it must not
        flags = ["--g", "1", "--alpha", "1000", "--beta", "0", "--A", "0", "--N", "3"]
        w = TrialWavefunction.from_potential(PotentialParams(g=1.0, alpha=1000.0, beta=0.0, bigA=0.0, n_dim=3))
        peak = maxima_radius(w).radius
        assert eval_s0(w, peak) < -4e5
        for r_from, first in (("0", 0.0), (repr(peak), 1.0)):
            out_path = tmp_path / "wf.csv"
            code, out, err = run_cli(
                ["plot-data", "--what", "wavefunction", *flags,
                 "--r-from", r_from, "--r-to", "30", "--steps", "7", "--out", str(out_path)],
                capsys,
            )
            assert (code, out, err) == (0, "", "")
            text = out_path.read_text(encoding="utf-8")
            assert "nan" not in text
            values = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
            assert len(values) == 7 and all(0.0 <= v <= 1.0 for v in values)
            assert values[0] == first

    def test_potential_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "v.csv"
        code, _, _ = run_cli(
            ["plot-data", "--what", "potential", *WORKED_FLAGS,
             "--r-from", "0", "--r-to", "3", "--steps", "100", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        first = out_path.read_text(encoding="utf-8").splitlines()[1]
        assert float(first.split(",")[1]) == pytest.approx(2.5980762, abs=1e-6)

    def test_bad_range_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["plot-data", "--what", "potential", *WORKED_FLAGS,
             "--r-from", "2", "--r-to", "1", "--steps", "10", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2


# sha256 of dataset files over wide lambda ranges, near lambda = 1 and at a
# weak coupling; a moved byte in either dataset command fails here.
PINNED_DATASETS = {
    "scan_N1": (["scan-lambda", "--N", "1", "--from", "1.01", "--to", "10", "--steps", "2000"],
                "25927049ef8b9038843724db78adce47f785ab447307a3d126f7962425d7d3a2"),
    "scan_N3": (["scan-lambda", "--N", "3", "--from", "1.01", "--to", "10", "--steps", "2000"],
                "db2d3db4d8ce8104ecfd9b966fb822624b1d71c33010f0d47eb2d20572433df9"),
    "scan_N9": (["scan-lambda", "--N", "9", "--from", "1.01", "--to", "10", "--steps", "2000"],
                "a3a5411f274fb054723418258f961897725f8c310871fae534a8e55c44ecf46f"),
    "scan_near_one_N1": (["scan-lambda", "--N", "1", "--from", "1.0000000000000002", "--to", "1.000001",
                          "--steps", "500"],
                         "9cb3578b9f236290d1b63a1a2d037cb914fd922990b28942fcc1706a69f72138"),
    "scan_near_one_N3": (["scan-lambda", "--N", "3", "--from", "1.0000000000000002", "--to", "1.000001",
                          "--steps", "500"],
                         "e6a33e9c9f0d9adbfec5539e8fc298f97b0c2a9bd86c1d5f871b31a4d0180c4a"),
    "scan_near_one_N9": (["scan-lambda", "--N", "9", "--from", "1.0000000000000002", "--to", "1.000001",
                          "--steps", "500"],
                         "41e35f825e8495953dc790d0c35202a6513b529d2d3e26644ccee047f064e2f8"),
    "scan_wide_N1": (["scan-lambda", "--N", "1", "--from", "1.5", "--to", "1e6", "--steps", "300"],
                     "bf7542118689be99e164fed85a2ab52b72d10f36deac1066de3b0be8d1a60529"),
    "scan_wide_N3": (["scan-lambda", "--N", "3", "--from", "1.5", "--to", "1e6", "--steps", "300"],
                     "0297eb06fadf4e28b39879210cba495d40de88f2ea7a6a33a965c40596d4214f"),
    "scan_wide_N9": (["scan-lambda", "--N", "9", "--from", "1.5", "--to", "1e6", "--steps", "300"],
                     "fead4f385e403ca7dd2357dc196732c8ba943982d4338a64e9c52a40b85f587e"),
    "potential_worked": (["plot-data", "--what", "potential", *WORKED_FLAGS,
                          "--r-from", "0", "--r-to", "3", "--steps", "600"],
                         "c548f92f872f95d93efe8c608d0416e7c6a89cf0527d5b2706a6b1e1db39e9d8"),
    "wavefunction_worked": (["plot-data", "--what", "wavefunction", *WORKED_FLAGS,
                             "--r-from", "0", "--r-to", "3", "--steps", "600"],
                            "96d8717df42a7fac56d3640a0b3b139310bd351fc3a13b517a64052d22f3b40b"),
    "potential_weak_g": (["plot-data", "--what", "potential", *WORKED_FLAGS, "--g", "0.01",
                          "--r-from", "0", "--r-to", "3", "--steps", "600"],
                         "af2cfd2732d4fb1457fc0b24c4b5620d8778e789848ade58adcf555800009d03"),
    "wavefunction_weak_g": (["plot-data", "--what", "wavefunction", *WORKED_FLAGS, "--g", "0.01",
                             "--r-from", "0", "--r-to", "3", "--steps", "600"],
                            "0a256d9d234d551d96487fea097b714ba43880c5f6625421680ae0a3166fca86"),
}


class TestPinnedDatasets:
    @pytest.mark.parametrize("name", list(PINNED_DATASETS))
    def test_bytes_are_pinned(self, name, tmp_path, capsys):
        argv, digest = PINNED_DATASETS[name]
        out_path = tmp_path / "pinned.csv"
        code, _, _ = run_cli([*argv, "--out", str(out_path)], capsys)
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestDatasetWriter:
    def test_same_bytes_as_one_row_at_a_time(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_ROWS", 7)  # several writes, the last one short
        rng = np.random.default_rng(5)
        x = rng.normal(size=40) * 10.0 ** rng.integers(-320, 300, size=40)
        y = np.concatenate([[np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 1.0 / 3.0], rng.normal(size=32)])
        expected = "r,value\n" + "".join(f"{float(a):.9g},{float(b):.9g}\n" for a, b in zip(x, y))
        cli._write_csv(tmp_path / "x.csv", "r,value", x, y)
        assert (tmp_path / "x.csv").read_bytes() == expected.encode("utf-8")
        cli._write_csv(tmp_path / "blank.csv", "r,value", x, y, blank_nan=True)
        lines = (tmp_path / "blank.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == f"{x[0]:.9g},"
        assert lines[2:5] == [f"{x[1]:.9g},inf", f"{x[2]:.9g},-inf", f"{x[3]:.9g},-0"]

    @pytest.mark.parametrize("command", ["scan-lambda", "plot-data"])
    @pytest.mark.parametrize(
        "raised, printed",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"),
             "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_oversized_steps_is_a_usage_error(self, command, raised, printed, tmp_path, monkeypatch, capsys):
        # numpy's refusal to allocate is raised without allocating anything
        def refuse(*args, **kwargs):
            raise raised

        monkeypatch.setattr(np, "linspace", refuse)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(argv_for(command, {**VALID[command], "--steps": "1000000000000"}, out_path), capsys)
        assert code == 2
        assert out == ""
        assert err == printed
        assert not out_path.exists()


class TestFlagTypes:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command,flag", NUMERIC)
    def test_non_finite_value_exits_2_naming_the_flag(self, command, flag, value, tmp_path, capsys):
        flags = {**VALID[command]}
        del flags[flag]
        argv = argv_for(command, flags, tmp_path / "x.csv") + [f"{flag}={value}"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NaN"])
    @pytest.mark.parametrize("command,flag", NUMERIC)
    def test_separate_negative_non_finite_value_reaches_the_type(self, command, flag, value, tmp_path, capsys):
        flags = {**VALID[command], flag: value}
        code, out, err = run_cli(argv_for(command, flags, tmp_path / "x.csv"), capsys)
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err
        assert value in err
        assert "expected one argument" not in err

    def test_parser_is_built_once(self, monkeypatch, capsys):
        def fail():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", fail)
        code, _, _ = run_cli(["jackiw", "--N", "3"], capsys)
        assert code == 0


class TestLibraryErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            # g**2 overflows a float in the trial split
            ["derive", "--g", "1e200", "--alpha", "0", "--beta", "0", "--A", "0", "--N", "3"],
            # beta overflows when the potential is rebuilt from (g, lambda, eta)
            ["from-lambda", "--g", "1e-320", "--lambda", "1.5", "--N", "3"],
            # the eta cubic's coefficients overflow to infinity
            ["from-lambda", "--g", "1", "--lambda", "1e308", "--N", "9"],
            # 1/dr^2 squared overflows in the oracle's off-diagonal
            ["verify", *WORKED_FLAGS, "--rmax", "1e-80"],
            # r_max^2 overflows, and underflows to 0: no energy unit 1/r_max^2
            ["verify", *WORKED_FLAGS, "--rmax", "1e200"],
            ["verify", *WORKED_FLAGS, "--rmax", "1e-300"],
            # the flux weight 2^(N-1) of the first cell overflows
            ["eta-mu", "--g", "1", "--N", "1100"],
            # V overflows on the automatic domain's samples
            ["verify", "--g", "1e154", "--alpha", "1", "--beta", "1", "--A", "1", "--N", "3"],
        ],
    )
    def test_reported_in_one_line(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_overflow_names_the_flags(self, command, capsys):
        # g^2 overflows a float in the trial split
        flags = ["--g", "1e300", "--alpha", "1", "--beta", "1", "--A", "1", "--N", "3"]
        code, out, err = run_cli([command, *flags], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {command}: the flags {' '.join(flags)} overflow double precision (")


class _ClosedPipe(io.TextIOBase):
    """A standard output whose reader has gone, as under `| head`."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestClosedOutput:
    def test_closed_stdout_exits_1_quietly(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "stdout"
        fd = os.open(out, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert main(["jackiw", "--N", "3"]) == 1
            # the descriptor now points at devnull, so the flush at
            # interpreter exit has nowhere to fail
            os.write(fd, b"late flush")
        finally:
            os.close(fd)
        assert out.read_bytes() == b""
        assert capsys.readouterr().err == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_module(args):
    # the child imports the same sombrero as this process, installed or not
    src = str(Path(sombrero.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sombrero", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntrypoint:
    def test_module_invocation(self):
        proc = run_module(["--version"])
        assert proc.returncode == 0
        assert "sombrero" in proc.stdout

    def test_warning_prints_as_one_line(self):
        # a domain too short for the worked case: the oracle settles the
        # groundstate of the truncated problem, which is not the claim's
        proc = run_module(["verify", *WORKED_FLAGS, "--grid", "128", "--rmax", "0.5"])
        assert proc.returncode == 1
        assert "verification.verdict = FAIL" in proc.stdout
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: V(r_max=0.5)")
        assert ".py:" not in proc.stderr


def _flag_value(flag):
    """Text for one flag: an extreme, non-finite or unparsable value, or a random number.

    Numbers come from [-10, 10], from all floats, or as one-digit
    magnitudes m 10^k with k in [-8, 8], which reach the couplings where
    the constraint solvers work at the edge of their precision.
    """
    special = st.sampled_from(["inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "-1e-300", "-1.4e-05", "0", "abc"])
    if flag == "--grid":
        number = st.integers(16, 4000).map(str)
    elif flag == "--steps":
        number = st.integers(2, 500).map(str)
    elif flag == "--N":
        number = st.integers(-2, 12).map(str)
    else:
        number = st.one_of(
            st.floats(-10.0, 10.0).map(repr),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.builds("{}e{}".format, st.integers(1, 9), st.integers(-8, 8)),
        )
    return st.one_of(special, number)


@st.composite
def _argv(draw, command):
    argv = [command]
    for flag, value in VALID[command].items():
        if value == "OUT":
            argv += [flag, "OUT"]
            continue
        roll = draw(st.integers(0, 99))  # keep the valid value 2 times in 3, drop the flag 1 in 50
        if roll < 2:
            continue
        if flag == "--what":
            value = draw(st.sampled_from(["potential", "wavefunction"]))
        elif roll >= 67:
            value = draw(_flag_value(flag))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


class TestExitContract:
    """Whatever the flags, the exit code is 0, 1 or 2 and nothing raises."""

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("command", list(VALID))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_argv(self, command, data, tmp_path):
        argv = data.draw(_argv(command))
        argv = [str(tmp_path / "x.csv") if a == "OUT" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(log_g=st.floats(2.0, 9.0), n_dim=st.sampled_from([1, 3, 9]))
    def test_eta_mu_over_strong_couplings(self, log_g, n_dim):
        # every one of these couplings has a solution; where the oracle
        # cannot resolve it at the grid cap the verdict is FAIL, exit 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eta-mu", "--g", repr(10.0**log_g), "--N", str(n_dim)])
        assert code in (0, 1)
        assert len(err.getvalue().splitlines()) == (0 if out.getvalue() else 1)
