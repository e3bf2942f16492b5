"""CLI contract: flags, exit codes, output formats, dataset determinism."""

import contextlib
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
from sombrero import cli
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
        if g == "1000":  # resolved within the grid ladder's 8000-cell cap
            assert proc.returncode == 0

    def test_no_root_exits_1(self, capsys):
        code, _, err = run_cli(["eta-mu", "--g", "0.5", "--N", "3"], capsys)
        assert code == 1
        assert "eta" in err

    def test_root_missing_the_constraints_exits_1(self, capsys):
        # at g = 1e4 the cubic's root rebuilds a potential whose e0
        # residual is 1.3e-5, so no checked solution comes out
        code, out, err = run_cli(["eta-mu", "--g", "1e4", "--N", "3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("no solution: ")
        assert len(err.strip().splitlines()) == 1

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

    @pytest.mark.filterwarnings("ignore::sombrero.GridExtentWarning")
    def test_oracle_failure_exits_1(self, capsys):
        code, out, err = run_cli(["verify", *WORKED_FLAGS, "--grid", "20", "--rmax", "0.5"], capsys)
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
        assert "16" in err


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
        ],
    )
    def test_reported_in_one_line(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


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
        proc = run_module(["verify", *WORKED_FLAGS, "--grid", "20", "--rmax", "0.5"])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: V(r_max=0.5)")
        assert lines[1].startswith("oracle failed: ")
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
        # about a third of these couplings give a root whose rebuilt
        # potential misses the constraints: one "no solution" line, exit 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eta-mu", "--g", repr(10.0**log_g), "--N", str(n_dim)])
        assert code in (0, 1)
        assert len(err.getvalue().splitlines()) == (0 if out.getvalue() else 1)
