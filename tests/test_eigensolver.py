"""Radial eigensolver: calibration, invariants, and oracle-vs-closed-form."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from sombrero import (
    GridExtentWarning,
    PotentialParams,
    RadialGrid,
    TrialWavefunction,
    VerifyTolerances,
    ZeroModeSolution,
    derive_trial,
    discretize,
    eval_psi,
    groundstate,
    jackiw_solutions,
    params_from_lambda,
    solve_eta,
    trial_split,
    verify_solution,
)
from sombrero import _kernels, eigensolver
from conftest import random_potential


def weighted_similarity(result, w: TrialWavefunction) -> float:
    r = result.grid.points
    dr = result.grid.spacing
    weight = r ** (w.potential.n_dim - 1.0)
    psi = np.asarray(eval_psi(w, r))
    psi /= math.sqrt(float(np.sum(psi * psi * weight) * dr))
    return float(np.sum(psi * result.vector * weight) * dr)


class TestRadialGrid:
    def test_staggered_points(self):
        grid = RadialGrid.make(8.0, 16)
        assert grid.spacing == 0.5
        assert grid.points[0] == 0.25
        assert grid.points[-1] == 7.75
        assert np.all(np.diff(grid.points) > 0)
        assert np.all(grid.points > 0)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="16"):
            RadialGrid.make(8.0, 15)
        with pytest.raises(ValueError, match="r_max"):
            RadialGrid.make(0.0, 64)


class TestDiscretize:
    def test_operator_shape(self, worked_potential):
        grid = RadialGrid.make(8.0, 64)
        op = discretize(worked_potential, grid=grid)
        assert op.diag.shape == (64,)
        assert op.off_diag.shape == (63,)
        assert np.all(op.off_diag < 0)

    def test_warns_on_short_domain(self):
        grid = RadialGrid.make(math.pi, 64)
        with pytest.warns(GridExtentWarning):
            discretize(lambda r: 0.0 * r, grid=grid, n_dim=1)

    def test_confined_case_does_not_warn(self, worked_potential):
        grid = RadialGrid.make(8.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridExtentWarning)
            discretize(worked_potential, grid=grid)

    def test_extra_potential_shifts_diagonal(self, worked_potential):
        grid = RadialGrid.make(8.0, 64)
        plain = discretize(worked_potential, grid=grid)
        shifted = discretize(worked_potential, extra_potential=lambda r: np.ones_like(r), grid=grid)
        assert np.allclose(plain.diag - shifted.diag, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(plain.off_diag, shifted.off_diag)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_potential(self, bad):
        def v(r):
            return np.where(r > 3.0, bad, 0.5 * r * r)

        # first cell center past r = 3 on this grid: (24 + 1/2) * 8/64
        with pytest.raises(ValueError, match=r"not finite at r = 3\.0625"):
            groundstate(v, n_dim=3, r_max=8.0, n_points=64)

    def test_requires_grid_and_dimension(self, worked_potential):
        with pytest.raises(ValueError, match="RadialGrid"):
            discretize(worked_potential)
        with pytest.raises(ValueError, match="n_dim"):
            discretize(lambda r: 0.5 * r * r, grid=RadialGrid.make(8.0, 64))


class TestFreeParticleSmoke:
    def test_half_cell_mode_and_domain_growth(self):
        with pytest.warns(GridExtentWarning):
            small = groundstate(lambda r: 0.0 * r, n_dim=1, r_max=math.pi, n_points=500)
        with pytest.warns(GridExtentWarning):
            large = groundstate(lambda r: 0.0 * r, n_dim=1, r_max=2 * math.pi, n_points=500)
        # mixed boundary mode: E -> (1/2) (pi / (2 r_max))^2
        assert small.energy == pytest.approx(0.125, rel=2e-3)
        assert large.energy < small.energy
        assert small.energy / large.energy == pytest.approx(4.0, rel=2e-3)


class TestHarmonicCalibration:
    @pytest.mark.parametrize("n_dim", [1, 3, 9])
    def test_groundstate_energy(self, n_dim):
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0, n_points=2000)
        assert res.energy == pytest.approx(n_dim / 2.0, abs=1e-6)

    def test_second_order_convergence_and_extrapolation_gain(self):
        res = groundstate(lambda r: 0.5 * r * r, n_dim=3, r_max=12.0, n_points=250)
        e_coarse, e_fine = res.richardson_pair
        err_coarse = abs(e_coarse - 1.5)
        err_fine = abs(e_fine - 1.5)
        order = math.log2(err_coarse / err_fine)
        assert order >= 1.9
        assert abs(res.energy - 1.5) < err_fine < err_coarse


class TestZeroModeOracle:
    def test_reference_case_energy_and_vector(self, worked_potential):
        res = groundstate(worked_potential, r_max=8.0, n_points=2000)
        assert abs(res.energy) < 1e-6
        # nodeless positive vector, normalized under the radial weight
        assert np.all(res.vector >= 0.0)
        assert np.all(res.vector[res.grid.points < 5.0] > 0.0)
        r = res.grid.points
        total = float(np.sum(res.vector**2 * r**2) * res.grid.spacing)
        assert total == pytest.approx(1.0, abs=1e-12)
        sim = weighted_similarity(res, TrialWavefunction.from_potential(worked_potential))
        assert sim > 1.0 - 1e-6

    def test_jackiw_branch_energies(self):
        first, second = jackiw_solutions(3)
        res = groundstate(first.potential, r_max=8.0, n_points=2000)
        assert res.energy == pytest.approx(first.e0, abs=1e-6)
        res = groundstate(second.potential, r_max=8.0, n_points=2000)
        assert res.energy == pytest.approx(second.e0, abs=1e-6)

    def test_shifted_problem_matches_split(self):
        # with the correction h subtracted, psi is exact even when m != 0
        p = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
        split = trial_split(p, derive_trial(p))
        res = groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)
        assert res.energy == pytest.approx(2.5, abs=1e-6)
        sim = weighted_similarity(res, TrialWavefunction.from_potential(p))
        assert sim > 1.0 - 1e-6

    def test_randomized_oracle_vs_formula(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            p = random_potential(rng)
            split = trial_split(p, derive_trial(p))
            res = groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)
            assert res.energy == pytest.approx(split.e0, abs=1e-6)
            assert weighted_similarity(res, TrialWavefunction.from_potential(p)) > 1.0 - 1e-6


class TestDomainHandling:
    @pytest.mark.filterwarnings("ignore::sombrero.GridExtentWarning")
    def test_auto_extend_for_shallow_potential(self):
        res = groundstate(lambda r: 0.02 * r * r, n_dim=3, n_points=1000)
        assert res.grid.r_max > 8.0
        assert res.energy == pytest.approx(0.3, abs=1e-6)

    def test_auto_domain_accepts_confined_case(self, worked_potential):
        res = groundstate(worked_potential, n_points=1000)
        assert res.grid.r_max == 8.0
        assert abs(res.energy) < 1e-6

    @pytest.mark.filterwarnings("ignore::sombrero.GridExtentWarning")
    def test_unconfinable_raises(self):
        with pytest.raises(RuntimeError, match="drifting"):
            groundstate(lambda r: 1e-4 * r * r, n_dim=3, n_points=500)

    def test_unresolved_well_raises_grid_too_coarse(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridExtentWarning)
            with pytest.raises(RuntimeError, match="grid too coarse"):
                groundstate(lambda r: 1e6 * r * r, n_dim=3, r_max=8.0, n_points=16)

    def test_rejects_unconfined_params(self):
        p = PotentialParams(g=0.0, alpha=0.0, beta=1.0, bigA=1.0, n_dim=3)
        with pytest.raises(ValueError, match="g > 0"):
            groundstate(p)

    def test_callable_requires_dimension(self):
        with pytest.raises(ValueError, match="n_dim"):
            groundstate(lambda r: 0.5 * r * r)


class TestVerifySolution:
    def test_reference_case_passes(self, worked_potential):
        sol = ZeroModeSolution(potential=worked_potential, trial=derive_trial(worked_potential))
        report = verify_solution(sol, VerifyTolerances(r_max=8.0))
        assert report.passed
        assert report.failures == ()
        assert abs(report.oracle_energy) < 1e-6
        assert report.similarity > 1.0 - 1e-6
        assert report.max_residual < 1e-9
        assert abs(report.m_residual) < 1e-10

    def test_perturbed_beta_fails_with_flags(self, worked_potential):
        p = PotentialParams(
            g=worked_potential.g,
            alpha=worked_potential.alpha,
            beta=worked_potential.beta * 1.05,
            bigA=worked_potential.bigA,
            n_dim=3,
        )
        sol = ZeroModeSolution(potential=p, trial=derive_trial(p))
        report = verify_solution(sol, VerifyTolerances(r_max=8.0))
        assert not report.passed
        assert "oracle_energy_vs_e0" in report.failures
        assert "m_zero_residual" in report.failures
        assert abs(report.m_residual) > 1e-3


class TestStages:
    """Trial domains compare energies only; the eigenvector is computed
    once, on the domain the solve returns, from the same grids as before."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"inverse_iteration": 0, "discretize": []}
        inverse_iteration, discretize_ = _kernels.inverse_iteration, eigensolver.discretize

        def counted_inverse_iteration(*args):
            calls["inverse_iteration"] += 1
            return inverse_iteration(*args)

        def recorded_discretize(potential, extra_potential, grid, **kwargs):
            calls["discretize"].append((grid.r_max, grid.n_points))
            return discretize_(potential, extra_potential, grid, **kwargs)

        monkeypatch.setattr(_kernels, "inverse_iteration", counted_inverse_iteration)
        monkeypatch.setattr(eigensolver, "discretize", recorded_discretize)
        return calls

    def test_worked_case_auto_domain(self, worked_potential, calls):
        res = groundstate(worked_potential, n_points=2000)
        assert res.grid.r_max == 8.0
        assert calls["inverse_iteration"] == 1
        assert calls["discretize"] == [(8.0, 2000), (8.0, 4000), (10.0, 2000), (10.0, 4000)]

    @pytest.mark.filterwarnings("ignore::sombrero.GridExtentWarning")
    def test_three_domains(self, calls):
        # the g = 0.01 case of TestPinnedAnswers, which keeps the second of three domains
        (eta,) = solve_eta(1.5, 3)
        res = groundstate(params_from_lambda(0.01, 1.5, eta, 3).potential, n_points=2000)
        assert res.grid.r_max == 10.0
        assert calls["inverse_iteration"] == 1
        assert calls["discretize"] == [
            (8.0, 2000), (8.0, 4000), (10.0, 2000), (10.0, 4000), (12.5, 2000), (12.5, 4000),
        ]

    def test_explicit_domain(self, worked_potential, calls):
        groundstate(worked_potential, r_max=8.0, n_points=2000)
        assert calls["inverse_iteration"] == 1
        assert calls["discretize"] == [(8.0, 2000), (8.0, 4000)]

    @pytest.mark.parametrize("r_max", [8.0, None])
    def test_unconverged_vector_raises(self, worked_potential, monkeypatch, r_max):
        inverse_iteration = _kernels.inverse_iteration

        def unconverged(*args):
            vec, _ = inverse_iteration(*args)
            return vec, -1

        monkeypatch.setattr(_kernels, "inverse_iteration", unconverged)
        with pytest.raises(RuntimeError, match="^inverse iteration did not converge in 50 sweeps$"):
            groundstate(worked_potential, r_max=r_max, n_points=2000)


class TestPinnedAnswers:
    """Oracle answers frozen bit for bit: float.hex of the energy and the
    Richardson pair, sha256 of the vector's bytes.

    The eigenvalue and eigenvector kernels perform a fixed sequence of
    IEEE-754 operations, so a change that only makes them faster must
    leave these unchanged.  The pins also cover numpy's elementwise
    power/exp in discretize and the potential; they were recorded with
    Python 3.11 and numpy 2.4 on x86-64, and a numpy build whose
    transcendental functions round differently would move them.
    """

    @staticmethod
    def assert_pinned(res, energy, pair, vector_sha256, r_max):
        assert res.energy.hex() == energy
        assert tuple(x.hex() for x in res.richardson_pair) == pair
        assert hashlib.sha256(res.vector.tobytes()).hexdigest() == vector_sha256
        assert res.grid.r_max == r_max

    def test_worked_case(self, worked_potential):
        self.assert_pinned(
            groundstate(worked_potential, r_max=8.0, n_points=2000),
            "0x1.81f74c18aaaabp-35",
            ("-0x1.189e4aafabf1ep-16", "-0x1.189db9f2ef68ap-18"),
            "87840243d80a48b70c0951ed599a1aafde9d8b3a5434bbbf3837cc90480409f0",
            8.0,
        )

    @pytest.mark.filterwarnings("ignore::sombrero.GridExtentWarning")
    def test_auto_domain_three_domains(self):
        # g = 0.01: the energy still moves from r_max 8 to 10, settles
        # from 10 to 12.5, so the solve tries three domains and keeps 10
        (eta,) = solve_eta(1.5, 3)
        sol = params_from_lambda(0.01, 1.5, eta, 3)
        self.assert_pinned(
            groundstate(sol.potential, n_points=2000),
            "0x1.f63a87d34aaabp-40",
            ("-0x1.76252972d14c7p-23", "-0x1.7622381b058f8p-25"),
            "7f46662131fa6c7a55e8b4bda5e9235be080a9ced04af47f6640d23e7957a2ab",
            10.0,
        )

    def test_callable_extra_potential(self):
        p = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
        split = trial_split(p, derive_trial(p))
        self.assert_pinned(
            groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000),
            "0x1.3fffffffff241p+1",
            ("0x1.3fffe693dc75cp+1", "0x1.3ffff9a4f6788p+1"),
            "48228c57998fe0e3cb4067f07997a217f1adbb2f8aae583deb4d55d0f8c62c92",
            8.0,
        )

    def test_one_dimensional_harmonic_oscillator(self):
        self.assert_pinned(
            groundstate(lambda r: 0.5 * r * r, n_dim=1, r_max=12.0, n_points=2000),
            "0x1.fffffffff2ab5p-2",
            ("0x1.ffffb4809181ap-2", "0x1.ffffed201a60fp-2"),
            "b05e4448f40503edc94d88049a3635a6600f166ed184d5c60768685dd4b6bf24",
            12.0,
        )
