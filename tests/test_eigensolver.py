"""Radial eigensolver: calibration, invariants, and oracle-vs-closed-form."""

import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sombrero import (
    GridExtentWarning,
    PotentialParams,
    RadialGrid,
    TrialWavefunction,
    ZeroModeSolution,
    derive_trial,
    discretize,
    eval_psi,
    groundstate,
    jackiw_solutions,
    params_from_lambda,
    solve_eta,
    solve_eta_mu,
    trial_split,
    verify_solution,
)
from sombrero import _kernels, eigensolver
from conftest import SQRT3, log_walks, loop_eigenvector, random_potential


# |E - truth| <= ESTIMATE_FACTOR * error_estimate on closed-form cases;
# measured worst ratios: 0.50 on the oscillators N = 1..9, 1.16 over 440
# identity draws (400 of default_rng(16), 40 of default_rng(61)); see the
# README
ESTIMATE_FACTOR = 1.25


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

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
    def test_warning_threshold_is_unit_free(self, s):
        # V = r^2 / (2 s^4) is the unit oscillator with r -> r / s; the
        # threshold 10 / r_max^2 is crossed at r_max = 20^(1/4) s = 2.115 s
        def v(r):
            return 0.5 * r * r / s**4

        with pytest.warns(GridExtentWarning):
            discretize(v, grid=RadialGrid.make(2.0 * s, 64), n_dim=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridExtentWarning)
            discretize(v, grid=RadialGrid.make(2.3 * s, 64), n_dim=3)

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

        # first cell center past r = 3 on the ladder's first, 32-cell
        # grid: (12 + 1/2) * 8/32
        with pytest.raises(ValueError, match=r"not finite at r = 3\.125"):
            groundstate(v, n_dim=3, r_max=8.0, n_points=256)

    def test_rejects_a_domain_without_an_energy_unit(self):
        # on r_max = 1e200, 2 dr^2 overflows, so the kinetic terms are 0 and
        # the operator is finite, but r_max^2 overflows too: discretize
        # raises groundstate's ValueError for such an r_max
        with pytest.raises(ValueError, match=r"^r_max must have a finite, nonzero 1/r_max\^2, got 1e\+200$"):
            discretize(lambda r: 0.0 * r, grid=RadialGrid.make(1e200, 16), n_dim=1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n_dim=st.integers(1, 5000),
        r_max=st.one_of(st.sampled_from([1e-300, 1e150]), st.floats(-300.0, 150.0).map(lambda x: 10.0**x)),
        n=st.sampled_from([16, 128, 8000]),
    )
    def test_returns_only_what_the_kernels_take(self, n_dim, r_max, n):
        # a finite diag and off * off, or a ValueError naming a radius,
        # with no overflow escaping as a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", GridExtentWarning)
            try:
                op = discretize(lambda r: 0.5 * r * r, grid=RadialGrid.make(r_max, n), n_dim=n_dim)
            except ValueError as exc:
                assert re.search(r"not finite at r = \d", str(exc)), exc
                return
        with np.errstate(over="ignore"):
            assert np.isfinite(op.diag).all() and np.isfinite(op.off_diag * op.off_diag).all()

    def test_requires_grid_and_dimension(self, worked_potential):
        with pytest.raises(ValueError, match="RadialGrid"):
            discretize(worked_potential)
        with pytest.raises(ValueError, match="n_dim"):
            discretize(lambda r: 0.5 * r * r, grid=RadialGrid.make(8.0, 64))

    @pytest.mark.parametrize("n_dim", [0, -1, 2.5, "3"])
    def test_callable_takes_the_dimension_rule_of_potential_params(self, n_dim):
        message = f"n_dim must be an integer >= 1, got {n_dim}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=n_dim)
        with pytest.raises(ValueError, match=re.escape(message)):
            discretize(lambda r: 0.5 * r * r, grid=RadialGrid.make(8.0, 64), n_dim=n_dim)
        with pytest.raises(ValueError, match=re.escape(message)):
            groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=10.0, n_points=512)


class TestFreeParticleSmoke:
    def test_half_cell_mode_and_domain_growth(self):
        with pytest.warns(GridExtentWarning):
            small = groundstate(lambda r: 0.0 * r, n_dim=1, r_max=math.pi, n_points=512)
        with pytest.warns(GridExtentWarning):
            large = groundstate(lambda r: 0.0 * r, n_dim=1, r_max=2 * math.pi, n_points=512)
        # mixed boundary mode: E -> (1/2) (pi / (2 r_max))^2
        assert small.energy == pytest.approx(0.125, rel=2e-3)
        assert large.energy < small.energy
        assert small.energy / large.energy == pytest.approx(4.0, rel=2e-3)


class TestHarmonicCalibration:
    @pytest.mark.parametrize("n_dim", [1, 3, 9])
    def test_groundstate_energy(self, n_dim):
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0, n_points=2000)
        assert res.energy == pytest.approx(n_dim / 2.0, abs=1e-6)

    @pytest.mark.parametrize("n_dim", range(1, 10))
    def test_grid_ladder_meets_its_target(self, n_dim):
        # target 1e-8 / r_max^2 = 6.9e-11 on the estimate of the error
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0)
        assert abs(res.energy - n_dim / 2.0) <= 1e-9

    @staticmethod
    def ladder_estimate(raw, r_max, n_points=eigensolver.DEFAULT_GRID_POINTS):
        """E2_k and its error estimate, recomputed from the raw eigenvalues
        of a ladder capped at n_points that never restarts."""
        first = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(raw, raw[1:])]
        second = [(16.0 * fine - coarse) / 15.0 for coarse, fine in zip(first, first[1:])]
        n = eigensolver._ladder(n_points)[len(raw) - 1]
        unit = 1.0 / r_max**2
        bisect_tol = eigensolver._LADDER_TARGET * unit / 100.0
        floor = bisect_tol + eigensolver._ROUNDOFF * n * n * unit
        return second[-1], abs(second[-1] - second[-2]) / 31.0 + floor

    @pytest.mark.parametrize("n_dim", [1, 3, 9])
    def test_error_estimate_is_the_ladders_own(self, n_dim, monkeypatch):
        raw = []
        smallest_eigenvalue = _kernels.smallest_eigenvalue

        def recorded(*args):
            raw.append(smallest_eigenvalue(*args))
            return raw[-1]

        monkeypatch.setattr(_kernels, "smallest_eigenvalue", recorded)
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0)
        assert (res.energy, res.error_estimate) == self.ladder_estimate(raw, 12.0)
        assert res.error_estimate <= 1e-8 / 12.0**2
        # an explicit grid caps the same ladder, so it has an estimate too:
        # 1000 cells give four levels, 125, 250, 500 and 1000
        raw.clear()
        capped = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0, n_points=1000)
        assert len(raw) == 4
        assert (capped.energy, capped.error_estimate) == self.ladder_estimate(raw, 12.0, 1000)
        assert math.isfinite(capped.error_estimate) and capped.error_estimate > 0.0

    @pytest.mark.parametrize("n_dim", range(1, 10))
    def test_error_estimate_against_truth(self, n_dim):
        # measured |E - N/2| / error_estimate: 0.08 to 0.50 for N = 1..9
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0, n_points=2000)
        assert abs(res.energy - n_dim / 2.0) / res.error_estimate <= ESTIMATE_FACTOR

    @pytest.mark.parametrize("n_dim", range(1, 10))
    def test_default_ladder_estimate_against_truth(self, n_dim):
        # the default ladder, 32 cells up to the 8192-cell cap, stops at 512
        # to 2048 cells; measured |E - N/2| / error_estimate: 0.32 to 0.50
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0)
        assert abs(res.energy - n_dim / 2.0) <= ESTIMATE_FACTOR * res.error_estimate

    def test_second_order_convergence_and_extrapolation_gain(self):
        res = groundstate(lambda r: 0.5 * r * r, n_dim=3, r_max=12.0, n_points=512)
        e_coarse, e_fine = res.richardson_pair
        err_coarse = abs(e_coarse - 1.5)
        err_fine = abs(e_fine - 1.5)
        order = math.log2(err_coarse / err_fine)
        assert order >= 1.9
        assert abs(res.energy - 1.5) < err_fine < err_coarse


class TestZeroModeOracle:
    def test_reference_case_energy_and_vector(self, worked_potential, monkeypatch):
        calls = []
        smallest_eigenvalue = _kernels.smallest_eigenvalue

        def recorded(d, e, abs_tol, estimate):
            calls.append((d, e, abs_tol, smallest_eigenvalue(d, e, abs_tol, estimate)))
            return calls[-1][-1]

        monkeypatch.setattr(_kernels, "smallest_eigenvalue", recorded)
        res = groundstate(worked_potential, r_max=8.0, n_points=2000)
        assert abs(res.energy) < 1e-6
        # nodeless vector, normalized under the radial weight: the leading
        # block's, which leaves out entries below about e^-R =
        # sqrt(abs_tol / (64 max|e|)) of the peak, so it is positive
        # wherever the full walk's vector on the finest level (the loop
        # reference cuts no row) lies above that, here for r < 2.94, and
        # 0 from r = 3.0 on
        d, e, abs_tol, sigma = calls[-1]
        full = loop_eigenvector(d, e, sigma, abs_tol)
        above = full > math.sqrt(abs_tol / (64.0 * float(np.max(np.abs(e))))) * full.max()
        assert np.all(res.vector >= 0.0)
        assert np.all(res.vector[above] > 0.0)
        assert res.grid.points[above].max() > 2.5
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

    def test_error_estimate_against_e0(self):
        # the estimate includes the bisection's tolerance and the
        # eigenvalue's round-off, so it bounds the error on its own:
        # |E - e0| / error_estimate is at most 0.98 on these 40 draws
        # and 1.01 on the benchmark's seed-7 identity deck
        rng = np.random.default_rng(61)
        for _ in range(40):
            p = random_potential(rng)
            split = trial_split(p, derive_trial(p))
            res = groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)
            assert abs(res.energy - split.e0) / res.error_estimate <= ESTIMATE_FACTOR

    def test_randomized_oracle_vs_formula(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            p = random_potential(rng)
            split = trial_split(p, derive_trial(p))
            res = groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)
            assert res.energy == pytest.approx(split.e0, abs=1e-6)
            assert weighted_similarity(res, TrialWavefunction.from_potential(p)) > 1.0 - 1e-6


class TestDomainHandling:
    def test_callable_requires_domain(self):
        with pytest.raises(ValueError, match="r_max"):
            groundstate(lambda r: 0.02 * r * r, n_dim=3, n_points=1000)

    def test_auto_domain_accepts_confined_case(self, worked_potential):
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridExtentWarning)
            res = groundstate(worked_potential, n_points=1000)
        assert abs(res.energy) < 1e-6

    @pytest.mark.parametrize("g", [1e-6, 1e-4])
    def test_auto_domain_at_small_g_does_not_warn(self, g):
        # an energy scale floored at 1 made every such domain warn
        (eta,) = solve_eta(1.5, 3)
        p = params_from_lambda(g, 1.5, eta, 3).potential
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridExtentWarning)
            groundstate(p, n_points=512)

    @pytest.mark.parametrize("g", [1e-3, 1.5, 2e4])
    def test_wider_domain_leaves_energy_unchanged(self, g):
        # the wall sits where psi has decayed by e^-40: moving it out by a
        # quarter, at the same spacing, must not move the energy, in units
        # of the domain's own kinetic scale 1 / r_max^2
        (eta,) = solve_eta(1.5, 3)
        p = params_from_lambda(g, 1.5, eta, 3).potential
        # four-level ladders (160 to 1280 and 200 to 1600 cells) both end
        # at their caps
        auto = groundstate(p, n_points=1280)
        r_max = auto.grid.r_max
        wide = groundstate(p, r_max=1.25 * r_max, n_points=1600)
        assert wide.grid.spacing == pytest.approx(auto.grid.spacing, rel=1e-12)
        assert abs(wide.energy - auto.energy) * r_max**2 < 1e-8

    def test_domain_grows_with_dimension(self, worked_potential):
        # a larger N raises the energy bound, which moves the turning point out
        radii = [
            eigensolver._domain_radius(dataclasses.replace(worked_potential, n_dim=n)) for n in range(1, 10)
        ]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_unconfinable_raises(self):
        # g^2 underflows, so V samples as 0 everywhere on (0, 8 g^-1/4]
        p = PotentialParams(g=1e-300, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
        with pytest.raises(RuntimeError, match="does not confine"):
            groundstate(p, n_points=512)

    def test_unresolved_well_raises_grid_too_coarse(self):
        # capped at 128 cells, the finest pair (64 and 128 cells) reads
        # 4034 and 1485, further apart than the coarser grid's 1/dr^2 = 64
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridExtentWarning)
            with pytest.raises(RuntimeError, match="grid too coarse"):
                groundstate(lambda r: 1e6 * r * r, n_dim=3, r_max=8.0, n_points=128)

    def test_unresolved_well_restarts_on_the_grid_ladder(self, monkeypatch):
        # V = 1e8 r^2, E = 1.5 sqrt(2e8): every pair up to the one of 512
        # and 1024 cells is too coarse, so the extrapolation starts over
        # from the finer level each time, and only a too-coarse finest
        # pair would raise
        raw = []
        smallest_eigenvalue = _kernels.smallest_eigenvalue

        def recorded(*args):
            raw.append(smallest_eigenvalue(*args))
            return raw[-1]

        monkeypatch.setattr(_kernels, "smallest_eigenvalue", recorded)
        unit = 1.0 / 8.0**2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridExtentWarning)
            # four levels from 1024 cells on: the estimate, 0.11, bounds the
            # error, 0.082, and is far above the tolerance 1e-6 / r_max^2
            res = groundstate(lambda r: 1e8 * r * r, n_dim=3, r_max=8.0)
            assert res.grid.n_points == 8192
            assert abs(res.energy - 1.5 * math.sqrt(2e8)) <= res.error_estimate
            assert res.error_estimate > eigensolver.TOL_ENERGY * unit
            # capped at 2000 cells, one pair is left after the restart: the
            # energy is its E_k, and the estimate counts the size of that
            # Richardson correction
            raw.clear()
            res = groundstate(lambda r: 1e8 * r * r, n_dim=3, r_max=8.0, n_points=2000)
        coarse, fine = raw[-2:]
        energy = (4.0 * fine - coarse) / 3.0
        floor = eigensolver._LADDER_TARGET * unit / 100.0 + eigensolver._ROUNDOFF * 2000 * 2000 * unit
        assert res.energy == energy
        assert res.error_estimate == abs(energy - fine) + floor
        assert abs(res.energy - 1.5 * math.sqrt(2e8)) <= res.error_estimate

    def test_rejects_unconfined_params(self):
        p = PotentialParams(g=0.0, alpha=0.0, beta=1.0, bigA=1.0, n_dim=3)
        with pytest.raises(ValueError, match="g > 0"):
            groundstate(p)

    def test_callable_requires_dimension(self):
        with pytest.raises(ValueError, match="n_dim"):
            groundstate(lambda r: 0.5 * r * r)

    @pytest.mark.parametrize("r_max", [1e200, 1e-300, -1e200, math.nan])
    def test_rejects_a_domain_without_an_energy_unit(self, worked_potential, r_max):
        # 1/r_max^2 is 0 or infinite, or r_max^2 overflows
        with pytest.raises(ValueError, match="^r_max must have a finite, nonzero 1/r_max\\^2"):
            groundstate(worked_potential, r_max=r_max)


class TestVerifySolution:
    def test_reference_case_passes(self, worked_potential):
        sol = ZeroModeSolution(potential=worked_potential, trial=derive_trial(worked_potential))
        report = verify_solution(sol, r_max=8.0)
        assert report.passed
        assert report.failures == ()
        assert abs(report.oracle_energy) < 1e-6
        assert report.similarity > 1.0 - 1e-6
        assert report.max_residual < 1e-9
        assert abs(report.m_residual) < 1e-10

    def test_unresolved_oracle_is_not_a_wrong_claim(self):
        # g = 1e5, N = 3 meets both constraints (its e0, -3.3e-6, is what
        # rounding leaves of terms near 1e5), but at the 8192-cell cap the
        # ladder's own error estimate, 1.9e-3, is above the tolerance
        # 1e-6 / r_max^2 = 7.5e-7: the verdict names the oracle
        sol = solve_eta_mu(1e5, 3)
        report = verify_solution(sol)
        assert not report.passed
        assert report.failures == ("oracle_unresolved",)
        assert report.energy_error > eigensolver.TOL_ENERGY / eigensolver._domain_radius(sol.potential) ** 2
        assert report.similarity > 1.0 - eigensolver.TOL_SIMILARITY

    @pytest.mark.parametrize("n_dim", [49, 60, 200, 500])
    def test_high_dimension_passes(self, n_dim):
        # r^(N-1) underflows near r = 0 from N = 49 on, and overflows near
        # r_max from about N = 500; the operator only raises ratios of
        # radii to that power, the vector's entries that underflow there
        # too (from about N = 200 on) stay zero in psi, and the similarity
        # is taken from log amplitudes
        sol = params_from_lambda(1.5, 1.5, solve_eta(1.5, n_dim)[0], n_dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # the extent check weighs V(r_max) without the centrifugal term
            # that confines the state at high N, so it warns at N = 300 and
            # 500 on domains whose solves pass (ROADMAP item 6)
            warnings.simplefilter("ignore", GridExtentWarning)
            report = verify_solution(sol)
        assert report.passed
        assert report.failures == ()

    @pytest.mark.parametrize("n_dim", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("g", [1e-3, 1e-2, 1.0, 1e2, 2e4])
    def test_lambda_family_passes_on_the_default_ladder(self, g, n_dim, monkeypatch):
        # the lambda = 1.5 family is scale covariant in g, so every g takes
        # the steps g = 1 takes: the ladder 32, 64, 128 and 256 cells for
        # N = 1, 2 and 3, whose estimate is 0.82 to 0.96 of the target, and
        # on to 512 cells for N = 5 and 9 (at most 0.11 of it); measured
        # |E - e0| / error_estimate: at most 0.475
        solves = []
        groundstate_ = eigensolver.groundstate

        def recorded(*args, **kwargs):
            solves.append(groundstate_(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(eigensolver, "groundstate", recorded)
        report = verify_solution(params_from_lambda(g, 1.5, solve_eta(1.5, n_dim)[0], n_dim))
        assert report.passed
        assert report.failures == ()
        assert [res.grid.n_points for res in solves] == [256 if n_dim <= 3 else 512]
        assert report.energy_error <= ESTIMATE_FACTOR * solves[0].error_estimate

    def test_dimension_500_normalizes_without_overflow(self):
        # r^(N-1) overflows on this domain (r_max = 5.54), so psi is
        # normalized from the unit vector's own squares
        sol = params_from_lambda(1.5, 1.5, solve_eta(1.5, 500)[0], 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", GridExtentWarning)
            res = groundstate(sol.potential)
        r, dr = res.grid.points, res.grid.spacing
        assert abs(res.energy) < eigensolver.TOL_ENERGY / res.grid.r_max**2
        assert np.all(np.isfinite(res.vector)) and res.vector.min() >= 0.0
        assert math.fsum((res.vector * r**249.5) ** 2) * dr == pytest.approx(1.0, rel=1e-12)

    def test_perturbed_beta_fails_with_flags(self, worked_potential):
        p = PotentialParams(
            g=worked_potential.g,
            alpha=worked_potential.alpha,
            beta=worked_potential.beta * 1.05,
            bigA=worked_potential.bigA,
            n_dim=3,
        )
        sol = ZeroModeSolution(potential=p, trial=derive_trial(p))
        report = verify_solution(sol, r_max=8.0)
        assert not report.passed
        assert "oracle_energy_vs_e0" in report.failures
        assert "m_zero_residual" in report.failures
        assert abs(report.m_residual) > 1e-3


class TestScaleCovariance:
    """r -> s r, g -> g s^-4, alpha -> alpha s^2, beta -> beta s^4 and
    A -> A s^2 map the family onto itself with E -> E s^-2, so the
    oracle's domain, energy and verdict must follow."""

    @staticmethod
    def rescaled(p, s):
        return dataclasses.replace(p, g=p.g * s**-4, alpha=p.alpha * s**2, beta=p.beta * s**4, bigA=p.bigA * s**2)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        s=st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
        n_dim=st.integers(1, 9),
        lambda_=st.floats(1.0, 10.0, exclude_min=True),
    )
    def test_rescaled_family(self, s, n_dim, lambda_):
        roots = solve_eta(lambda_, n_dim)
        assume(roots)
        base = params_from_lambda(1.5, lambda_, roots[0], n_dim).potential
        scaled = self.rescaled(base, s)
        assert eigensolver._domain_radius(scaled) == pytest.approx(
            s * eigensolver._domain_radius(base), rel=1e-12
        )

        def outcome(p):
            try:
                return verify_solution(ZeroModeSolution(potential=p, trial=derive_trial(p)))
            except RuntimeError as exc:  # such as "grid too coarse" for a root near lambda = 1
                return exc

        with warnings.catch_warnings():
            warnings.simplefilter("error", GridExtentWarning)
            one, other = outcome(base), outcome(scaled)
        assert isinstance(one, RuntimeError) == isinstance(other, RuntimeError)
        if isinstance(one, RuntimeError):
            return
        assert abs(other.oracle_energy * s * s - one.oracle_energy) <= 1e-9
        assert other.passed == one.passed
        assert other.failures == one.failures

    @pytest.mark.parametrize("s", [0.1, 0.3, 1.0, 10.0])
    def test_rescaled_eta_mu_passes(self, s):
        # |E - e0| s^2 is 9.0e-8 to 9.7e-8 at every scale, below the
        # tolerance 1e-6 / r_max^2 = 5.8e-7 s^-2
        p = self.rescaled(solve_eta_mu(1000.0, 3).potential, s)
        report = verify_solution(ZeroModeSolution(potential=p, trial=derive_trial(p)))
        assert report.passed
        assert report.failures == ()


class TestPowerOfTwoScale:
    """Under r -> s r with s = 2^k every step of the oracle is exact in
    binary floating point: the family's coefficients, the domain, the
    radii, the operator and the bisection's tolerance all scale by powers
    of two, and the tail's reach is a ratio of the matrix's own scale to
    the tolerance.  So the answers are the same bits: the energy, the
    Richardson pair and the error estimate times s^2, r_max times s, the
    same ladder levels and the same oracle failures, and the same whole
    verdict wherever the claim's closed-form e0 scales exactly too.  The
    kernels' unit vector is the same bits; psi is that vector over its
    r^((N-1)/2) scale, which need not round exactly, so psi s^(N/2)
    matches to rounding."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(-30, 30),
        n_dim=st.integers(1, 9),
        lambda_=st.floats(1.0, 10.0, exclude_min=True),
    )
    # the reach took max(|e|, 1), a constant in absolute units, and moved
    # this solve's energy by 0.015 of its estimate
    @example(k=16, n_dim=3, lambda_=1.5)
    def test_rescaled_family_same_bits(self, k, n_dim, lambda_):
        roots = solve_eta(lambda_, n_dim)
        assume(roots)
        s = 2.0**k
        base = params_from_lambda(1.5, lambda_, roots[0], n_dim).potential

        def outcome(p):
            """verify's report (or RuntimeError), each level's cells and
            eigenvalue, and the solve and the kernels' unit vector behind it."""
            raw, solves, vectors = [], [], []
            smallest_eigenvalue, groundstate_, eigenvector = (
                _kernels.smallest_eigenvalue, eigensolver.groundstate, _kernels.eigenvector)

            def bisection(*args):
                raw.append((len(args[0]), smallest_eigenvalue(*args)))
                return raw[-1][1]

            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                warnings.simplefilter("ignore", GridExtentWarning)
                mp.setattr(_kernels, "smallest_eigenvalue", bisection)
                mp.setattr(eigensolver, "groundstate", lambda *a, **kw: solves.append(groundstate_(*a, **kw)) or solves[-1])
                mp.setattr(_kernels, "eigenvector", lambda *a: vectors.append(eigenvector(*a)) or vectors[-1])
                try:
                    report = verify_solution(ZeroModeSolution(potential=p, trial=derive_trial(p)))
                except RuntimeError:  # such as "grid too coarse" for a root near lambda = 1
                    report = RuntimeError
            return report, raw, solves, vectors

        one, raw, solves, vectors = outcome(base)
        other, scaled_raw, scaled_solves, scaled_vectors = outcome(TestScaleCovariance.rescaled(base, s))
        assert [(n, (x * s * s).hex()) for n, x in scaled_raw] == [(n, x.hex()) for n, x in raw]
        if one is RuntimeError:
            assert other is RuntimeError
            return
        (res,), (scaled,) = solves, scaled_solves
        assert (scaled.grid.r_max / s).hex() == res.grid.r_max.hex()
        assert scaled.grid.n_points == res.grid.n_points
        for a, b in ((scaled.energy, res.energy), (scaled.error_estimate, res.error_estimate),
                     *zip(scaled.richardson_pair, res.richardson_pair)):
            assert (a * s * s).hex() == b.hex()
        assert scaled_vectors[0].tobytes() == vectors[0].tobytes()
        psi = scaled.vector * s ** (n_dim / 2.0)
        assert np.max(np.abs(psi - res.vector)) <= 1e-13 * np.max(np.abs(res.vector))
        oracle = {"oracle_unresolved", "eigenvector_similarity"}
        assert oracle & set(other.failures) == oracle & set(one.failures)
        # the closed-form e0 is the claim's, not the oracle's: its m terms
        # hold the trial's absolute length 1 in 1 / (r^2 + 1), so where m
        # is rounding noise e0 s^2 can miss the unscaled e0, and the
        # energy comparison with it (k = -14, N = 1, lambda = 2)
        if (other.closed_form_e0 * s * s).hex() == one.closed_form_e0.hex():
            assert (other.passed, other.failures) == (one.passed, one.failures)


class TestStages:
    """One domain per solve: one bisection per grid level and one eigenvector."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # "levels": the cells of each bisection's matrix, one per ladder
        # level; "built": (r_max, cells) of each operator built, and
        # "discretize": (r_max, cells) of each grid discretize gets
        calls = {"eigenvector": 0, "vector_size": None, "levels": [], "built": [], "discretize": []}
        eigenvector, smallest_eigenvalue = _kernels.eigenvector, _kernels.smallest_eigenvalue
        operators, discretize_ = eigensolver._operators, eigensolver.discretize

        def counted_eigenvector(*args):
            calls["eigenvector"] += 1
            vector = eigenvector(*args)
            calls["vector_size"] = vector.size
            return vector

        def recorded_bisection(*args):
            calls["levels"].append(len(args[0]))
            return smallest_eigenvalue(*args)

        def recorded_operators(v_at, extra_potential, r_max, ndim, sizes):
            calls["built"] += [(r_max, n) for n in sizes]
            return operators(v_at, extra_potential, r_max, ndim, sizes)

        def recorded_discretize(potential, extra_potential, grid, **kwargs):
            calls["discretize"].append((grid.r_max, grid.n_points))
            return discretize_(potential, extra_potential, grid, **kwargs)

        monkeypatch.setattr(_kernels, "eigenvector", counted_eigenvector)
        monkeypatch.setattr(_kernels, "smallest_eigenvalue", recorded_bisection)
        monkeypatch.setattr(eigensolver, "_operators", recorded_operators)
        monkeypatch.setattr(eigensolver, "discretize", recorded_discretize)
        return calls

    @pytest.mark.parametrize("g", [1.5, 0.01])
    def test_auto_domain(self, g, calls):
        # g = 1.5 is the worked case; r_max scales as g^(-1/4) along the family
        (eta,) = solve_eta(1.5, 3)
        res = groundstate(params_from_lambda(g, 1.5, eta, 3).potential, n_points=2000)
        r_max = res.grid.r_max
        assert r_max == pytest.approx(3.4622492 * (1.5 / g) ** 0.25, rel=1e-7)
        assert calls["eigenvector"] == 1
        # an explicit grid caps the ladder, which meets its target at 1000
        # cells, below the 2000-cell cap; the vector is on the last level
        assert calls["levels"] == [125, 250, 500, 1000]
        assert calls["vector_size"] == 1000
        # every level on the one domain, the first through discretize
        assert calls["built"] == [(r_max, 125), (r_max, 250), (r_max, 500), (r_max, 1000)]
        assert calls["discretize"] == [(r_max, 125)]

    @pytest.mark.parametrize("g", [1.5, 0.01])
    def test_grid_ladder_on_auto_domain(self, g, calls):
        # the target scales like the energy, so every member of the family
        # stops at the level where the worked case does
        (eta,) = solve_eta(1.5, 3)
        res = groundstate(params_from_lambda(g, 1.5, eta, 3).potential)
        r_max = res.grid.r_max
        assert calls["levels"] == [32, 64, 128, 256]
        assert calls["built"] == [(r_max, 32), (r_max, 64), (r_max, 128), (r_max, 256)]
        assert calls["discretize"] == [(r_max, 32)]
        assert calls["eigenvector"] == 1
        assert calls["vector_size"] == 256
        assert res.grid.n_points == 256

    def test_unmet_target_stops_at_the_cap(self, worked_potential, calls, monkeypatch):
        monkeypatch.setattr(eigensolver, "_LADDER_TARGET", 1e-30)
        res = groundstate(worked_potential, r_max=8.0)
        assert calls["levels"] == [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
        assert calls["built"] == [(8.0, n) for n in calls["levels"]]
        assert calls["discretize"] == [(8.0, 32)]
        assert calls["vector_size"] == 8192
        assert res.grid.n_points == 8192
        assert abs(res.energy) < 1e-8

    def test_aimed_bisection_probe_counts(self, worked_potential, monkeypatch):
        # counts, not timings: (Sturm probes, gamma_k walks) per ladder
        # level.  Without the secant aim the levels took 51 (cold, 250
        # cells), 45 (500 cells, where the estimate from the 250-cell
        # eigenvalue misses) and 25 probes; probing just either side of
        # the estimate, 27, 7 and 7 (35, 6, 6 and 6 on r_max = 8 up to
        # 2000 cells); probing the ends of the bracket the bisection will
        # end in, 23, 2 and 3 (30, 2, 3 and 3).  The ladder from 125 cells
        # stops at 1000 on both domains.  With the bracket's top at min(d)
        # and probes at the secant's root -+ 0.4 abs_tol first, the cold
        # level takes 20 probes on both domains (21 and 30 with
        # Gershgorin's upper end and the replayed final bracket).  The
        # default ladder, from 32 cells, stops at 256 on the automatic
        # domain, and its cold level takes 16 probes
        counts = []
        pivot_below, twisted_gap = _kernels._pivot_below, _kernels._twisted_gap
        smallest_eigenvalue = _kernels.smallest_eigenvalue

        def counted_pivot_below(*args):
            counts[-1][0] += 1
            return pivot_below(*args)

        def counted_twisted_gap(*args, **kwargs):
            counts[-1][1] += 1
            return twisted_gap(*args, **kwargs)

        def per_level(*args):
            counts.append([0, 0])
            return smallest_eigenvalue(*args)

        monkeypatch.setattr(_kernels, "_pivot_below", counted_pivot_below)
        monkeypatch.setattr(_kernels, "_twisted_gap", counted_twisted_gap)
        monkeypatch.setattr(_kernels, "smallest_eigenvalue", per_level)
        assert groundstate(worked_potential).grid.n_points == 256
        assert counts == [[16, 4], [2, 5], [2, 3], [2, 3]]
        counts.clear()
        assert groundstate(worked_potential, r_max=8.0, n_points=2000).grid.n_points == 1000
        assert counts == [[20, 4], [2, 5], [2, 3], [2, 3]]

    def test_aimed_bisection_rows_walked(self, worked_potential, monkeypatch):
        # counts, not timings: (rows the Sturm probes walk, rows the gamma_k
        # walks take) per ladder level, for the probes counted above.
        # Every walk of a level stops at the one leading block the level
        # cuts: the cold level's at min(d), each later level's a secant
        # spread above its estimate
        log = log_walks(monkeypatch)
        starts = []
        smallest_eigenvalue = _kernels.smallest_eigenvalue

        def per_level(*args):
            starts.append(len(log))
            return smallest_eigenvalue(*args)

        def rows_per_level():
            ends = starts[1:] + [len(log)]
            levels = [log[a:b] for a, b in zip(starts, ends)]
            log.clear()
            starts.clear()
            return [[sum(r for kind, r in level if kind in ("yes", "no")), sum(r for kind, r in level if kind == "gamma")]
                    for level in levels]

        monkeypatch.setattr(_kernels, "smallest_eigenvalue", per_level)
        groundstate(worked_potential)
        assert rows_per_level() == [[348, 116], [106, 270], [211, 324], [425, 657]]
        groundstate(worked_potential, r_max=8.0, n_points=2000)
        assert rows_per_level() == [[733, 212], [181, 460], [362, 558], [725, 1125]]

    def test_vector_rows_walked(self, worked_potential, monkeypatch):
        # counts, not timings: the rows of the eigenvector's top-down and
        # bottom-up pivot walks on the finest level.  Over the whole
        # matrix both walks took 1000 rows on either domain; over the
        # leading block found a tolerance above the eigenvalue they stop
        # at r = 3.0 on r_max = 8, and short of the automatic domain's wall
        # (867 of 1000 rows there, on the ladder that ran from 125 cells).
        # Both walks ran over that whole block, 442 and 376 rows each; the
        # twist at the aim's k walks rows 0..k-1 and s..k+1 of the
        # bisection's block, which holds as many rows
        log = log_walks(monkeypatch)
        assert groundstate(worked_potential).grid.n_points == 256
        assert [rows for kind, rows in log if kind == "vector"] == [101, 118]
        log.clear()
        assert groundstate(worked_potential, r_max=8.0, n_points=2000).grid.n_points == 1000
        assert [rows for kind, rows in log if kind == "vector"] == [172, 203]

    def test_one_set_up_per_warm_level(self, worked_potential, monkeypatch):
        # counts of _matrix, _tail and _rows calls per ladder level, the
        # eigenvector's with the finest level's: the finest level sets its
        # matrix up once for its eigenvalue and vector together, where the
        # vector used to set it up again.  The cold first level cuts the
        # bisection's block at min(d), and would cut the one it hands on
        # at the top of its last bracket only if its block were read; the
        # second level's eigenvalue lies above the secant's upper start,
        # so it checks the tail there again
        counts = []
        smallest_eigenvalue = _kernels.smallest_eigenvalue

        def per_level(*args):
            counts.append([0, 0, 0])
            return smallest_eigenvalue(*args)

        def counted(stage, f):
            def call(*args):
                counts[-1][stage] += 1
                return f(*args)
            return call

        for stage, name in enumerate(("_matrix", "_tail", "_rows")):
            monkeypatch.setattr(_kernels, name, counted(stage, getattr(_kernels, name)))
        monkeypatch.setattr(_kernels, "smallest_eigenvalue", per_level)
        assert groundstate(worked_potential).grid.n_points == 256
        assert counts == [[1, 1, 1], [1, 2, 1], [1, 1, 1], [1, 1, 1]]
        counts.clear()
        assert groundstate(worked_potential, r_max=8.0, n_points=2000).grid.n_points == 1000
        assert counts == [[1, 1, 1], [1, 2, 1], [1, 1, 1], [1, 1, 1]]

    def test_explicit_domain(self, worked_potential, calls):
        assert groundstate(worked_potential, r_max=8.0, n_points=2000).grid.r_max == 8.0
        assert calls["eigenvector"] == 1
        assert calls["levels"] == [125, 250, 500, 1000]
        assert calls["built"] == [(8.0, 125), (8.0, 250), (8.0, 500), (8.0, 1000)]
        assert calls["discretize"] == [(8.0, 125)]

    def test_potential_evaluations(self, worked_potential, monkeypatch):
        # V is called by discretize on the first level's 125 radii and the
        # extent check's two points, then once on the next three levels'
        # radii, 250 + 500 + 1000; each later level takes one call of its own
        sizes = []

        def v(r):
            sizes.append(r.size)
            return eigensolver.eval_potential(worked_potential, r)

        assert groundstate(v, n_dim=3, r_max=8.0, n_points=2000).grid.n_points == 1000
        assert sorted(sizes) == [2, 125, 1750]
        sizes.clear()
        monkeypatch.setattr(eigensolver, "_LADDER_TARGET", 1e-30)
        assert groundstate(v, n_dim=3, r_max=8.0, n_points=2000).grid.n_points == 2000
        assert sorted(sizes) == [2, 125, 1750, 2000]

    def test_one_extent_warning_per_solve(self):
        # the short free-particle domain warned once per ladder level, from
        # 64 to 512 cells; the warning points at the caller of groundstate,
        # as discretize's points at the caller of discretize
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            groundstate(lambda r: 0.0 * r, n_dim=1, r_max=math.pi, n_points=512)
            discretize(lambda r: 0.0 * r, grid=RadialGrid.make(math.pi, 64), n_dim=1)
        assert [w.category for w in caught] == [GridExtentWarning, GridExtentWarning]
        assert [w.filename for w in caught] == [__file__, __file__]

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda v: np.where(np.arange(v.size) == v.size // 2, np.nan, v), "groundstate vector is not finite"),
            (lambda v: np.where(np.arange(v.size) == v.size // 2, np.inf, v), "groundstate vector is not finite"),
            (lambda v: v - 0.5 * v.max(), "groundstate vector changed sign; eigenpair suspect"),
        ],
        ids=["nan", "inf", "sign"],
    )
    @pytest.mark.parametrize("r_max", [8.0, None])
    def test_spoiled_vector_raises(self, worked_potential, monkeypatch, r_max, spoil, message):
        eigenvector = _kernels.eigenvector
        monkeypatch.setattr(_kernels, "eigenvector", lambda *args: spoil(eigenvector(*args)))
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            groundstate(worked_potential, r_max=r_max, n_points=2000)

    def test_non_finite_energy_raises(self):
        # V = 1e308 leaves the operator finite and each level's eigenvalue
        # too, but the Richardson step's 4 e_k overflows
        with pytest.warns(GridExtentWarning), pytest.raises(RuntimeError, match="^groundstate energy is not finite$"):
            groundstate(lambda r: 1e308 + 0.0 * r, r_max=1.0, n_dim=1, n_points=128)


class TestOperators:
    """groundstate's one-pass build of several grid levels (_operators)
    against discretize on each level alone: the same bits, and the same
    error as a level-by-level loop, coarsest level first."""

    @staticmethod
    def per_level(potential, extra_potential, r_max, n_dim, levels):
        """discretize on each level, coarsest first, or the text of its first ValueError."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridExtentWarning)
            try:
                return [discretize(potential, extra_potential, RadialGrid.make(r_max, n), n_dim=n_dim) for n in levels]
            except ValueError as exc:
                return str(exc)

    def assert_same_bits(self, potential, extra_potential, r_max, n_dim):
        v_at, ndim = eigensolver._resolve_potential(potential, n_dim)
        levels = eigensolver._ladder(8000)
        ops = self.per_level(potential, extra_potential, r_max, n_dim, levels)
        # groundstate's first four levels, and the whole ladder in one pass
        for count in (4, len(levels)):
            got = eigensolver._operators(v_at, extra_potential, r_max, ndim, levels[:count])
            assert len(got) == count
            for (diag, off), op in zip(got, ops):
                assert diag.tobytes() == op.diag.tobytes()
                assert off.tobytes() == op.off_diag.tobytes()

    @pytest.mark.parametrize("n_dim", [1, 2, 3, 5, 9, 49])
    @pytest.mark.parametrize("auto_domain", [True, False], ids=["auto_domain", "r_max_8"])
    def test_potential_params(self, n_dim, auto_domain):
        p = PotentialParams(g=1.5, alpha=2.0 * SQRT3, beta=2.0, bigA=2.0 * SQRT3 / 3.0, n_dim=n_dim)
        r_max = eigensolver._domain_radius(p) if auto_domain else 8.0
        self.assert_same_bits(p, None, r_max, None)

    def test_callable_with_extra_potential(self):
        p = random_potential(np.random.default_rng(5))
        split = trial_split(p, derive_trial(p))
        self.assert_same_bits(lambda r: eigensolver.eval_potential(p, r), split.h_at, 8.0, p.n_dim)

    # r_max = 8 on 16 to 128 cells: the 16-cell level's first radius is
    # 0.25, the finer levels' 0.125, 0.0625 and 0.03125.  On r_max =
    # 1.2e-76 the off-diagonal's square overflows from the 32-cell level on
    @pytest.mark.parametrize(
        "v, r_max",
        [
            (lambda r: np.where(r < 0.2, np.nan, 0.5 * r * r), 8.0),
            (lambda r: np.where(r < 0.1, np.inf, 0.5 * r * r), 8.0),
            (lambda r: 0.5 * r * r, 1.2e-76),
            (lambda r: np.where(r < 2.5e-78, np.nan, 0.5 * r * r), 1.2e-76),
            (lambda r: np.where(r < 1.5e-78, np.nan, 0.5 * r * r), 1.2e-76),
        ],
        ids=["v_on_level_2", "v_on_level_3", "operator_on_level_2", "v_before_operator", "operator_before_v"],
    )
    def test_first_failing_level_raises_as_the_loop(self, v, r_max):
        levels = eigensolver._ladder(128)
        assert isinstance(self.per_level(v, None, r_max, 1, levels[:1]), list)  # the first level is finite
        message = self.per_level(v, None, r_max, 1, levels)
        assert isinstance(message, str)
        with pytest.raises(ValueError) as exc:
            eigensolver._operators(v, None, r_max, 1, levels)
        assert str(exc.value) == message
        # groundstate's first level, from discretize, may warn before a finer one fails
        with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            warnings.simplefilter("ignore", GridExtentWarning)
            groundstate(v, n_dim=1, r_max=r_max, n_points=128)


class TestPinnedAnswers:
    """Oracle answers frozen bit for bit: float.hex of the energy and the
    Richardson pair, sha256 of the vector's bytes.

    The bisection and the twisted factorization behind the vector each
    perform a fixed sequence of IEEE-754 operations, so the same code
    gives the same bits.  A change to where the bisection probes moves
    its answers within its tolerance; such a change re-records these,
    each new energy within the old error_estimate.  A change to where
    the grid ladder stops re-records the ladder's pins, each new
    error_estimate within the target and bounding |E - e0| (see
    assert_estimate_holds).  A change to where
    the eigenvector's leading block ends moves only the vector digests.
    The pins also cover numpy's elementwise power/exp in discretize and
    the potential; they were recorded with Python 3.11 and numpy 2.4 on
    x86-64, and a numpy build whose transcendental functions round
    differently would move them.
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
            "-0x1.a494852222222p-37",
            ("-0x1.18aab1e22c997p-12", "-0x1.18a0bd31db9c5p-14"),
            "c661b3f74a0260231346db9ca113c8ca3129fed700cb80794a2e626edb83a121",
            8.0,
        )

    def test_auto_domain(self):
        # g = 0.01 on the domain derived from V, r_max = 3.4622492 (150)^(1/4);
        # the ladder from 125 cells meets its target at 1000, below the
        # 2000-cell cap (the default ladder, from 32 cells, stops at 256)
        (eta,) = solve_eta(1.5, 3)
        sol = params_from_lambda(0.01, 1.5, eta, 3)
        self.assert_pinned(
            groundstate(sol.potential, n_points=2000),
            "0x1.607cc84fa4fbcp-41",
            ("-0x1.12a92fb00c183p-18", "-0x1.12a754bd0d5eap-20"),
            "c4cdabee0c93bcc2ae0174e37b8256f784426e73605012f5932d640519c367aa",
            12.116610267070016,
        )

    def test_callable_extra_potential(self):
        p = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
        split = trial_split(p, derive_trial(p))
        self.assert_pinned(
            groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000),
            "0x1.4000000006531p+1",
            ("0x1.3fff9a4ce3726p+1", "0x1.3fffe693d9aeep+1"),
            "ff8653ab1f4f49e55b259b1f99f125d6b3af76e9007b8dd8078e274f8096b7b2",
            8.0,
        )

    @staticmethod
    def assert_estimate_holds(res, potential):
        # the ladder stops at the first level whose estimate meets the
        # target, and that estimate bounds the error against e0
        assert res.error_estimate <= eigensolver._LADDER_TARGET / res.grid.r_max**2
        e0 = trial_split(potential, derive_trial(potential)).e0
        assert abs(res.energy - e0) <= ESTIMATE_FACTOR * res.error_estimate

    def test_grid_ladder_worked_case(self, worked_potential):
        # the default solve path of verify and eta-mu: automatic domain,
        # grid ladder to its accuracy target (it stops at 256 cells, with
        # an estimate 0.96 of the target and |E - e0| 0.43 of the estimate)
        res = groundstate(worked_potential)
        self.assert_pinned(
            res,
            "-0x1.74d9d84777777p-32",
            ("-0x1.91349c99d9b38p-11", "-0x1.910bee58a5c92p-13"),
            "27cf995d57270bce64e91682968ff69c260cc63f004e9236025946b941a9ed23",
            3.462249204802943,
        )
        assert res.error_estimate.hex() == "0x1.b71ab89ce7c37p-31"
        self.assert_estimate_holds(res, worked_potential)

    def test_grid_ladder_auto_domain(self):
        (eta,) = solve_eta(1.5, 3)
        potential = params_from_lambda(0.01, 1.5, eta, 3).potential
        res = groundstate(potential)
        self.assert_pinned(
            res,
            "-0x1.e796cd2666666p-36",
            ("-0x1.0610fbf6cff24p-14", "-0x1.05f6696c3dc9bp-16"),
            "1bc8a54adeae79e36830daa66c81c43362949243ddab8159dc9679e389c4fef6",
            12.116610267070016,
        )
        assert res.error_estimate.hex() == "0x1.1ed0f3a00af70p-34"
        self.assert_estimate_holds(res, potential)

    def test_one_dimensional_harmonic_oscillator(self):
        self.assert_pinned(
            groundstate(lambda r: 0.5 * r * r, n_dim=1, r_max=12.0, n_points=2000),
            "0x1.000000000067fp-1",
            ("0x1.fffb47ff39143p-2", "0x1.fffed201e5864p-2"),
            "ea53798ff6700f98cae4394a62d7acb0b98193f540f66be679ddd29cdc0ec36f",
            12.0,
        )
