"""Radial eigensolver: calibration, invariants, and oracle-vs-closed-form."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    @pytest.mark.parametrize("n_dim", range(1, 10))
    def test_grid_ladder_meets_its_target(self, n_dim):
        # target 1e-8 / r_max^2 = 6.9e-11 on the estimate of the error
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0)
        assert abs(res.energy - n_dim / 2.0) <= 1e-9

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
            groundstate(p, n_points=500)

    @pytest.mark.parametrize("g", [1e-3, 1.5, 2e4])
    def test_wider_domain_leaves_energy_unchanged(self, g):
        # the wall sits where psi has decayed by e^-40: moving it out by a
        # quarter, at the same spacing, must not move the energy, in units
        # of the domain's own kinetic scale 1 / r_max^2
        (eta,) = solve_eta(1.5, 3)
        p = params_from_lambda(g, 1.5, eta, 3).potential
        auto = groundstate(p, n_points=2000)
        r_max = auto.grid.r_max
        wide = groundstate(p, r_max=1.25 * r_max, n_points=2500)
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
            groundstate(p, n_points=500)

    def test_unresolved_well_raises_grid_too_coarse(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridExtentWarning)
            with pytest.raises(RuntimeError, match="grid too coarse"):
                groundstate(lambda r: 1e6 * r * r, n_dim=3, r_max=8.0, n_points=16)

    def test_unresolved_well_raises_on_the_grid_ladder(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridExtentWarning)
            with pytest.raises(RuntimeError, match="grid too coarse"):
                groundstate(lambda r: 1e8 * r * r, n_dim=3, r_max=8.0)

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
        report = verify_solution(sol, r_max=8.0)
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
        report = verify_solution(sol, r_max=8.0)
        assert not report.passed
        assert "oracle_energy_vs_e0" in report.failures
        assert "m_zero_residual" in report.failures
        assert abs(report.m_residual) > 1e-3


class TestScaleCovariance:
    """r -> s r, g -> g s^-4, alpha -> alpha s^2, beta -> beta s^4 and
    A -> A s^2 map the family onto itself with E -> E s^-2, so the
    oracle's domain, energy and verdict must follow."""

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
        scaled = PotentialParams(
            g=base.g * s**-4, alpha=base.alpha * s**2, beta=base.beta * s**4, bigA=base.bigA * s**2, n_dim=n_dim
        )
        assert eigensolver._domain_radius(scaled) == pytest.approx(
            s * eigensolver._domain_radius(base), rel=1e-12
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridExtentWarning)
            one, other = (
                verify_solution(ZeroModeSolution(potential=p, trial=derive_trial(p))) for p in (base, scaled)
            )
        moderate = 1e-3 <= scaled.g <= 2e4
        assert abs(other.oracle_energy * s * s - one.oracle_energy) <= (1e-9 if moderate else 1e-8)
        if moderate:
            assert other.passed == one.passed


class TestStages:
    """One domain per solve: one discretization per grid level and one eigenvector."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"eigenvector": 0, "vector_size": None, "discretize": []}
        eigenvector, discretize_ = _kernels.eigenvector, eigensolver.discretize

        def counted_eigenvector(*args):
            calls["eigenvector"] += 1
            calls["vector_size"] = len(args[0])
            return eigenvector(*args)

        def recorded_discretize(potential, extra_potential, grid, **kwargs):
            calls["discretize"].append((grid.r_max, grid.n_points))
            return discretize_(potential, extra_potential, grid, **kwargs)

        monkeypatch.setattr(_kernels, "eigenvector", counted_eigenvector)
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
        # an explicit grid skips the ladder: one pair, the vector on the finer
        assert calls["discretize"] == [(r_max, 2000), (r_max, 4000)]
        assert calls["vector_size"] == 4000

    @pytest.mark.parametrize("g", [1.5, 0.01])
    def test_grid_ladder_on_auto_domain(self, g, calls):
        # the target scales like the energy, so every member of the family
        # stops at the level where the worked case does
        (eta,) = solve_eta(1.5, 3)
        res = groundstate(params_from_lambda(g, 1.5, eta, 3).potential)
        r_max = res.grid.r_max
        assert calls["discretize"] == [(r_max, 250), (r_max, 500), (r_max, 1000)]
        assert calls["eigenvector"] == 1
        assert calls["vector_size"] == 1000
        assert res.grid.n_points == 1000

    def test_unmet_target_stops_at_the_cap(self, worked_potential, calls, monkeypatch):
        monkeypatch.setattr(eigensolver, "_LADDER_TARGET", 1e-30)
        res = groundstate(worked_potential, r_max=8.0)
        assert [n for _, n in calls["discretize"]] == [250, 500, 1000, 2000, 4000, 8000]
        assert calls["vector_size"] == 8000
        assert res.grid.n_points == 8000
        assert abs(res.energy) < 1e-8

    def test_explicit_domain(self, worked_potential, calls):
        groundstate(worked_potential, r_max=8.0, n_points=2000)
        assert calls["eigenvector"] == 1
        assert calls["discretize"] == [(8.0, 2000), (8.0, 4000)]

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


class TestPinnedAnswers:
    """Oracle answers frozen bit for bit: float.hex of the energy and the
    Richardson pair, sha256 of the vector's bytes.

    The bisection and the twisted factorization behind the vector each
    perform a fixed sequence of IEEE-754 operations, so a change that only
    makes them faster must leave these unchanged.  The pins also cover numpy's elementwise
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
            "06ba890928991fe74ce9c9c6b8f3077096c4181df7620a545ec719a3979fce07",
            8.0,
        )

    def test_auto_domain(self):
        # g = 0.01 on the domain derived from V, r_max = 3.4622492 (150)^(1/4)
        (eta,) = solve_eta(1.5, 3)
        sol = params_from_lambda(0.01, 1.5, eta, 3)
        self.assert_pinned(
            groundstate(sol.potential, n_points=2000),
            "-0x1.07785d41caaabp-38",
            ("-0x1.12a61f8c3fdf6p-22", "-0x1.12a935f557a4cp-24"),
            "ddd260609261bcf0688a33eac73c4d2c178672b251d3bf22b86f6703f236aa1c",
            12.116610267070016,
        )

    def test_callable_extra_potential(self):
        p = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
        split = trial_split(p, derive_trial(p))
        self.assert_pinned(
            groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000),
            "0x1.3fffffffff241p+1",
            ("0x1.3fffe693dc75cp+1", "0x1.3ffff9a4f6788p+1"),
            "68f64f294dcb88c8e5afc669c87c906eee21fc8381cb52b0523e975b30f051b2",
            8.0,
        )

    def test_one_dimensional_harmonic_oscillator(self):
        self.assert_pinned(
            groundstate(lambda r: 0.5 * r * r, n_dim=1, r_max=12.0, n_points=2000),
            "0x1.fffffffff2ab5p-2",
            ("0x1.ffffb4809181ap-2", "0x1.ffffed201a60fp-2"),
            "5ac33797d6604f7ec706f0b427a139186566bb2200c7778d168661262179bff1",
            12.0,
        )
