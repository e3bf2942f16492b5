"""Root finder and the three constraint-solving routes."""

import math

import numpy as np
import pytest

from sombrero import (
    NoRootError,
    eta_cubic_coefficients,
    eta_mu_cubic_coefficients,
    find_bracketed_roots,
    jackiw_solutions,
    m_zero_residual,
    params_from_lambda,
    satisfies_m_zero,
    satisfies_zero_energy,
    solve_eta,
    solve_eta_mu,
    zero_energy_residual,
)
from sombrero import solvers

SQRT3 = math.sqrt(3.0)


def eta_mu_cubic(g, n_dim):
    c3, c2, c1, c0 = eta_mu_cubic_coefficients(g, n_dim)
    return lambda x: ((c3 * x + c2) * x + c1) * x + c0


class TestFindBracketedRoots:
    def test_sqrt_two(self):
        roots = find_bracketed_roots(lambda x: x * x - 2.0, 0.0, 2.0, subdivisions=64)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_well_form_cubic_root(self):
        # 2x^3 + 4x^2 - 11/5 x - 9/5; root known to 16 digits from
        # high-precision Newton iteration
        f = eta_mu_cubic(1.0, 3)
        roots = find_bracketed_roots(f, 0.0, 1.0, subdivisions=64)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.7970051148705482, abs=1e-9)
        assert abs(f(roots[0])) < 1e-12

    def test_no_real_root(self):
        assert find_bracketed_roots(lambda x: x * x + 1.0, -1.0, 1.0) == []

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            find_bracketed_roots(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError, match="lo < hi"):
            find_bracketed_roots(lambda x: x, 2.0, 1.0)

    def test_rejects_too_few_subdivisions(self):
        with pytest.raises(ValueError, match="subdivisions"):
            find_bracketed_roots(lambda x: x, 0.0, 1.0, subdivisions=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_nonfinite_function(self):
        with pytest.raises(ValueError, match="finite"):
            find_bracketed_roots(lambda x: 1.0 / x, -1.0, 1.0, subdivisions=4)

    def test_panel_boundary_root_counted_once(self):
        # x = 0 is an exact panel point for an even number of panels
        roots = find_bracketed_roots(lambda x: x, -1.0, 1.0, subdivisions=64)
        assert roots == [0.0]

    def test_multiple_roots(self):
        f = lambda x: (x - 0.25) * (x - 0.5) * (x - 0.75)
        roots = find_bracketed_roots(f, 0.0, 1.0, subdivisions=64)
        assert len(roots) == 3
        assert roots == pytest.approx([0.25, 0.5, 0.75], abs=1e-12)

    def test_deterministic_and_subdivision_independent(self):
        polys = [
            eta_mu_cubic(1.0, 3),
            eta_mu_cubic(1.3, 5),
            lambda x: ((4.5 * x + 4.5) * x + 2.5) * x - 1.5,  # eta cubic, lambda=1.5 N=3
            lambda x: x * x + 4.0 * math.sqrt(5.0 / 3.0) * x - 12.0 * (5.0 / 3.0),
        ]
        for f in polys:
            baseline = find_bracketed_roots(f, -12.0, 1.0, subdivisions=64)
            assert baseline == find_bracketed_roots(f, -12.0, 1.0, subdivisions=64)
            for subdivisions in (128, 256, 501):
                other = find_bracketed_roots(f, -12.0, 1.0, subdivisions=subdivisions)
                assert len(other) == len(baseline)
                for a, b in zip(baseline, other):
                    assert abs(a - b) < 1e-12


class TestSolveEta:
    def test_known_rational_root(self):
        roots = solve_eta(1.5, 3)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_no_root_at_unit_shape_ratio(self):
        assert solve_eta(1.0, 3) == []

    def test_large_shape_ratio(self):
        roots = solve_eta(10.0, 3)
        assert len(roots) == 1
        # bisection + 40-digit Newton reference
        assert roots[0] == pytest.approx(0.9145001940605650, abs=1e-9)

    def test_roots_satisfy_cubic_tightly(self):
        for lam in (1.1, 1.5, 2.0, 5.0, 10.0):
            c3, c2, c1, c0 = eta_cubic_coefficients(lam, 3)
            for eta in solve_eta(lam, 3):
                assert abs(((c3 * eta + c2) * eta + c1) * eta + c0) < 1e-12

    def test_rejects_nonfinite_lambda(self):
        with pytest.raises(ValueError, match="finite"):
            solve_eta(float("nan"), 3)
        with pytest.raises(ValueError, match="finite"):
            solve_eta(float("inf"), 3)

    def test_monotone_single_root_sweep(self):
        lams = np.linspace(1.01, 10.0, 50)
        etas = []
        for lam in lams:
            roots = solve_eta(float(lam), 3)
            assert len(roots) == 1
            assert 0.0 < roots[0] < 1.0
            etas.append(roots[0])
        assert np.all(np.diff(etas) > 0.0)


class TestParamsFromLambda:
    def test_reference_reconstruction(self):
        sol = params_from_lambda(1.5, 1.5, 1.0 / 3.0, 3)
        p = sol.potential
        assert p.beta == pytest.approx(2.0, rel=1e-12)
        assert p.alpha == pytest.approx(math.sqrt(12.0), rel=1e-12)
        assert p.bigA == pytest.approx(math.sqrt(12.0) / 3.0, rel=1e-12)
        assert sol.trial.c == pytest.approx(SQRT3 / 2.0, rel=1e-12)
        assert sol.trial.c > 0.0
        assert sol.lambda_form.lambda_ == 1.5
        assert satisfies_m_zero(p) and satisfies_zero_energy(p)

    def test_coupling_rescales_beta(self):
        sol = params_from_lambda(3.0, 1.5, 1.0 / 3.0, 3)
        p = sol.potential
        assert p.beta == pytest.approx(1.0, rel=1e-12)
        assert p.alpha == pytest.approx(2.4494897427831781, rel=1e-9)
        assert p.bigA == pytest.approx(0.8164965809277260, rel=1e-9)
        assert sol.trial.c == pytest.approx(1.2247448713915890, rel=1e-9)
        assert abs(m_zero_residual(p)) < 1e-10
        assert abs(zero_energy_residual(p)) < 1e-10

    def test_constraint_residuals_over_sweep(self):
        for lam in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
            for n_dim in (1, 2, 3, 5, 9):
                for g in (0.5, 1.0, 1.5):
                    for eta in solve_eta(lam, n_dim):
                        sol = params_from_lambda(g, lam, eta, n_dim)
                        assert satisfies_m_zero(sol.potential)
                        assert satisfies_zero_energy(sol.potential)
                        assert sol.trial.c > 0.0

    def test_rejects_eta_outside_interval(self):
        with pytest.raises(ValueError, match="eta"):
            params_from_lambda(1.5, 1.5, 0.0, 3)
        with pytest.raises(ValueError, match="eta"):
            params_from_lambda(1.5, 1.5, 1.0, 3)

    def test_rejects_non_root_eta(self):
        with pytest.raises(ValueError, match="does not solve"):
            params_from_lambda(1.5, 1.5, 0.5, 3)

    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValueError, match="g"):
            params_from_lambda(0.0, 1.5, 1.0 / 3.0, 3)


class TestJackiwSolutions:
    def test_three_dimensional_branches(self):
        first, second = jackiw_solutions(3)
        r0_sq = math.sqrt(5.0 / 3.0)
        assert first.potential.alpha == pytest.approx(2 * r0_sq, rel=1e-14)
        assert (first.trial.a, first.trial.c, first.trial.m) == (0.25, 0.0, 0.0)
        assert first.e0 == pytest.approx(2.1516574145596869, rel=1e-12)
        assert second.potential.alpha == pytest.approx(-6 * r0_sq, rel=1e-14)
        assert second.trial.c == pytest.approx(-2 * r0_sq, rel=1e-14)
        assert second.e0 == pytest.approx(9.8976241069745129, rel=1e-12)

    def test_one_dimensional_branch(self):
        first, second = jackiw_solutions(1)
        assert first.potential.alpha == pytest.approx(2.0, rel=1e-14)
        assert first.trial.c == 0.0
        assert first.e0 == pytest.approx(1.0, rel=1e-14)
        assert second.e0 == pytest.approx(3.0, rel=1e-14)

    def test_branches_satisfy_solvability_constraint(self):
        for n_dim in (1, 2, 3, 5, 9):
            for branch in jackiw_solutions(n_dim):
                assert satisfies_m_zero(branch.potential)

    def test_root_finder_reproduces_both_branches(self):
        # the quadratic that defines the branches, handed to the shared finder
        r0_sq = math.sqrt(5.0 / 3.0)
        roots = find_bracketed_roots(
            lambda x: x * x + 4 * r0_sq * x - 12 * r0_sq**2,
            -8 * r0_sq,
            4 * r0_sq,
            subdivisions=64,
        )
        assert roots == pytest.approx([-6 * r0_sq, 2 * r0_sq], abs=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="n_dim"):
            jackiw_solutions(0)


class TestSolveEtaMu:
    def test_cubic_coefficients_exact_at_reference(self):
        assert eta_mu_cubic_coefficients(1.0, 3) == (2.0, 4.0, -11.0 / 5.0, -9.0 / 5.0)

    def test_reference_solution(self):
        sol = solve_eta_mu(1.0, 3)
        form = sol.jackiw_form
        # exact root of the cubic and its consistent mu, frozen from
        # 40-digit Newton iteration
        assert form.eta == pytest.approx(0.7970051148705482, abs=1e-9)
        assert form.mu == pytest.approx(0.7707726171290877, abs=1e-9)
        assert form.eta == pytest.approx(0.797005, abs=1e-6)
        assert form.r0_sq == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-14)
        # c follows (1 - eta) g r0^2 / 2
        assert sol.trial.c == pytest.approx(
            0.5 * (1.0 - form.eta) * 1.0 * form.r0_sq, rel=1e-12
        )
        assert sol.trial.c == pytest.approx(0.1310326349119424, abs=1e-9)
        assert satisfies_m_zero(sol.potential)
        assert satisfies_zero_energy(sol.potential)

    def test_cubic_residual_at_root(self):
        sol = solve_eta_mu(1.0, 3)
        eta = sol.jackiw_form.eta
        assert abs(2 * eta**3 + 4 * eta**2 - 2.2 * eta - 1.8) < 1e-12

    def test_general_coupling_still_consistent(self):
        for g in (0.8, 1.0, 1.7, 3.0):
            for n_dim in (1, 2, 3, 5):
                sol = solve_eta_mu(g, n_dim)
                assert 0.0 < sol.jackiw_form.eta < 1.0
                assert satisfies_m_zero(sol.potential)
                assert satisfies_zero_energy(sol.potential)

    def test_no_root_for_weak_coupling(self):
        # the cubic is negative on all of (0, 1) for g < 3/4
        with pytest.raises(NoRootError, match="eta"):
            solve_eta_mu(0.5, 3)

    @pytest.mark.parametrize("solve, args", [(solve_eta, (1.5, 3)), (solve_eta_mu, (1.0, 3))])
    def test_one_root_finder_call_per_solve(self, solve, args, monkeypatch):
        calls = []
        find = solvers.find_bracketed_roots

        def counted(*a, **kw):
            calls.append(kw)
            return find(*a, **kw)

        monkeypatch.setattr(solvers, "find_bracketed_roots", counted)
        solve(*args)
        assert len(calls) == 1
        assert calls[0]["subdivisions"] == 64

    @pytest.mark.parametrize("g, n_dim", [(1e4, 3), (3e3, 1), (1e4, 9)])
    def test_root_missing_the_constraints_is_no_root(self, g, n_dim):
        with pytest.raises(NoRootError, match="misses the constraints"):
            solve_eta_mu(g, n_dim)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="g"):
            solve_eta_mu(0.0, 3)
        with pytest.raises(ValueError, match="n_dim"):
            solve_eta_mu(1.0, 0)
