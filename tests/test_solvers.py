"""Root finder and the three constraint-solving routes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sombrero import (
    NoRootError,
    eta_cubic_coefficients,
    eta_mu_cubic_coefficients,
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


def exact_cubic(coefficients):
    c3, c2, c1, c0 = map(Fraction, coefficients)
    return lambda x: ((c3 * x + c2) * x + c1) * x + c0


def two_ulps(x, direction):
    return math.nextafter(math.nextafter(x, direction), direction)


class TestQuadraticRoots:
    def test_both_roots_without_cancellation(self):
        # x^2 - 1e8 x + 1: the small root 1e-8 loses every digit to
        # cancellation in (-b - sqrt(b^2 - 4ac)) / 2a
        small, large = solvers._quadratic_roots(1.0, -1e8, 1.0)
        assert small == pytest.approx(1e-8, rel=1e-15)
        assert large == pytest.approx(1e8, rel=1e-15)

    def test_double_root_once(self):
        assert solvers._quadratic_roots(1.0, -1.0, 0.25) == [0.5]
        assert solvers._quadratic_roots(2.0, 0.0, 0.0) == [0.0]

    def test_degenerate_and_complex(self):
        assert solvers._quadratic_roots(0.0, 2.0, -1.0) == [0.5]
        assert solvers._quadratic_roots(0.0, 0.0, 1.0) == []
        assert solvers._quadratic_roots(1.0, 0.0, 1.0) == []

    def test_huge_coefficients_do_not_overflow(self):
        assert solvers._quadratic_roots(1e300, -3e300, 2e300) == pytest.approx([1.0, 2.0], rel=1e-15)


class TestCubicRoots:
    def test_well_form_cubic_root(self):
        # 2x^3 + 4x^2 - 11/5 x - 9/5; root known to 16 digits from
        # high-precision Newton iteration
        roots = solvers._cubic_roots_in_unit_interval(eta_mu_cubic_coefficients(1.0, 3))
        assert roots == [pytest.approx(0.7970051148705482, rel=1e-15)]

    def test_no_root(self):
        assert solvers._cubic_roots_in_unit_interval((1.0, 0.0, 0.0, 1.0)) == []
        # roots at 0 and 1 themselves are not inside (0, 1)
        assert solvers._cubic_roots_in_unit_interval((0.0, 1.0, -1.0, 0.0)) == []

    @pytest.mark.parametrize(
        "coefficients",
        [(math.inf, 1.0, 1.0, -1.0), (1.0, math.nan, 1.0, -1.0), (1e308, 1e308, -1e308, -1e308)],
        ids=["inf", "nan", "sum_overflows"],
    )
    def test_rejects_nonfinite_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="finite"):
            solvers._cubic_roots_in_unit_interval(coefficients)

    @pytest.mark.parametrize(
        "cubic, shape_ratios, expected_roots",
        [
            (eta_mu_cubic_coefficients, np.logspace(-1, 9, 100), 273),
            (eta_cubic_coefficients, [1.0 + 2.0**-52, 1.0 + 1e-12, *np.linspace(1.0005, 10.0, 60), 1e6], 189),
        ],
        ids=["eta_mu", "eta"],
    )
    def test_sign_change_within_two_ulps(self, cubic, shape_ratios, expected_roots):
        # the cubic with the float coefficients, evaluated exactly, changes
        # sign between two ulps below and two ulps above each root
        found = 0
        for x in shape_ratios:
            for n_dim in (1, 3, 9):
                coefficients = cubic(float(x), n_dim)
                f = exact_cubic(coefficients)
                roots = solvers._cubic_roots_in_unit_interval(coefficients)
                for root in roots:
                    lo, hi = two_ulps(root, 0.0), two_ulps(root, 1.0)
                    assert f(Fraction(lo)) * f(Fraction(hi)) <= 0, (x, n_dim, root)
                found += len(roots)
        assert found == expected_roots


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

    @pytest.mark.parametrize("n_dim", [*range(1, 11), 27, 100])
    def test_one_root_exactly_above_unit_shape_ratio(self, n_dim):
        # the cubic is convex on [0, 1] with f(0) = N (1 - lambda) and
        # f(1) = 2N + 4; past lambda - 1 = 1e12 the computed f(1) cancels
        lams = [-1e12, -1.0, 0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), *(1.0 + np.logspace(-15, 12, 400))]
        counts = [len(solve_eta(float(lam), n_dim)) for lam in lams]
        assert counts == [int(lam > 1.0) for lam in lams]


def first_roots(coefficients):
    """The scalar finder's first root of each cubic, NaN where it has none."""
    firsts = []
    for cubic in zip(*coefficients):
        roots = solvers._cubic_roots_in_unit_interval(tuple(map(float, cubic)))
        firsts.append(roots[0] if roots else math.nan)
    return np.array(firsts)


def first_etas(lams, n_dim):
    """solve_eta's first root at each lambda, NaN where it has none."""
    return [next(iter(solve_eta(float(lam), n_dim)), math.nan) for lam in lams]


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


SPECIAL_CUBICS = [
    ((1.0, -1.5, 0.75, -0.125), 0.5),  # (x - 1/2)^3: a triple root, the first midpoint
    ((1.0, 0.0, 0.0, -0.125), 0.5),  # x^3 - 1/8: the first midpoint is an exact zero
    ((1.0, -0.25, 1.0, -0.25), 0.25),  # (x - 1/4)(x^2 + 1): the second midpoint is an exact zero
    ((0.0, 0.0, 2.0, -1.0), 0.5),  # linear
    ((0.0, 1.0, 0.0, -0.25), 0.5),  # quadratic
    ((1.0, 0.0, 0.0, 1.0), math.nan),  # no root
    ((0.0, 1.0, -1.0, 0.0), math.nan),  # roots at 0 and 1 only
    ((0.0, 0.0, 1.0, -2.0), math.nan),  # a linear root outside
    ((0.0, 0.0, 0.0, 1.0), math.nan),  # constant
]


class TestGridMatchesScalar:
    """The numpy finder behind scan-lambda returns the scalar finder's first root, bit for bit."""

    @pytest.mark.parametrize("n_dim", [1, 2, 3, 9, 27, 100])
    def test_eta_sweeps(self, n_dim):
        lams = np.concatenate([
            1.0 + np.logspace(-16, 1, 300),
            np.linspace(1.01, 10.0, 200),
            np.linspace(1.5, 1e6, 100),
            [1.0 + 2.0**-52, 1e300],
        ])
        assert same_bits(solvers._solve_eta_grid(lams, n_dim), first_etas(lams, n_dim))

    def test_grid_longer_than_one_block(self):
        lams = np.linspace(1.0 + 1e-9, 50.0, 2 * solvers._BLOCK + 3)
        assert same_bits(solvers._solve_eta_grid(lams, 3), first_etas(lams, 3))

    def test_random_cubics(self):
        rng = np.random.default_rng(3)
        size = 3000
        generic = [rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size) for _ in range(4)]
        # monic cubics with all three roots near [0, 1], often two or three inside
        r1, r2, r3 = rng.uniform(-0.5, 1.5, size=(3, size))
        monic = [np.ones(size), -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3]
        coefficients = [np.concatenate(pair) for pair in zip(generic, monic)]
        expected = first_roots(coefficients)
        assert 0 < np.isnan(expected).sum() < 2 * size
        assert same_bits(solvers._first_roots_in_unit_interval(coefficients), expected)

    @pytest.mark.parametrize("cubic, root", SPECIAL_CUBICS)
    def test_special_cubics(self, cubic, root):
        alone = solvers._first_roots_in_unit_interval([[c] for c in cubic])
        assert same_bits(alone, first_roots([[c] for c in cubic]))
        assert alone[0] == root or math.isnan(root) and math.isnan(alone[0])

    def test_special_cubics_in_one_batch(self):
        coefficients = np.array([cubic for cubic, _ in SPECIAL_CUBICS]).T
        assert same_bits(solvers._first_roots_in_unit_interval(coefficients), first_roots(coefficients))

    def test_nonfinite_coefficients_raise_the_scalar_text(self):
        with pytest.raises(ValueError) as scalar:
            solvers._cubic_roots_in_unit_interval((math.inf, 1.0, -1.0, -1.0))
        coefficients = [[1.0, math.inf, 1e308], [1.0, 1.0, 1e308], [-1.0, -1.0, -1e308], [-1.0, -1.0, math.nan]]
        with pytest.raises(ValueError) as batch:
            solvers._first_roots_in_unit_interval(coefficients)
        assert str(batch.value) == str(scalar.value)

    def test_grid_names_the_first_lambda_whose_sum_overflows(self):
        # at N = 9, lambda = 5e306 has finite coefficients whose sum overflows,
        # and lambda = 1e308 infinite ones; solve_eta names the first
        lams = [1.5, 5e306, 1e308]
        with pytest.raises(ValueError) as scalar:
            for lam in lams:
                solve_eta(lam, 9)
        with pytest.raises(ValueError) as grid:
            solvers._solve_eta_grid(lams, 9)
        assert str(grid.value) == str(scalar.value)
        assert "inf" not in str(grid.value)


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
        # the quadratic that defines the branches, handed to the shared quadratic solver
        r0_sq = math.sqrt(5.0 / 3.0)
        roots = solvers._quadratic_roots(1.0, 4 * r0_sq, -12 * r0_sq**2)
        assert roots == pytest.approx([-6 * r0_sq, 2 * r0_sq], rel=1e-15)

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

    @pytest.mark.parametrize("n_dim", [*range(1, 11), 27, 100])
    def test_one_root_exactly_above_three_quarters(self, n_dim):
        # the cubic is convex on [0, 1] with p(0) < 0 and p(1) = 2 (4g - 3) / g
        gs = [
            1e-12,
            0.5,
            0.75,
            math.nextafter(0.75, 0.0),
            math.nextafter(0.75, 1.0),
            *(0.75 + np.logspace(-15, 0, 200)),
            *np.logspace(math.log10(1.75), 12, 200),
        ]
        cubics = (eta_mu_cubic_coefficients(float(g), n_dim) for g in gs)
        counts = [len(solvers._cubic_roots_in_unit_interval(cubic)) for cubic in cubics]
        assert counts == [int(g > 0.75) for g in gs]

    def test_no_root_for_weak_coupling(self):
        # the cubic is negative on all of (0, 1) for g < 3/4
        with pytest.raises(NoRootError, match="eta"):
            solve_eta_mu(0.5, 3)

    @pytest.mark.parametrize("solve, args", [(solve_eta, (1.5, 3)), (solve_eta_mu, (1.0, 3))])
    def test_one_root_finder_call_per_solve(self, solve, args, monkeypatch):
        calls = []
        find = solvers._cubic_roots_in_unit_interval

        def counted(coefficients):
            calls.append(coefficients)
            return find(coefficients)

        monkeypatch.setattr(solvers, "_cubic_roots_in_unit_interval", counted)
        solve(*args)
        assert len(calls) == 1

    @pytest.mark.parametrize("g, n_dim", [(1e4, 3), (3e3, 1), (1e4, 9)])
    def test_strong_coupling_meets_both_residuals(self, g, n_dim):
        # a root found to an absolute 1e-12 missed the e0 residual here
        sol = solve_eta_mu(g, n_dim)
        assert 0.0 < sol.jackiw_form.eta < 1e-3
        assert satisfies_m_zero(sol.potential)
        assert satisfies_zero_energy(sol.potential)

    def test_root_missing_the_constraints_is_no_root(self, monkeypatch):
        find = solvers._cubic_roots_in_unit_interval
        monkeypatch.setattr(
            solvers, "_cubic_roots_in_unit_interval", lambda c: [r * (1.0 + 1e-6) for r in find(c)]
        )
        with pytest.raises(NoRootError, match="misses the constraints"):
            solve_eta_mu(1e4, 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="g"):
            solve_eta_mu(0.0, 3)
        with pytest.raises(ValueError, match="n_dim"):
            solve_eta_mu(1.0, 0)
