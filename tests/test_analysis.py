import math
import warnings

import numpy as np
import pytest

import hedgenet.pricing as pricing
from hedgenet.analysis import (
    RATE_N_MIN,
    choose_eta,
    default_theta_grid,
    estimate_h2,
    estimate_theta,
    fit_rate,
    theta_grid_table,
)
from hedgenet.models import bm_constant, gbm_diagonal
from hedgenet.pricing import BMQuadratic, make_pricing
from hedgenet.rng import ArgumentError

SPEC_GBM = gbm_diagonal(1, 1.0, 1.0)
DIGITAL = make_pricing("digital", {"K": 1.0, "s": 1.0}, 1.0)
SPEC_BM1 = bm_constant(np.eye(1), [0.0])
QUAD1 = BMQuadratic(1, 1.0)


class TestChooseEta:
    def test_below_half(self):
        assert choose_eta(0.25) == 0.0
        assert choose_eta(0.0) == 0.0
        assert choose_eta(0.49) == 0.0

    def test_midpoint_rule(self):
        assert choose_eta(0.75) == 0.75
        assert choose_eta(0.5) == 0.5

    def test_always_admissible(self):
        for theta in np.linspace(0.0, 0.99, 34):
            eta = choose_eta(theta)
            if theta < 0.5:
                assert eta == 0.0
            else:
                assert 2.0 * theta - 1.0 < eta < 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            choose_eta(1.0)
        with pytest.raises(ValueError):
            choose_eta(-0.1)


class TestFitRate:
    def test_exact_half_slope(self):
        pts = [(n, n ** -0.5) for n in (8, 16, 32, 64, 128)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_intercept(self):
        pts = [(n, 3.0 * n ** -0.25) for n in (8, 16, 32, 64)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_scale_equivariance(self):
        # log(c * r) != log c + log r bitwise, so equality holds to rounding
        pts = [(8, 0.21), (16, 0.157), (32, 0.11), (64, 0.081), (128, 0.06)]
        base = fit_rate(pts)
        scaled = fit_rate([(n, 7.3 * r) for n, r in pts])
        assert scaled.slope == pytest.approx(base.slope, rel=1e-13)
        assert scaled.intercept == pytest.approx(
            base.intercept + math.log(7.3), rel=1e-12
        )

    def test_drops_small_n(self):
        pts = [(2, 99.0), (4, 99.0)] + [(n, n ** -0.5) for n in (8, 16, 32, 64)]
        fit = fit_rate(pts)
        assert all(n >= RATE_N_MIN for n, _ in fit.points_used)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_jackknife_ci(self):
        ns = (8, 16, 32, 64, 128)
        pts = [(n, n ** -0.5) for n in ns]
        # group g tilts the curve by a known slope offset d_g
        offsets = np.linspace(-0.01, 0.01, 16)
        reps = [tuple(n ** (-0.5 + d) for d in offsets) for n in ns]
        fit = fit_rate(pts, jackknife=reps)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        se = math.sqrt(15 / 16 * float((offsets ** 2).sum()))
        half = 2.131449545559323 * se  # t quantile, 15 degrees of freedom
        assert fit.ci95_slope[0] == pytest.approx(-0.5 - half, rel=1e-9)
        assert fit.ci95_slope[1] == pytest.approx(-0.5 + half, rel=1e-9)
        with pytest.raises(ValueError):
            fit_rate(pts, jackknife=reps[:-1])

    @pytest.mark.parametrize("bad", [
        "one row short", "one group", "ragged", "flat", "not numbers"])
    def test_jackknife_shape_is_checked_before_the_fit(self, monkeypatch,
                                                      bad):
        import hedgenet.analysis as analysis

        ns = (8, 16, 32, 64, 128)
        pts = [(n, n ** -0.5) for n in ns]
        reps = {
            "one row short": [(1.0, 1.1)] * (len(ns) - 1),
            "one group": [(1.0,)] * len(ns),
            "ragged": [(1.0, 1.1)] * (len(ns) - 1) + [(1.0, 1.1, 1.2)],
            "flat": [1.0] * len(ns),
            "not numbers": [("a", "b")] * len(ns),
        }[bad]
        monkeypatch.setattr(analysis, "_ols", None)  # no fit is made
        with pytest.raises(ArgumentError, match="jackknife must hold"):
            fit_rate(pts, jackknife=reps)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (16, 0.7), (32, 0.5)])

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_rate([(n, 1.0) for n in (8, 16, 32, 64)])
        with pytest.raises(ValueError):
            fit_rate([(8, 1.0), (16, -0.5), (32, 0.3), (64, 0.2)])

    def test_degenerate_inputs_are_no_argument_errors(self):
        # found in the rms values, not in the form of the arguments, so a
        # caller's runtime failure, not a usage error
        for pts in ([(n, 1.0) for n in (8, 16, 32, 64)],
                    [(8, 1.0), (16, -0.5), (32, 0.3), (64, 0.2)]):
            with pytest.raises(ValueError) as e:
                fit_rate(pts)
            assert not isinstance(e.value, ArgumentError)


class TestEstimateTheta:
    def test_quadratic_payoff_flat(self):
        fit = estimate_theta(SPEC_BM1, QUAD1, n_paths=100000, master_seed=5)
        assert abs(fit.theta_hat) <= 0.05
        # m(t) = 4 identically: hessian 2, A = 1
        for _, m, _ in fit.rows:
            assert m == pytest.approx(4.0)

    def test_digital(self):
        fit = estimate_theta(SPEC_GBM, DIGITAL, n_paths=50000, master_seed=5)
        assert fit.theta_hat == pytest.approx(0.75, abs=0.1)
        assert fit.ci95[0] < fit.theta_hat < fit.ci95[1]
        assert fit.r2 > 0.99

    def test_rows_carry_every_grid_time(self):
        grid = [0.5, 0.3, 0.1]
        fit = estimate_theta(SPEC_GBM, DIGITAL, tau_grid=grid, n_paths=2000,
                             master_seed=5)
        assert [r[0] for r in fit.rows] == grid
        assert all(m > 0.0 and se > 0.0 for _, m, se in fit.rows)
        # the CSV rows carry the dates t = T - tau
        assert [r[0] for r in theta_grid_table(fit, 1.0)] == \
            [1.0 - tau for tau in grid]

    def test_states_are_one_step_each_from_one_draw(self):
        from hedgenet.models import exact_step, one_step_states
        from hedgenet.rng import normals

        spec = gbm_diagonal(2, [1.0, 0.5], [1.0, 2.0])
        taus = [0.5, 0.3, 0.001]
        z = normals(3, np.arange(500), 0, 2)
        want = [exact_step(spec, spec.x0, 1.0 - tau, z).tobytes()
                for tau in taus]
        got = [x.tobytes() for x in one_step_states(spec, 1.0, taus, 500, 3)]
        assert got == want

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_diagonal_is_a_matrix_diagonal(self, d):
        # uncorrelated diagonal GBM reads (s_i x_i)^2 directly, bitwise
        from hedgenet.analysis import _a_diagonal
        from hedgenet.models import a_matrix

        spec = gbm_diagonal(d, [0.7, 1.0, 1.3][:d], 1.0)
        x = np.exp(np.random.default_rng(4).normal(0.0, 0.8, (1000, d)))
        want = np.einsum("bii->bi", a_matrix(spec, x))
        assert _a_diagonal(spec, x).tobytes() == want.tobytes()

    def test_a_diagonal_of_a_correlated_spec_is_general(self, monkeypatch):
        import hedgenet.analysis as analysis
        from hedgenet.models import a_matrix

        corr = [[1.0, 0.5], [0.5, 1.0]]
        spec = gbm_diagonal(2, [0.7, 1.3], 1.0, corr=corr)
        x = np.exp(np.random.default_rng(4).normal(0.0, 0.8, (1000, 2)))
        calls = []
        monkeypatch.setattr(
            analysis, "a_matrix",
            lambda *args: calls.append(1) or a_matrix(*args))
        got = analysis._a_diagonal(spec, x)
        assert calls == [1]
        assert np.array_equal(got, np.einsum("bii->bi", a_matrix(spec, x)))

    def test_power_table_m_t_bias(self, monkeypatch):
        # The theta scan prices each grid time's batch off the power table;
        # its Gamma error enters m(t) squared. Priced again by direct
        # quadrature at every state, m(t) moves by at most 2.6e-5
        # (relative, at tau = 1e-3), the table lying above at every
        # tau <= 0.1. 25000 paths keep the direct scan near 3 s.
        power = make_pricing("power", {"K": 1.0, "alpha": 0.25, "s": 1.0},
                             1.0)
        table = estimate_theta(SPEC_GBM, power, None, 25000, 1).rows

        def direct(factor, tau, x, what):
            d = pricing._power_log_derivatives(
                x, factor.K, factor.alpha, factor.s, tau, 3)
            return pricing._assemble(x, d, what)

        monkeypatch.setattr(pricing.Factor1D, "_power_eval_table", direct)
        direct = estimate_theta(SPEC_GBM, power, None, 25000, 1).rows
        assert [r[0] for r in table] == list(default_theta_grid(1.0))
        gap = np.array([a[1] / b[1] - 1.0 for a, b in zip(table, direct)])
        assert np.abs(gap).max() <= 5.2e-5, gap

    def test_rejects_grid_outside_window(self):
        with pytest.raises(ValueError):
            estimate_theta(SPEC_GBM, DIGITAL, tau_grid=[0.9, 0.4],
                           n_paths=1000, master_seed=0)
        with pytest.raises(ValueError):
            estimate_theta(SPEC_GBM, DIGITAL, tau_grid=[0.1, 0.01, 9e-4],
                           n_paths=1000, master_seed=0)

    def test_warns_on_extreme_theta(self):
        from hedgenet.analysis import ThetaFit

        with pytest.warns(UserWarning):
            ThetaFit(theta_hat=1.3, ci95=(1.2, 1.4), r2=1.0)
        with pytest.warns(UserWarning, match=r"outside \[-0\.2, 1\.2\]"):
            ThetaFit(theta_hat=-0.3, ci95=(-0.4, -0.2), r2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ThetaFit(theta_hat=-0.1, ci95=(-0.2, 0.0), r2=1.0)


class TestEstimateH2:
    def test_quadratic_constant_four(self):
        curve = estimate_h2(SPEC_BM1, QUAD1, [0.2, 0.5, 0.8], 1000, 5)
        for _, h2, se in curve.points:
            assert h2 == pytest.approx(4.0)
            assert se == pytest.approx(0.0, abs=1e-12)

    def test_digital_positive_infimum(self):
        curve = estimate_h2(
            SPEC_GBM, DIGITAL, np.linspace(0.1, 0.9, 9), 50000, 5
        )
        h2_min, se = curve.infimum()
        assert h2_min - 3.0 * se > 0.0

    @pytest.mark.parametrize("u, want", [(0.5, 0.172848), (0.9, 1.690110)])
    def test_digital_matches_exact(self, u, want):
        # s = K = x0 = T = 1: s^2 x^2 Gamma = -phi(d2) d1 / tau, so H^2(u)
        # is E[(phi(d2) d1 / tau)^2] over X_u = exp(sqrt(u) Z - u / 2)
        from scipy.integrate import quad
        from scipy.stats import norm

        tau = 1.0 - u

        def integrand(z):
            d2 = (math.sqrt(u) * z - u / 2.0 - tau / 2.0) / math.sqrt(tau)
            g = norm.pdf(d2) * (d2 + math.sqrt(tau)) / tau
            return g * g * norm.pdf(z)

        exact = quad(integrand, -np.inf, np.inf, epsrel=1e-12)[0]
        assert exact == pytest.approx(want, rel=3e-6)
        [(_, h2, se)] = estimate_h2(SPEC_GBM, DIGITAL, [u], 50000, 2).points
        # over seeds 1-40 at u = 0.5, z had mean 0.06, sd 1.00, max |z| 2.78
        assert abs(h2 - exact) < 4.0 * se

    def test_nonnegative_up_to_noise(self):
        curve = estimate_h2(SPEC_GBM, DIGITAL, [0.3, 0.6], 20000, 7)
        for _, h2, se in curve.points:
            assert h2 >= -3.0 * se

    def test_diagonal_equivalence_with_pair_sum(self):
        # for diagonal models H^2(u) equals the sum over coordinate pairs of
        # E[A_aa A_bb (d2F_ab)^2] -- same samples, so equality is numerical
        from hedgenet.analysis import _pair_moments
        from hedgenet.models import one_step_states
        from hedgenet.models import a_matrix

        pr = make_pricing("product", {"factors": [
            {"kind": "call", "K": 1.0, "s": 1.0},
            {"kind": "digital", "K": 1.0, "s": 1.0},
        ]}, 1.0)
        spec = gbm_diagonal(2, 1.0, [1.0, 1.0])
        u = 0.5
        curve = estimate_h2(spec, pr, [u], 20000, 3)
        [x] = one_step_states(spec, 1.0, [1.0 - u], 20000, 3)
        mean, _ = _pair_moments(spec, pr, 1.0 - u, x)
        assert curve.points[0][1] == pytest.approx(mean.sum(), rel=1e-10)


@pytest.mark.parametrize("n_paths", [0, 1])
@pytest.mark.parametrize("estimate", [estimate_theta, estimate_h2])
def test_a_standard_error_needs_two_paths(estimate, n_paths, monkeypatch):
    import hedgenet.models as models

    drawn = []
    monkeypatch.setattr(models, "normals", lambda *a, **k: drawn.append(a))
    with pytest.raises(ValueError, match="n_paths must be an integer >= 2"):
        estimate(SPEC_GBM, DIGITAL, [0.5], n_paths, 3)
    assert drawn == []


#: each samples X_tau in one step from x0, after checking its arguments
ONE_STEP_SAMPLERS = {
    "estimate_theta": lambda spec: estimate_theta(
        spec, QUAD1, [0.5, 0.1, 0.01], 100),
    "estimate_h2": lambda spec: estimate_h2(spec, QUAD1, [0.5], 100),
}


@pytest.mark.parametrize("name", sorted(ONE_STEP_SAMPLERS))
def test_one_step_samplers_refuse_a_payoff_the_model_does_not_price(
        name, monkeypatch):
    import hedgenet.models as models

    drawn = []
    monkeypatch.setattr(models, "normals", lambda *a, **k: drawn.append(a))
    # |x|^2 + tau is the price at sigma = 1, not at sigma = 2
    with pytest.raises(ArgumentError, match="bm_quadratic prices"):
        ONE_STEP_SAMPLERS[name](bm_constant([[2.0]], [0.0]))
    assert drawn == []
