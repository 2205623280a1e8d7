import numpy as np
import pytest

from hedgenet.analysis import fit_rate
from hedgenet.hedging import (
    BATCH_SIZE,
    ErrorCurvePoint,
    HedgeErrorEstimate,
    HedgeExperiment,
    error_curve,
    estimate_l2_error,
    estimate_sweep,
    family_nets,
    path_error,
)
from hedgenet.models import bm_constant, gbm_diagonal
from hedgenet.oracle import analytic_quadratic_error
from hedgenet.pricing import BMQuadratic, Factor1D, ProductPricing, make_pricing
from hedgenet.rng import SeedSpec, normals
from hedgenet.timenets import EtaNetParams, equidistant_net, eta_net, refine

SPEC_BM1 = bm_constant(np.eye(1), [0.0])
QUAD1 = BMQuadratic(1, 1.0)
SPEC_GBM = gbm_diagonal(1, 1.0, 1.0)
DIGITAL = make_pricing("digital", {"K": 1.0, "s": 1.0}, 1.0)


class TestPathError:
    def test_single_interval_quadratic(self):
        # n=1, f = x^2 under BM from 0: error = W_1^2 - 1 exactly
        net = equidistant_net(1.0, 1)
        grid = refine(net, 4)
        for i in range(10):
            term, sup = path_error(SPEC_BM1, QUAD1, net, grid, SeedSpec(3, i))
            # the monitoring grid has 4 steps of size 1/4
            w1 = sum(0.5 * normals(3, i, j, 1)[0] for j in range(4))
            assert term == pytest.approx(w1 * w1 - 1.0, rel=1e-10)
            assert sup >= abs(term)

    def test_linear_payoff_perfect_hedge(self):
        # driftless forward: delta is constant, discrete hedge is exact
        pr = ProductPricing([Factor1D("call", K=1e-300, s=1.0, T=1.0)])
        net = equidistant_net(1.0, 4)
        grid = refine(net, 16)
        for i in range(5):
            term, sup = path_error(SPEC_GBM, pr, net, grid, SeedSpec(8, i))
            assert abs(term) < 1e-10
            assert sup < 1e-10

    def test_reproducible(self):
        net = equidistant_net(1.0, 2)
        grid = refine(net, 8)
        a = path_error(SPEC_GBM, DIGITAL, net, grid, SeedSpec(5, 7))
        b = path_error(SPEC_GBM, DIGITAL, net, grid, SeedSpec(5, 7))
        assert a == b

    def test_sup_dominates_terminal(self):
        net = eta_net(EtaNetParams(1.0, 8, 0.75))
        grid = refine(net, 64)
        for i in range(20):
            term, sup = path_error(SPEC_GBM, DIGITAL, net, grid, SeedSpec(1, i))
            assert sup >= abs(term)


class TestEstimateL2:
    def test_quadratic_closed_form_n4(self):
        net = equidistant_net(1.0, 4)
        exp = HedgeExperiment(SPEC_BM1, QUAD1, net, 100000, 42)
        est = estimate_l2_error(exp)["terminal"]
        assert abs(est.mean_sq - 0.5) < 3.0 * est.stderr_mean_sq
        assert est.rms == pytest.approx(np.sqrt(est.mean_sq))

    def test_quadratic_d3_additivity(self):
        spec3 = bm_constant(np.eye(3), np.zeros(3))
        net = equidistant_net(1.0, 4)
        est = estimate_l2_error(
            HedgeExperiment(spec3, BMQuadratic(3, 1.0), net, 100000, 42)
        )["terminal"]
        assert abs(est.mean_sq - 1.5) < 3.0 * est.stderr_mean_sq
        assert analytic_quadratic_error(net, 3, 1.0) == pytest.approx(1.5)

    def test_prefix_stability(self):
        net = equidistant_net(1.0, 2)
        grid = refine(net, 8)
        small = estimate_l2_error(
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 20000, 9)
        )["terminal"]
        # doubling N keeps the first paths identical, so the means are close
        # and single-path errors are bitwise equal
        a = path_error(SPEC_GBM, DIGITAL, net, grid, SeedSpec(9, 123))
        big = estimate_l2_error(
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 40000, 9)
        )["terminal"]
        b = path_error(SPEC_GBM, DIGITAL, net, grid, SeedSpec(9, 123))
        assert a == b
        assert abs(small.mean_sq - big.mean_sq) < 5.0 * small.stderr_mean_sq

    def test_worker_count_invariance(self):
        net = eta_net(EtaNetParams(1.0, 8, 0.75))
        results = [
            estimate_l2_error(
                HedgeExperiment(SPEC_GBM, DIGITAL, net, 50000, 77), workers=w
            )["terminal"].mean_sq
            for w in (1, 4, 16)
        ]
        assert results[0] == results[1] == results[2]

    def test_both_modes(self):
        net = equidistant_net(1.0, 4)
        exp = HedgeExperiment(
            SPEC_GBM, DIGITAL, net, 5000, 3, error_mode="both",
            monitor_points=64,
        )
        est = estimate_l2_error(exp)
        assert set(est) == {"terminal", "running_sup"}
        assert est["running_sup"].mean_sq >= est["terminal"].mean_sq

    def test_monitoring_resolution_stability(self):
        net = equidistant_net(1.0, 8)
        sups = []
        for M in (128, 256):
            exp = HedgeExperiment(
                SPEC_GBM, DIGITAL, net, 50000, 5, error_mode="running_sup",
                monitor_points=M,
            )
            sups.append(estimate_l2_error(exp)["running_sup"])
        a, b = sups
        assert abs(a.mean_sq - b.mean_sq) < 3.0 * (
            a.stderr_mean_sq + b.stderr_mean_sq
        )

    def test_validation(self):
        net = equidistant_net(2.0, 4)  # horizon mismatch
        with pytest.raises(ValueError):
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 100, 0)
        net = equidistant_net(1.0, 4)
        with pytest.raises(ValueError):
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 100, 0, monitor_points=2)
        with pytest.raises(ValueError):
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 100, 0, error_mode="max")


class TestErrorCurve:
    def test_quadratic_halves_per_doubling(self):
        pts = error_curve(SPEC_BM1, QUAD1, [1, 2, 4, 8], None, 50000, 11)
        for a, b in zip(pts, pts[1:]):
            ratio = b.estimate.mean_sq / a.estimate.mean_sq
            assert ratio == pytest.approx(0.5, abs=0.05)

    def test_families_label(self):
        pts = error_curve(SPEC_GBM, DIGITAL, [8, 16], 0.75, 2000, 1)
        assert all(p.family == "eta" and p.eta == 0.75 for p in pts)
        pts = error_curve(SPEC_GBM, DIGITAL, [8, 16], None, 2000, 1)
        assert all(p.family == "equidistant" for p in pts)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            error_curve(SPEC_GBM, DIGITAL, [16, 8], None, 100, 0)

    def test_net_family_separation(self):
        # the headline effect, at modest N
        ns = [32, 64, 128]
        eq = error_curve(SPEC_GBM, DIGITAL, ns, None, 20000, 13)
        et = error_curve(SPEC_GBM, DIGITAL, ns, 0.75, 20000, 13)
        ratios = [
            b.estimate.rms / a.estimate.rms for a, b in zip(eq, et)
        ]
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] < ratios[0]


class TestNestedSweep:
    NS = [8, 16, 32, 64]

    def test_largest_n_matches_standalone_terminal(self):
        pts = error_curve(SPEC_GBM, DIGITAL, self.NS, 0.75, 5000, 21)
        net = eta_net(EtaNetParams(1.0, self.NS[-1], 0.75))
        alone = estimate_l2_error(
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 5000, 21)
        )["terminal"]
        assert pts[-1].estimate == alone

    def test_largest_n_matches_standalone_both_modes(self):
        exps = [
            HedgeExperiment(SPEC_GBM, DIGITAL, net, 3000, 22,
                            error_mode="both", monitor_points=8 * n)
            for n, net in zip(self.NS, family_nets(1.0, self.NS, 0.75))
        ]
        sweep = estimate_sweep(exps)
        assert sweep[-1] == estimate_l2_error(exps[-1])
        assert set(sweep[0]) == {"terminal", "running_sup"}

    def test_worker_count_invariance(self):
        n_paths = 2 * BATCH_SIZE + 1000  # three batches
        runs = [
            error_curve(SPEC_GBM, DIGITAL, [8, 16, 32], 0.75, n_paths, 23,
                        workers=w)
            for w in (1, 3)
        ]
        assert runs[0] == runs[1]

    def test_non_nested_agrees_with_standalone(self):
        ns = [8, 12, 20, 30]
        pts = error_curve(SPEC_GBM, DIGITAL, ns, 0.75, 20000, 24)
        for p, net in zip(pts, family_nets(1.0, ns, 0.75)):
            alone = estimate_l2_error(
                HedgeExperiment(SPEC_GBM, DIGITAL, net, 20000, 24)
            )["terminal"]
            se = np.hypot(p.estimate.stderr_mean_sq, alone.stderr_mean_sq)
            assert abs(p.estimate.mean_sq - alone.mean_sq) < 4.0 * se

    def test_rejects_mixed_experiments(self):
        nets = family_nets(1.0, [4, 8], None)
        with pytest.raises(ValueError):
            estimate_sweep([
                HedgeExperiment(SPEC_GBM, DIGITAL, nets[0], 100, 1),
                HedgeExperiment(SPEC_GBM, DIGITAL, nets[1], 100, 2),
            ])

    def test_jackknife_ci_covers_exact_slope(self):
        # E|error|^2 = 2 / n exactly for x^2 under BM, so the slope is -1/2
        covered = 0
        for seed in range(40):
            pts = error_curve(SPEC_BM1, QUAD1, [8, 16, 32, 64, 128], None,
                              4000, seed)
            fit = fit_rate(
                [(p.n, p.estimate.rms) for p in pts],
                jackknife=[p.estimate.jackknife_rms() for p in pts],
            )
            covered += fit.ci95_slope[0] <= -0.5 <= fit.ci95_slope[1]
        assert covered >= 34

    def test_group_sums_add_up(self):
        est = estimate_l2_error(
            HedgeExperiment(SPEC_GBM, DIGITAL, equidistant_net(1.0, 4),
                            BATCH_SIZE + 500, 25)
        )["terminal"]
        assert len(est.group_sq_sums) == 16
        assert sum(est.group_sq_sums) == pytest.approx(
            est.mean_sq * est.n_paths, rel=1e-12
        )
        loo = est.jackknife_rms()
        assert min(loo) < est.rms < max(loo)
