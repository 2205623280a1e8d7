import math

import numpy as np
import pytest

import hedgenet.hedging as hedging
from hedgenet.analysis import fit_rate
from hedgenet.hedging import (
    BATCH_SIZE,
    ErrorCurvePoint,
    HedgeErrorEstimate,
    error_curve,
    estimate_l2_error,
    estimate_sweep,
    path_error,
)
from hedgenet.models import bm_constant, gbm_diagonal, path_states
from hedgenet.oracle import analytic_quadratic_error
from hedgenet.pricing import BMQuadratic, Factor1D, ProductPricing, make_pricing
from hedgenet.rng import ArgumentError, SeedSpec, normals
from hedgenet.timenets import equidistant_net, eta_net, refine

SPEC_BM1 = bm_constant(np.eye(1), [0.0])
QUAD1 = BMQuadratic(1, 1.0)
SPEC_GBM = gbm_diagonal(1, 1.0, 1.0)
DIGITAL = make_pricing("digital", {"K": 1.0, "s": 1.0}, 1.0)


class TestPathError:
    def test_single_interval_quadratic(self):
        # n=1, f = x^2 under BM from 0: error = W_1^2 - 1 exactly
        net = equidistant_net(1.0, 1)
        for i in range(10):
            term, sup = path_error(SPEC_BM1, QUAD1, net, 4, SeedSpec(3, i))
            # the monitoring grid has 4 steps of size 1/4
            w1 = sum(0.5 * normals(3, i, j, 1)[0] for j in range(4))
            assert term == pytest.approx(w1 * w1 - 1.0, rel=1e-10)
            assert sup >= abs(term)

    def test_linear_payoff_perfect_hedge(self):
        # driftless forward: delta is constant, discrete hedge is exact
        pr = ProductPricing([Factor1D("call", K=1e-300, s=1.0)], 1.0)
        net = equidistant_net(1.0, 4)
        for i in range(5):
            term, sup = path_error(SPEC_GBM, pr, net, 4, SeedSpec(8, i))
            assert abs(term) < 1e-10
            assert sup < 1e-10

    def test_reproducible(self):
        net = equidistant_net(1.0, 2)
        a = path_error(SPEC_GBM, DIGITAL, net, 4, SeedSpec(5, 7))
        b = path_error(SPEC_GBM, DIGITAL, net, 4, SeedSpec(5, 7))
        assert a == b

    def test_sup_dominates_terminal(self):
        net = eta_net(1.0, 8, 0.75)
        for i in range(20):
            term, sup = path_error(SPEC_GBM, DIGITAL, net, 8, SeedSpec(1, i))
            assert sup >= abs(term)

    @pytest.mark.parametrize("n_paths", [4096, 6000])
    def test_power_path_error_is_its_row_in_a_batch(self, n_paths):
        # a power price is a function of (tau, x): a path's errors do not
        # depend on the batch it is hedged in
        power = make_pricing("power", {"K": 1.0, "alpha": 0.25, "s": 1.0},
                             1.0)
        net = eta_net(1.0, 16, 0.75)
        plans = hedging._plans(SPEC_GBM, power, [[net]], 32, want_sup=True)
        [[(term, sup)]] = hedging._batch_errors(
            SPEC_GBM, power, plans, 5, np.arange(n_paths, dtype=np.uint64))
        for i in range(8):
            got = path_error(SPEC_GBM, power, net, 32, SeedSpec(5, i))
            assert got == (term[i], sup[i])


class TestEstimateL2:
    def test_quadratic_closed_form_n4(self):
        net = equidistant_net(1.0, 4)
        est = estimate_l2_error(SPEC_BM1, QUAD1, net, 100000, 42)["terminal"]
        assert abs(est.mean_sq - 0.5) < 3.0 * est.stderr_mean_sq
        assert est.rms == pytest.approx(np.sqrt(est.mean_sq))

    def test_quadratic_d3_additivity(self):
        spec3 = bm_constant(np.eye(3), np.zeros(3))
        net = equidistant_net(1.0, 4)
        est = estimate_l2_error(spec3, BMQuadratic(3, 1.0), net, 100000,
                                42)["terminal"]
        assert abs(est.mean_sq - 1.5) < 3.0 * est.stderr_mean_sq
        assert analytic_quadratic_error(net, 3, 1.0) == pytest.approx(1.5)

    def test_prefix_stability(self):
        net = equidistant_net(1.0, 2)
        small = estimate_l2_error(SPEC_GBM, DIGITAL, net, 20000, 9)["terminal"]
        # doubling N keeps the first paths identical, so the means are close
        # and single-path errors are bitwise equal
        a = path_error(SPEC_GBM, DIGITAL, net, 4, SeedSpec(9, 123))
        big = estimate_l2_error(SPEC_GBM, DIGITAL, net, 40000, 9)["terminal"]
        b = path_error(SPEC_GBM, DIGITAL, net, 4, SeedSpec(9, 123))
        assert a == b
        assert abs(small.mean_sq - big.mean_sq) < 5.0 * small.stderr_mean_sq

    def test_worker_count_invariance(self):
        net = eta_net(1.0, 8, 0.75)
        results = [
            estimate_l2_error(SPEC_GBM, DIGITAL, net, 50000, 77,
                              workers=w)["terminal"].mean_sq
            for w in (1, 4, 16)
        ]
        assert results[0] == results[1] == results[2]

    def test_power_factor_worker_count_invariance(self):
        # two batches with a power factor: the batch bounds, and so the
        # estimate, do not depend on the worker count
        power = make_pricing("power", {"K": 1.0, "alpha": 0.25, "s": 1.0},
                             1.0)
        results = [
            estimate_l2_error(SPEC_GBM, power, eta_net(1.0, 16, 0.75),
                              BATCH_SIZE + 4096, 5, workers=w)
            for w in (1, 2)
        ]
        assert results[0] == results[1]

    def test_both_modes(self):
        net = equidistant_net(1.0, 4)
        est = estimate_l2_error(SPEC_GBM, DIGITAL, net, 5000, 3,
                                error_mode="both", monitor_factor=16)
        assert set(est) == {"terminal", "running_sup"}
        assert est["running_sup"].mean_sq >= est["terminal"].mean_sq

    def test_monitoring_resolution_stability(self):
        net = equidistant_net(1.0, 8)
        sups = []
        for factor in (16, 32):  # M = 128, 256
            sups.append(estimate_l2_error(
                SPEC_GBM, DIGITAL, net, 50000, 5, error_mode="running_sup",
                monitor_factor=factor)["running_sup"])
        a, b = sups
        assert abs(a.mean_sq - b.mean_sq) < 3.0 * (
            a.stderr_mean_sq + b.stderr_mean_sq
        )


#: one bad argument of the engine each
BAD_ARGUMENTS = {
    "mode": {"error_mode": "max"},
    "no-paths": {"n_paths": 0},
    "factor-0": {"monitor_factor": 0},
    "factor-1.5": {"monitor_factor": 1.5},
    "horizon": {"net": equidistant_net(2.0, 4)},
    "dimension": {"spec": gbm_diagonal(2, 1.0, 1.0)},
    # a payoff that the model does not price (pricing.check_priced)
    "vols": {"spec": gbm_diagonal(1, 2.0, 1.0)},
    "corr": {"spec": gbm_diagonal(2, 1.0, 1.0, corr=[[1.0, 0.5], [0.5, 1.0]]),
             "pricing": make_pricing("product", {"factors": [
                 {"kind": "call", "K": 1.0}, {"kind": "call", "K": 1.0}]},
                 1.0)},
    "bm-sigma": {"spec": bm_constant([[2.0]], [0.0]), "pricing": QUAD1},
    "empty-family": {"net": None},
    # error_curve checks each n by building its net, and only then their order
    "n_list-str": {"n_list": [8, "16", 32, 64]},
    **{f"workers-{w}": {"workers": w} for w in (0, -3, 2.5, True)},
    **{f"seed-{name}": {"master_seed": seed} for name, seed in (
        ("1.5", 1.5), ("True", True), ("-1", -1), ("2**64", 2**64),
        ("str", "1"))},
}


class TestValidation:
    """Every argument of the engine is checked before any path is drawn."""

    # error_curve builds its nets at the payoff's horizon, and takes an
    # n_list; estimate_l2_error takes one net, never an empty family; and
    # path_error takes a net, a monitor_factor and a seed
    @pytest.mark.parametrize("entry, case", [
        (entry, case)
        for entry in ("estimate_sweep", "estimate_l2_error", "error_curve")
        for case in BAD_ARGUMENTS
        if (entry, case) not in {("error_curve", "horizon"),
                                 ("estimate_l2_error", "empty-family")}
        and (case != "n_list-str" or entry == "error_curve")
    ] + [("path_error", case) for case in ("horizon", "dimension", "vols",
                                           "corr", "bm-sigma", "factor-0",
                                           "factor-1.5")])
    def test_bad_argument_fails_before_any_draw(self, entry, case,
                                                monkeypatch):
        import hedgenet.models as models

        drawn = []
        monkeypatch.setattr(models, "normals",
                            lambda *a, **k: drawn.append(a))
        with pytest.raises(ArgumentError):
            self.call(entry, **BAD_ARGUMENTS[case])
        assert drawn == []

    @staticmethod
    def call(entry, spec=SPEC_GBM, pricing=DIGITAL,
             net=equidistant_net(1.0, 4), n_paths=100, master_seed=0,
             n_list=None, **kw):
        if entry == "path_error":
            return path_error(spec, pricing, net,
                              kw.get("monitor_factor", 4),
                              SeedSpec(master_seed))
        if entry == "estimate_sweep":
            return estimate_sweep(spec, pricing,
                                  [[] if net is None else [net]],
                                  n_paths, master_seed, **kw)
        if entry == "estimate_l2_error":
            return estimate_l2_error(spec, pricing, net, n_paths,
                                     master_seed, **kw)
        if n_list is None:
            n_list = [] if net is None else [net.n_intervals]
        return error_curve(spec, pricing, n_list, [0.0], n_paths,
                           master_seed, **kw)


class TestErrorCurve:
    def test_quadratic_halves_per_doubling(self):
        [pts] = error_curve(SPEC_BM1, QUAD1, [1, 2, 4, 8], [0.0], 50000, 11)
        for a, b in zip(pts, pts[1:]):
            ratio = b.estimate.mean_sq / a.estimate.mean_sq
            assert ratio == pytest.approx(0.5, abs=0.05)

    def test_families_label(self):
        et, eq = error_curve(SPEC_GBM, DIGITAL, [8, 16], [0.75, 0.0], 2000,
                             1)
        assert all(p.family == "eta" and p.eta == 0.75 for p in et)
        assert all(p.family == "equidistant" for p in eq)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            error_curve(SPEC_GBM, DIGITAL, [16, 8], [0.0], 100, 0)

    def test_net_family_separation(self):
        # the headline effect, at modest N
        ns = [32, 64, 128]
        eq, et = error_curve(SPEC_GBM, DIGITAL, ns, [0.0, 0.75], 20000, 13)
        ratios = [
            b.estimate.rms / a.estimate.rms for a, b in zip(eq, et)
        ]
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] < ratios[0]


class TestNestedSweep:
    NS = [8, 16, 32, 64]

    def test_largest_n_matches_standalone_terminal(self):
        [pts] = error_curve(SPEC_GBM, DIGITAL, self.NS, [0.75], 5000, 21)
        net = eta_net(1.0, self.NS[-1], 0.75)
        alone = estimate_l2_error(SPEC_GBM, DIGITAL, net, 5000, 21)["terminal"]
        assert pts[-1].estimate == alone

    def test_largest_n_matches_standalone_both_modes(self):
        nets = [eta_net(1.0, n, 0.75) for n in self.NS]
        settings = dict(error_mode="both", monitor_factor=8)
        [sweep] = estimate_sweep(SPEC_GBM, DIGITAL, [nets], 3000, 22,
                                 **settings)
        assert sweep[-1] == estimate_l2_error(SPEC_GBM, DIGITAL, nets[-1],
                                              3000, 22, **settings)
        assert set(sweep[0]) == {"terminal", "running_sup"}

    def test_worker_count_invariance(self):
        n_paths = 2 * BATCH_SIZE + 1000  # three batches
        runs = [
            error_curve(SPEC_GBM, DIGITAL, [8, 16, 32], [0.75], n_paths, 23,
                        workers=w)
            for w in (1, 3)
        ]
        assert runs[0] == runs[1]

    def test_non_nested_agrees_with_standalone(self):
        ns = [8, 12, 20, 30]
        [pts] = error_curve(SPEC_GBM, DIGITAL, ns, [0.75], 20000, 24)
        for p, net in zip(pts, [eta_net(1.0, n, 0.75) for n in ns]):
            alone = estimate_l2_error(SPEC_GBM, DIGITAL, net, 20000,
                                      24)["terminal"]
            se = np.hypot(p.estimate.stderr_mean_sq, alone.stderr_mean_sq)
            assert abs(p.estimate.mean_sq - alone.mean_sq) < 4.0 * se

    def test_jackknife_ci_covers_exact_slope(self):
        # E|error|^2 = 2 / n exactly for x^2 under BM, so the slope is -1/2
        covered = 0
        for seed in range(40):
            [pts] = error_curve(SPEC_BM1, QUAD1, [8, 16, 32, 64, 128],
                                [0.0], 4000, seed)
            fit = fit_rate(
                [(p.n, p.estimate.rms) for p in pts],
                jackknife=[p.estimate.jackknife_rms() for p in pts],
            )
            covered += fit.ci95_slope[0] <= -0.5 <= fit.ci95_slope[1]
        assert covered >= 34

    def test_group_sums_add_up(self):
        est = estimate_l2_error(SPEC_GBM, DIGITAL, equidistant_net(1.0, 4),
                                BATCH_SIZE + 500, 25)["terminal"]
        assert len(est.group_sq_sums) == 16
        assert sum(est.group_sq_sums) == pytest.approx(
            est.mean_sq * est.n_paths, rel=1e-12
        )
        loo = est.jackknife_rms()
        assert min(loo) < est.rms < max(loo)

    def test_sums_are_the_array_fsums(self, monkeypatch):
        # per batch, the sums of e^2 and e^4 and the group sums of e^2 are
        # bitwise math.fsum over the error arrays, in both modes
        def errors(spec, pricing, plans, seed, idx):
            u = np.sin(idx.astype(float) * 0.37) * (1.0 + idx % 7)
            return [[(u, u * 1e-3 + 1e5)] for _ in plans]

        monkeypatch.setattr(hedging, "_batch_errors", errors)
        n = BATCH_SIZE + 500
        est = estimate_l2_error(SPEC_GBM, DIGITAL, equidistant_net(1.0, 4), n,
                                25, error_mode="both")
        bounds = hedging._group_bounds(n)
        for mode, k in (("terminal", 0), ("running_sup", 1)):
            s2, s4, groups = [], [], [[] for _ in bounds[1:]]
            for lo in range(0, n, BATCH_SIZE):
                hi = min(lo + BATCH_SIZE, n)
                idx = np.arange(lo, hi, dtype=np.uint64)
                e2 = errors(None, None, [0], 0, idx)[0][0][k] ** 2
                s2.append(math.fsum(e2))
                s4.append(math.fsum(e2 * e2))
                for g, (a, c) in enumerate(zip(bounds, bounds[1:])):
                    if a < hi and c > lo:
                        groups[g].append(
                            math.fsum(e2[max(a, lo) - lo:min(c, hi) - lo]))
            want = HedgeErrorEstimate(
                mean_sq=math.fsum(s2) / n,
                stderr_mean_sq=math.sqrt(max(
                    math.fsum(s4) / n - (math.fsum(s2) / n) ** 2, 0.0) / n),
                n_paths=n, mode=mode,
                group_sq_sums=tuple(math.fsum(g) for g in groups))
            assert est[mode] == want


class TestJointSweeps:
    """Families hedged in one pass share the draws of each step index, and
    every estimate equals that of a separate pass of its family."""

    NS = [8, 12, 16]  # not nested
    ETAS = [0.0, 0.75]

    #: an equidistant family over NS and an eta family over 8 and 16
    FAMILIES = [[eta_net(1.0, n, 0.0) for n in NS],
                [eta_net(1.0, n, 0.75) for n in [8, 16]]]

    @staticmethod
    def sweep(families, mode, n_paths, workers=1):
        return estimate_sweep(SPEC_GBM, DIGITAL, families, n_paths, 31,
                              error_mode=mode, workers=workers,
                              monitor_factor=4)

    @staticmethod
    def union_steps(nets, mode):
        """Steps of a family's union grid in ``mode``."""
        return hedging._plan(
            [net.taus if mode == "terminal"
             else refine(net, 4 * net.n_intervals) for net in nets],
            [net.taus for net in nets], False,
        ).times.size - 1

    @pytest.mark.parametrize("mode", ["terminal", "both"])
    def test_joint_equals_separate(self, mode):
        # two batches, so the worker threads draw too
        n_paths = BATCH_SIZE + 500
        assert len({self.union_steps(nets, mode)
                    for nets in self.FAMILIES}) == 2
        separate = [self.sweep([nets], mode, n_paths)[0]
                    for nets in self.FAMILIES]
        for workers in (1, 2):
            joint = self.sweep(self.FAMILIES, mode, n_paths, workers)
            assert joint == separate
        assert all(set(est) == ({"terminal"} if mode == "terminal" else
                                {"terminal", "running_sup"})
                   for fam in separate for est in fam)
        assert all(len(est["terminal"].group_sq_sums) == 16
                   for fam in separate for est in fam)

    def test_error_curve_equals_one_family_calls(self):
        joint = error_curve(SPEC_GBM, DIGITAL, self.NS, self.ETAS, 3000, 32,
                            error_mode="both", monitor_factor=4)
        alone = [error_curve(SPEC_GBM, DIGITAL, self.NS, [eta], 3000, 32,
                             error_mode="both", monitor_factor=4)[0]
                 for eta in self.ETAS]
        assert joint == alone

    def test_draws_each_step_index_once(self, monkeypatch):
        import hedgenet.models as models

        drawn, steps = [], []
        real_normals, real_step = models.normals, models.exact_step
        monkeypatch.setattr(models, "normals", lambda *a, **k: (
            drawn.append(a[2]) or real_normals(*a, **k)))
        monkeypatch.setattr(models, "exact_step", lambda *a: (
            steps.append(a[2]) or real_step(*a)))
        self.sweep(self.FAMILIES, "both", 100)
        sizes = [self.union_steps(nets, "both") for nets in self.FAMILIES]
        assert drawn == list(range(max(sizes)))
        assert len(steps) == sum(sizes)

    def test_rejects_an_empty_sweep(self):
        with pytest.raises(ValueError):
            self.sweep([[], self.FAMILIES[0]], "terminal", 100)
        with pytest.raises(ValueError):
            self.sweep([], "terminal", 100)


class TestHedgeIncrement:
    """The hedge increment's row dot product keeps the bits of
    ``(dx * grad).sum(axis=1)`` on C-ordered rows, whatever the layout of
    its inputs: a column sum up to d = 7, numpy's pairwise sum from d = 8
    on."""

    @staticmethod
    def c_ordered_row_sum(dx, grad):
        return (np.ascontiguousarray(dx) * np.ascontiguousarray(grad)).sum(
            axis=1)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_row_dots_is_the_row_sum(self, d):
        rng = np.random.default_rng(d)
        dx = rng.normal(size=(1000, d))
        # a full gradient, and the broadcast one of t = 0
        for grad in (rng.normal(size=(1000, d)),
                     np.broadcast_to(rng.normal(size=d), (1000, d))):
            want = (dx * grad).sum(axis=1)
            # C-ordered and coordinate-major inputs, the latter as the
            # engine allocates its dx, which the row dot overwrites
            for a, g in ((dx, grad),
                         (np.asfortranarray(dx), np.asfortranarray(grad)),
                         (np.asfortranarray(dx), grad)):
                assert (self.c_ordered_row_sum(a, g).tobytes()
                        == want.tobytes())
                got = hedging._row_dots(a.copy(order="K"), g, np.empty(1000))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [3, 8])
    def test_sweep_equals_the_row_sum_form(self, d, monkeypatch):
        kinds = ["call", "digital", "const", "call"]
        spec = gbm_diagonal(d, 0.6, 1.0)
        pricing = ProductPricing([Factor1D(kinds[i % 4], s=0.6)
                                  for i in range(d)], 1.0)

        def sweep():
            return [p.estimate for p in error_curve(
                spec, pricing, [2, 4, 8], [0.0], 500, 17)[0]]

        got = sweep()
        monkeypatch.setattr(hedging, "_row_dots",
                            lambda dx, grad, dots:
                            self.c_ordered_row_sum(dx, grad))
        assert got == sweep()


class TestPerIntervalIncrement:
    """A net's gain moves once per rebalancing interval, by
    grad F(tau_{k-1}, X_{k-1}) . (X_k - X_{k-1}); at a monitoring time in
    between, the running sup reads the gain plus the open interval's
    increment."""

    @pytest.mark.parametrize("eta", [0.75, 0.0])
    def test_errors_are_sums_over_intervals(self, eta):
        nets = [eta_net(1.0, n, eta) for n in (4, 8, 16)]
        plans = hedging._plans(SPEC_GBM, DIGITAL, [nets], 4, want_sup=True)
        idx = np.arange(64, dtype=np.uint64)
        [got] = hedging._batch_errors(SPEC_GBM, DIGITAL, plans, 9, idx)
        x0 = np.broadcast_to(SPEC_GBM.x0, (idx.size, 1))
        v0 = DIGITAL.value(1.0, x0)
        # every state of the union grid, by its time to maturity
        states = {1.0: x0}
        states.update((plans[0].times[j], x) for _, j, x in
                      path_states(SPEC_GBM, [plans[0].times], 9, idx))
        for net, (terminal, sup) in zip(nets, got):
            knots = set(net.taus)
            gain, want_sup = np.zeros(idx.size), np.zeros(idx.size)
            x_k, grad = x0, DIGITAL.gradient(1.0, x0)
            for tau in refine(net, 4 * net.n_intervals)[1:]:
                x = states[tau]
                # the row sum, whose bits _row_dots keeps
                now = gain + ((x - x_k) * grad).sum(axis=1)
                if tau == 0.0:
                    break
                want_sup = np.maximum(
                    want_sup, np.abs(DIGITAL.value(tau, x) - v0 - now))
                if tau in knots:
                    gain, x_k, grad = now, x, DIGITAL.gradient(tau, x)
            want = DIGITAL.payoff(x) - v0 - now
            want_sup = np.maximum(want_sup, np.abs(want))
            assert terminal.tobytes() == want.tobytes()
            assert sup.tobytes() == want_sup.tobytes()
