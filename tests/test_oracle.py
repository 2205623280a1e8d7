import copy
import itertools
import zlib

import numpy as np
import pytest
from scipy.stats import norm

from hedgenet.cli import DEFAULT_CONFIG, build_pricing, build_spec
from hedgenet.hedging import estimate_l2_error
from hedgenet.models import a_matrix, bm_constant, gbm_diagonal
from hedgenet.oracle import (
    analytic_quadratic_error,
    mc_payoff_expectation,
    pde_residual,
)
from hedgenet.pricing import BMQuadratic, check_priced, make_pricing
from hedgenet.rng import ArgumentError
from hedgenet.timenets import TimeNet, equidistant_net, eta_net

SPEC_GBM = gbm_diagonal(1, 1.0, 1.0)


class TestPdeResidual:
    def test_quadratic_near_exact(self):
        spec = bm_constant(np.eye(1), [0.5])
        r = pde_residual(spec, BMQuadratic(1, 1.0), 0.5, [0.5])
        assert r.relative <= 1e-8

    @pytest.mark.parametrize("sigma", [[[2.0]], [[1.5, 0.0], [0.3, 0.8]]])
    def test_quadratic_at_the_models_tr_a(self, sigma):
        # |x|^2 + tr(A) tau is the price at every constant sigma; at tr A = d
        # it is not, and check_priced says so
        spec = bm_constant(sigma, 0.5, corr=None)
        tr_a = np.trace(a_matrix(spec, spec.x0))
        assert tr_a != spec.d
        x = [0.5, -0.3][:spec.d]
        r = pde_residual(spec, BMQuadratic(spec.d, 1.0, tr_a), 0.5, x)
        assert r.relative <= 1e-8
        check_priced(spec, BMQuadratic(spec.d, 1.0, tr_a))
        assert pde_residual(spec, BMQuadratic(spec.d, 1.0), 0.5,
                            x).relative > 1e-3
        with pytest.raises(ArgumentError, match="bm_quadratic prices"):
            check_priced(spec, BMQuadratic(spec.d, 1.0))

    def test_digital_closed_form(self):
        r = pde_residual(SPEC_GBM, make_pricing("digital", {}, 1.0), 0.5, [1.0])
        assert r.relative <= 1e-4

    def test_product_d3(self):
        pr = make_pricing("product", {"factors": [
            {"kind": "call", "K": 1.0, "s": 1.0},
            {"kind": "power", "K": 1.0, "alpha": 0.25, "s": 1.0},
            {"kind": "digital", "K": 1.0, "s": 1.0},
        ]}, 1.0)
        spec = gbm_diagonal(3, 1.0, np.ones(3))
        r = pde_residual(spec, pr, 0.5, [1.0, 1.0, 1.0])
        assert r.relative <= 1e-3

    @pytest.mark.parametrize("key,params,tol", [
        ("digital", {"K": 1.0, "s": 1.0}, 1e-4),
        ("call", {"K": 1.0, "s": 1.0}, 1e-4),
        ("power", {"K": 1.0, "alpha": 0.25, "s": 1.0}, 1e-3),
        ("power", {"K": 0.0, "alpha": 0.25, "s": 1.0}, 1e-8),
    ])
    def test_random_bulk_points(self, key, params, tol):
        pr = make_pricing(key, params, 1.0)
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        for _ in range(50):
            t = rng.uniform(0.05, 0.95)
            x = rng.uniform(0.3, 4.0, 1)
            r = pde_residual(SPEC_GBM, pr, t, x)
            assert r.relative <= tol, (t, x, r.relative)

    def test_call_deep_in_the_money_rounding_floor(self):
        # the PDE terms are ~1e-7 here, so the residual of the time
        # difference is rounding: ~3e-11 against a floor of ~6e-11
        pr = make_pricing("call", {"K": 1.0, "s": 1.0}, 1.0)
        r = pde_residual(SPEC_GBM, pr, 0.947, [3.73])
        assert r.scale < 1e-6
        assert 0.0 < r.floor < 1e-10
        assert r.relative <= 1e-4, (r.residual, r.scale, r.floor)

    def test_sum_digital_bulk(self):
        pr = make_pricing("sum_digital_2d", {"K": 2.0}, 1.0)
        spec = gbm_diagonal(2, 1.0, [1.0, 1.0])
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = rng.uniform(0.05, 0.95)
            x = rng.uniform(0.5, 2.5, 2)
            r = pde_residual(spec, pr, t, x)
            assert r.relative <= 1e-3, (t, x, r.relative)

    def test_rejects_boundary_time(self):
        with pytest.raises(ValueError):
            pde_residual(SPEC_GBM, make_pricing("digital", {}, 1.0), 0.999, [1.0])


class TestAnalyticQuadraticError:
    def test_examples(self):
        assert analytic_quadratic_error(TimeNet(1.0, np.array([1.0, 0.0])), 1, 1.0) == 2.0
        assert analytic_quadratic_error(equidistant_net(1.0, 4), 1, 1.0) == \
            pytest.approx(0.5)
        net = TimeNet(1.0, np.array([1.0, 0.25, 0.0]))
        assert analytic_quadratic_error(net, 2, 1.0) == pytest.approx(2.5)

    def test_mc_validation_n1(self):
        # the formula's base case against a large direct MC
        from hedgenet.rng import normals

        z = normals(2024, np.arange(1_000_000), 0, 1)[:, 0]
        err = z * z - 1.0
        m = (err * err).mean()
        se = (err * err).std(ddof=1) / 1000.0
        assert abs(m - 2.0) < 3.0 * se

    @pytest.mark.parametrize("eta", [None, 0.5])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_agrees_with_engine(self, eta, n):
        net = (equidistant_net(1.0, n) if eta is None
               else eta_net(1.0, n, eta))
        spec = bm_constant(np.eye(1), [0.0])
        est = estimate_l2_error(spec, BMQuadratic(1, 1.0), net, 50000,
                                8)["terminal"]
        cf = analytic_quadratic_error(net, 1, 1.0)
        assert abs(est.mean_sq - cf) < 3.0 * est.stderr_mean_sq

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            analytic_quadratic_error(equidistant_net(2.0, 4), 1, 1.0)


class TestMcPayoffExpectation:
    def test_digital(self):
        pr = make_pricing("digital", {"K": 1.0, "s": 1.0}, 1.0)
        m, se = mc_payoff_expectation(SPEC_GBM, pr, 100000, 12)
        assert abs(m - norm.cdf(-0.5)) < 3.0 * se

    def test_zero_strike_call_martingale(self):
        m, se = mc_payoff_expectation(
            SPEC_GBM, lambda x: x[:, 0], 100000, 12, T=1.0
        )
        assert abs(m - 1.0) < 3.0 * se

    def test_product_factorizes(self):
        pr = make_pricing("product", {"factors": [
            {"kind": "call", "K": 1.0, "s": 1.0},
            {"kind": "digital", "K": 1.0, "s": 1.0},
        ]}, 1.0)
        spec = gbm_diagonal(2, 1.0, [1.0, 1.0])
        m, se = mc_payoff_expectation(spec, pr, 200000, 12)
        prod = pr.value(1.0, np.array([[1.0, 1.0]]))[0]
        assert abs(m - prod) < 3.0 * se

    def test_catalogue_values_match_mc(self):
        cases = [
            ("call", {"K": 1.0, "s": 1.0}, SPEC_GBM),
            ("power", {"K": 1.0, "alpha": 0.25, "s": 1.0}, SPEC_GBM),
            ("sum_digital_2d", {"K": 2.0}, gbm_diagonal(2, 1.0, [1.0, 1.0])),
        ]
        for key, params, spec in cases:
            pr = make_pricing(key, params, 1.0)
            m, se = mc_payoff_expectation(spec, pr, 1_000_000, 99)
            v = pr.value(1.0, np.asarray([spec.x0]))[0]
            assert abs(v - m) < 3.0 * se, key


#: the models of the pair test: case, d, corr, vols (C2) or sigma (C1)
PAIR_MODELS = [
    (case, d, corr, unit)
    for case, d, unit in itertools.product(("C1", "C2"), (1, 2),
                                           (True, False))
    for corr in ((None,) if d == 1 else (None, 0.5))
]

#: every payoff key, and with vols of its own, which the CLI refuses
PAIR_PAYOFFS = {
    **{key: (key, {}) for key in ("call", "digital", "power")},
    **{f"{key}-s2": (key, {"s": 2.0}) for key in ("call", "digital", "power")},
    "product-1": ("product", {"factors": [{"kind": "power"}]}),
    "product-2": ("product", {"factors": [{"kind": "call"},
                                          {"kind": "digital", "K": 1.2}]}),
    "product-const": ("product", {"factors": [{"kind": "const"},
                                              {"kind": "call"}]}),
    "sum_digital_2d": ("sum_digital_2d", {}),
    "sum_digital_2d-s2": ("sum_digital_2d", {"s": [2.0, 1.0]}),
    "bm_quadratic": ("bm_quadratic", {}),
}

#: criterion 11's residual tolerances: closed forms, quadratures, the oracle
PAIR_TOL = {"call": 1e-4, "digital": 1e-4, "power": 1e-3, "product": 1e-3,
            "sum_digital_2d": 1e-3, "bm_quadratic": 1e-8}

#: interior (t, x) states, x cut to the model's d
PAIR_STATES = [(0.3, [0.8, 1.2]), (0.5, [1.0, 1.0]), (0.7, [1.25, 0.9])]


def pair_config(model, payoff):
    case, d, corr, unit = model
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    m = cfg["model"]
    m.update(case=case, d=d, x0=[1.0] * d)
    if corr is not None:
        m["corr"] = [[1.0, corr], [corr, 1.0]]
    if case == "C2":
        m["s"] = [1.0] * d if unit else [1.5, 0.8][:d]
    elif not unit:
        m["sigma"] = [[1.5, 0.0], [0.3, 0.8]] if d == 2 else [[1.5]]
    key, params = PAIR_PAYOFFS[payoff]
    cfg["payoff"].update(key=key, params=copy.deepcopy(params))
    return cfg


@pytest.mark.parametrize("payoff", sorted(PAIR_PAYOFFS))
@pytest.mark.parametrize("model", PAIR_MODELS, ids=str)
def test_every_accepted_pair_is_priced_or_refused(model, payoff):
    # the engine hedges with F only if F solves the model's backward PDE:
    # check_priced refuses the pair, or pde_residual finds F the price
    cfg = pair_config(model, payoff)
    try:
        spec = build_spec(cfg)
        pricing = build_pricing(cfg, spec)
    except ArgumentError:
        return  # the CLI builds no such pair
    tol = PAIR_TOL[cfg["payoff"]["key"]]
    try:
        check_priced(spec, pricing)
    except ArgumentError as e:
        if pricing.d == spec.d:
            assert "the payoff's price is not the model's" in str(e)
            # refused with cause: F misses the model's PDE somewhere
            assert max(pde_residual(spec, pricing, t, x[:spec.d]).relative
                       for t, x in PAIR_STATES) > tol
        return
    for t, x in PAIR_STATES:
        r = pde_residual(spec, pricing, t, x[:spec.d])
        assert r.relative <= tol, (t, x, r.relative)


def test_pair_test_sees_both_outcomes():
    outcomes = set()
    for model, payoff in itertools.product(PAIR_MODELS, PAIR_PAYOFFS):
        cfg = pair_config(model, payoff)
        try:
            spec = build_spec(cfg)
            pricing = build_pricing(cfg, spec)
        except ArgumentError:
            outcomes.add("not built")
            continue
        try:
            check_priced(spec, pricing)
            outcomes.add("priced")
        except ArgumentError as e:
            outcomes.add("refused: dimension" if pricing.d != spec.d
                         else "refused: price")
    assert outcomes == {"not built", "priced", "refused: dimension",
                        "refused: price"}


class TestCheckPriced:
    CALLS = make_pricing("product", {"factors": [
        {"kind": "call", "K": 1.0, "s": 1.0},
        {"kind": "call", "K": 1.0, "s": 1.0}]}, 1.0)

    def test_identity_corr_is_independence(self):
        check_priced(gbm_diagonal(2, 1.0, 1.0, corr=np.eye(2)), self.CALLS)
        check_priced(bm_constant(np.eye(2), 0.0, corr=np.eye(2)),
                     BMQuadratic(2, 1.0))

    def test_vols_must_be_equal_not_close(self):
        spec = gbm_diagonal(2, [1.0, np.nextafter(1.0, 2.0)], 1.0)
        with pytest.raises(ArgumentError, match="coordinate 1 is priced"):
            check_priced(spec, self.CALLS)

    def test_drift_is_free(self):
        check_priced(gbm_diagonal(2, 1.0, 1.0, mu=[0.3, -0.1]), self.CALLS)
        check_priced(bm_constant(np.eye(1), 0.0, drift=[0.2]),
                     BMQuadratic(1, 1.0))

    def test_other_pricing_is_checked_for_its_dimension_only(self):
        class Pricing:
            d = 1

        check_priced(bm_constant([[2.0]], 0.0), Pricing())
        with pytest.raises(ArgumentError, match="dimension 1, the model 2"):
            check_priced(gbm_diagonal(2, 1.0, 1.0), Pricing())
