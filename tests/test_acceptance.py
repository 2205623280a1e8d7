"""End-to-end acceptance checks.

Each test exercises one headline claim at its stated tolerance and prints a
single pass/fail line (visible even under output capture). The suite is
heavier than the unit tests; the rate sweeps use 4 worker threads.
"""

import math

import numpy as np
import pytest

from hedgenet.analysis import estimate_h2, estimate_theta, fit_rate
from hedgenet.hedging import error_curve, estimate_l2_error
from hedgenet.models import bm_constant, gbm_diagonal, one_step_states
from hedgenet.oracle import analytic_quadratic_error, pde_residual
from hedgenet.pricing import BMQuadratic, Factor1D, make_pricing
from hedgenet.timenets import (
    equidistant_net,
    eta_net,
    lemma_net_functional,
)

WORKERS = 4
SWEEP_NS = [8, 16, 32, 64, 128, 256, 512]

SPEC_GBM = gbm_diagonal(1, 1.0, 1.0)
DIGITAL = make_pricing("digital", {"K": 1.0, "s": 1.0}, 1.0)
CALL = make_pricing("call", {"K": 1.0, "s": 1.0}, 1.0)
POWER = make_pricing("power", {"K": 1.0, "alpha": 0.25, "s": 1.0}, 1.0)


def _verdict(capsys, num, name, ok, detail):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _slopes(spec, pricing, etas, n_paths, seed, ns=SWEEP_NS):
    """The fitted rate slope of each net family, all from one error_curve
    pass; each equals the slope of a pass with that family alone."""
    curves = error_curve(spec, pricing, ns, etas, n_paths, seed,
                         workers=WORKERS)
    return [fit_rate([(p.n, p.estimate.rms) for p in pts]).slope
            for pts in curves]


def _slope(spec, pricing, eta, n_paths, seed, ns=SWEEP_NS):
    [slope] = _slopes(spec, pricing, [eta], n_paths, seed, ns)
    return slope


def test_criterion_01_quadratic_analytic_oracle(capsys):
    worst = 0.0
    for d in (1, 3):
        spec = bm_constant(np.eye(d), np.zeros(d))
        pricing = BMQuadratic(d, 1.0)
        for eta in (0.0, 0.5):
            for n in (1, 4, 16):
                net = eta_net(1.0, n, eta)
                est = estimate_l2_error(spec, pricing, net, 100000, 101,
                                        workers=WORKERS)["terminal"]
                cf = analytic_quadratic_error(net, d, 1.0)
                worst = max(
                    worst, abs(est.mean_sq - cf) / est.stderr_mean_sq
                )
    _verdict(capsys, 1, "quadratic closed form", worst < 3.0,
             f"worst deviation {worst:.2f} MC stderr, limit 3")


def test_criterion_02_digital_equidistant_quarter_rate(capsys):
    slope = _slope(SPEC_GBM, DIGITAL, 0.0, 200000, 202)
    _verdict(capsys, 2, "digital equidistant", -0.31 <= slope <= -0.19,
             f"slope {slope:+.4f}, window [-0.31, -0.19]")


def test_criterion_03_digital_eta_net_half_rate(capsys):
    slope = _slope(SPEC_GBM, DIGITAL, 0.75, 200000, 202)
    _verdict(capsys, 3, "digital eta=0.75", -0.56 <= slope <= -0.44,
             f"slope {slope:+.4f}, window [-0.56, -0.44]")


def test_criterion_04_call_equidistant_half_rate(capsys):
    slope = _slope(SPEC_GBM, CALL, 0.0, 200000, 202)
    _verdict(capsys, 4, "call equidistant", -0.56 <= slope <= -0.44,
             f"slope {slope:+.4f}, window [-0.56, -0.44]")


def test_criterion_05_product_payoff_eta_net(capsys):
    pricing = make_pricing("product", {"factors": [
        {"kind": "call", "K": 1.0, "s": 1.0},
        {"kind": "power", "K": 1.0, "alpha": 0.25, "s": 1.0},
        {"kind": "digital", "K": 1.0, "s": 1.0},
    ]}, 1.0)
    spec = gbm_diagonal(3, 1.0, np.ones(3))
    slope, slope_eq = _slopes(spec, pricing, [0.75, 0.0], 100000, 205)
    _verdict(capsys, 5, "3-factor product eta=0.75",
             -0.58 <= slope <= -0.42,
             f"slope {slope:+.4f}, window [-0.58, -0.42]; "
             f"equidistant slope {slope_eq:+.4f} (informational)")


def test_criterion_06_theta_estimates(capsys):
    windows = {
        "digital": (DIGITAL, 0.65, 0.85),
        "call": (CALL, 0.15, 0.35),
        "power": (POWER, 0.52, 0.72),
    }
    results = {}
    ok = True
    for name, (pricing, lo, hi) in windows.items():
        th = estimate_theta(
            SPEC_GBM, pricing, n_paths=100000, master_seed=206
        ).theta_hat
        results[name] = th
        ok = ok and lo <= th <= hi
    detail = ", ".join(f"{k}={v:.3f}" for k, v in results.items())
    _verdict(capsys, 6, "blow-up exponents", ok,
             detail + "; windows digital [0.65,0.85], call [0.15,0.35], "
             "power [0.52,0.72]")


def test_criterion_07_call_curvature_closed_form(capsys):
    # E[(X^2 d2F)^2] for the unit-strike call factor has a closed form
    T, K1 = 1.0, 1.0
    factor = Factor1D("call", K=K1, s=1.0)
    worst = 0.0
    for t in (0.0, 0.5, 0.9):
        cf = K1 / (2.0 * math.pi * math.sqrt(T * T - t * t)) * math.exp(
            -(T / 2.0 + math.log(K1)) ** 2 / (T + t)
        )
        if t == 0.0:
            mc = float(SPEC_GBM.x0[0] ** 4 * factor.value_delta_gamma(
                T - 0.0, np.asarray([SPEC_GBM.x0[0]])
            )[2][0] ** 2)
            dev = abs(mc - cf) / cf
            assert dev < 1e-12
            continue
        [x] = one_step_states(SPEC_GBM, T, [T - t], 400000, 207)
        x = x[:, 0]
        vals = (x * x * factor.value_delta_gamma(T - t, x)[2]) ** 2
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        worst = max(worst, abs(float(vals.mean()) - cf) / se)
    _verdict(capsys, 7, "curvature moment closed form", worst < 3.0,
             f"worst deviation {worst:.2f} MC stderr at t in {{0, 0.5, 0.9}}")


def test_criterion_08_net_functional_bounds(capsys):
    ns = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    theta = 0.75
    eta_vals = [n * lemma_net_functional(eta_net(1.0, n, 0.75),
                                         theta) for n in ns]
    eq_vals = [n * lemma_net_functional(equidistant_net(1.0, n), theta)
               for n in (8, 4096)]
    bounded = max(eta_vals) <= 2.0 * eta_vals[0]
    diverges = eq_vals[1] >= 4.0 * eq_vals[0]
    _verdict(capsys, 8, "net functional n*S", bounded and diverges,
             f"eta-net max/first {max(eta_vals) / eta_vals[0]:.3f} (<= 2), "
             f"equidistant 4096/8 ratio {eq_vals[1] / eq_vals[0]:.1f} (>= 4)")


def test_criterion_09_doob_sup_comparison(capsys):
    ok = True
    details = []
    for name, pricing in (("digital", DIGITAL), ("call", CALL)):
        for n in (4, 64):
            est = estimate_l2_error(
                SPEC_GBM, pricing, equidistant_net(1.0, n), 50000, 209,
                error_mode="both", workers=WORKERS, monitor_factor=32,
            )
            term, sup = est["terminal"], est["running_sup"]
            noise = (term.stderr_mean_sq / term.mean_sq
                     + sup.stderr_mean_sq / sup.mean_sq)
            ratio = sup.mean_sq / term.mean_sq
            ok = ok and 1.0 <= ratio <= 4.0 * (1.0 + 5.0 * noise)
            details.append(f"{name} n={n}: {ratio:.2f}")
    _verdict(capsys, 9, "Doob sup/terminal", ok,
             "E[sup^2]/E[term^2] in [1, 4(1+slack)]: " + ", ".join(details))


def test_criterion_10_digital_h2_positive_infimum(capsys):
    curve = estimate_h2(
        SPEC_GBM, DIGITAL, np.linspace(0.1, 0.9, 9), 50000, 210
    )
    h2_min, se = curve.infimum()
    _verdict(capsys, 10, "digital H^2 infimum", h2_min - 3.0 * se > 0.0,
             f"inf = {h2_min:.4f}, 3*stderr = {3.0 * se:.4f}")


def test_criterion_11_property_rollup(capsys):
    checks = []

    # pricing functions satisfy their backward PDE at interior points
    cases = [
        (SPEC_GBM, DIGITAL, [1.0], 1e-4),
        (SPEC_GBM, CALL, [1.0], 1e-4),
        (SPEC_GBM, POWER, [1.0], 1e-3),
        (bm_constant(np.eye(1), [0.3]), BMQuadratic(1, 1.0), [0.3], 1e-8),
    ]
    worst_pde = max(
        pde_residual(spec, pr, 0.5, x).relative / tol
        for spec, pr, x, tol in cases
    )
    checks.append(("pde residuals", worst_pde <= 1.0))

    # analytic gradient/hessian agree with finite differences
    pr = make_pricing("product", {"factors": [
        {"kind": "call", "K": 1.0, "s": 1.0},
        {"kind": "digital", "K": 1.2, "s": 1.0},
    ]}, 1.0)
    x0 = np.array([[1.1, 0.9]])
    h = 1e-5
    grad = pr.gradient(1.0 - 0.4, x0)[0]
    hess = pr.hessian(1.0 - 0.4, x0)[0]
    fd_ok = True
    for i in range(2):
        xp, xm = x0.copy(), x0.copy()
        xp[0, i] += h
        xm[0, i] -= h
        fd = (pr.value(1.0 - 0.4, xp)[0]
              - pr.value(1.0 - 0.4, xm)[0]) / (2.0 * h)
        fd_ok &= abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))
        fdh = (pr.gradient(1.0 - 0.4, xp)[0]
               - pr.gradient(1.0 - 0.4, xm)[0]) / (2.0 * h)
        fd_ok &= np.allclose(fdh, hess[i], rtol=1e-4, atol=1e-7)
    checks.append(("gradient/hessian fd", bool(fd_ok)))

    # net invariants: endpoints, strict monotonicity, eta=0 equidistant
    inv_ok = True
    for n in (1, 7, 64):
        for eta in (0.0, 0.5, 0.75):
            net = eta_net(2.0, n, eta)
            k = net.knots
            inv_ok &= k[0] == 0.0 and k[-1] == 2.0 and np.all(np.diff(k) > 0)
        inv_ok &= np.array_equal(
            eta_net(2.0, n, 0.0).knots,
            equidistant_net(2.0, n).knots,
        )
    checks.append(("net invariants", bool(inv_ok)))

    # the estimator is bitwise independent of the worker count
    net = eta_net(1.0, 16, 0.75)
    vals = {
        estimate_l2_error(SPEC_GBM, DIGITAL, net, 60000, 211,
                          workers=w)["terminal"].mean_sq
        for w in (1, 4, 16)
    }
    checks.append(("worker determinism {1,4,16}", len(vals) == 1))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}: {'ok' if flag else 'FAIL'}"
                       for name, flag in checks)
    _verdict(capsys, 11, "property roll-up", ok, detail)
