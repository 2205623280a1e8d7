import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, roots_hermite, roots_legendre
from scipy.stats import norm

import hedgenet.pricing as pricing
from hedgenet.models import gbm_diagonal, path_states
from hedgenet.pricing import (
    QUAD_ATOL,
    QUAD_NODES,
    QUAD_RTOL,
    BMQuadratic,
    Factor1D,
    ProductPricing,
    QuadratureError,
    SumDigital2D,
    _hermite,
    _legendre01,
    _power_log_derivatives,
    _power_moments,
    _power_moments_raw,
    make_pricing,
)
from hedgenet.rng import ArgumentError

ONE = np.array([1.0])

# unit-strike, unit-vol factors; every price takes the time to maturity
# tau, and the catalogue tests below use the horizon T = 1
CALL = Factor1D("call", K=1.0, s=1.0)
DIGITAL = Factor1D("digital", K=1.0, s=1.0)
POWER = Factor1D("power", K=1.0, alpha=0.25, s=1.0)


def direct_power(tau, x, what):
    """The power factor K = 1, alpha = 0.25, s = 1 priced by direct
    quadrature at each point, the reference of its table, assembled by the
    allocating formulas F = D_0, D_1 / x and (D_2 - D_1) / x^2."""
    d = _power_log_derivatives(x, 1.0, 0.25, 1.0, tau, 3)
    greeks = {"value": d[0], "delta": d[1] / x,
              "gamma": (d[2] - d[1]) / (x * x)}
    return tuple(greeks[w] for w in what)


def fd_gradient(model, tau, x, h_rel=1e-5):
    grad = np.empty_like(x)
    for k in range(x.shape[1]):
        h = h_rel * np.abs(x[:, k])
        xp, xm = x.copy(), x.copy()
        xp[:, k] += h
        xm[:, k] -= h
        grad[:, k] = (model.value(tau, xp) - model.value(tau, xm)) / (2.0 * h)
    return grad


def fd_hessian(model, tau, x, h_rel=1e-4):
    B, d = x.shape
    hess = np.empty((B, d, d))
    v0 = model.value(tau, x)
    hs = h_rel * np.abs(x)
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[:, i] += hs[:, i]
        xm[:, i] -= hs[:, i]
        hess[:, i, i] = (model.value(tau, xp) - 2 * v0
                         + model.value(tau, xm)) / hs[:, i] ** 2
        for j in range(i + 1, d):
            pp, pm, mp, mm = (x.copy() for _ in range(4))
            pp[:, i] += hs[:, i]; pp[:, j] += hs[:, j]
            pm[:, i] += hs[:, i]; pm[:, j] -= hs[:, j]
            mp[:, i] -= hs[:, i]; mp[:, j] += hs[:, j]
            mm[:, i] -= hs[:, i]; mm[:, j] -= hs[:, j]
            cross = (model.value(tau, pp) - model.value(tau, pm)
                     - model.value(tau, mp) + model.value(tau, mm)) / (
                4.0 * hs[:, i] * hs[:, j])
            hess[:, i, j] = cross
            hess[:, j, i] = cross
    return hess


class TestCall:
    def test_value_at_the_money(self):
        # E(e^Z - 1)_+ with Z ~ N(-1/2, 1): quadrature oracle
        oracle, _ = quad(
            lambda z: max(np.exp(z) - 1.0, 0.0) * norm.pdf(z, -0.5, 1.0),
            -10, 10,
        )
        v = CALL.value(1.0, ONE)[0]
        assert v == pytest.approx(oracle, rel=1e-9)
        assert v == pytest.approx(0.3829249225480263, rel=1e-12)

    def test_hessian_matches_printed_formula(self):
        # gamma(0, 1) = phi(1/2) for K=s=T=1
        g = CALL.value_delta_gamma(1.0, ONE)[2][0]
        assert g == pytest.approx(norm.pdf(0.5), rel=1e-12)

    def test_zero_strike_is_forward(self):
        x = np.array([0.5, 1.0, 2.0])
        v = Factor1D("call", K=1e-300, s=1.0).value(1.0 - 0.3, x)
        assert np.allclose(v, x, rtol=1e-9)

    def test_rejects_t_at_maturity(self):
        with pytest.raises(ValueError, match="tau > 0"):
            CALL.value(1.0 - 1.0, ONE)

    def test_delta_matches_fd(self):
        x = np.array([0.8, 1.0, 1.3])
        h = 1e-6
        fd = (CALL.value(0.6, x + h) - CALL.value(0.6, x - h)) / (2 * h)
        assert np.allclose(CALL.delta(0.6, x), fd, rtol=1e-7)


class TestDigital:
    def test_value(self):
        v = DIGITAL.value(1.0, ONE)[0]
        assert v == pytest.approx(norm.cdf(-0.5), rel=1e-12)

    def test_limits(self):
        assert DIGITAL.value(1.0, np.array([1e8]))[0] == \
            pytest.approx(1.0, abs=1e-12)
        assert DIGITAL.value(1.0, np.array([1e-8]))[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_gradient(self):
        g = DIGITAL.delta(1.0, ONE)[0]
        assert g == pytest.approx(norm.pdf(-0.5), rel=1e-12)

    def test_gamma_matches_fd(self):
        x = np.array([0.9, 1.0, 1.2])
        h = 1e-5
        fd = (DIGITAL.delta(0.5, x + h) - DIGITAL.delta(0.5, x - h)) / (2 * h)
        assert np.allclose(DIGITAL.value_delta_gamma(0.5, x)[2], fd, rtol=1e-6)

    def test_gamma_at_a_subnormal_tau(self):
        # (x s sqrt(tau))^2 and s^2 tau / 2 underflow at tau = 5e-324; the
        # reference values are mpmath's at 50 digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = Factor1D("digital", K=0.5).value_delta_gamma(
                5e-324, np.array([0.5, 0.25]))[2]
        assert gamma[0] == pytest.approx(-3.5896138570490506716e161,
                                         rel=1e-14)
        assert gamma[1] == 0.0


class TestFactorParameters:
    @pytest.mark.parametrize("kind, params", [
        ("call", {"K": np.nan}), ("digital", {"K": np.inf}),
        ("power", {"K": np.nan}), ("call", {"s": np.nan}),
        ("digital", {"s": np.inf}), ("power", {"alpha": np.nan}),
        ("const", {"K": np.nan}),
        ("call", {"K": 0.0}), ("digital", {"K": 0.0}),
        ("call", {"K": -1.0}), ("power", {"K": -1.0}),
        ("digital", {"s": 0.0}), ("power", {"s": -1.0}),
        ("call", {"K": "x"}), ("power", {"alpha": "0.25"}),
        ("digital", {"s": None}), ("power", {"T": 0.0}),
        ("call", {"T": np.inf}),
    ])
    def test_rejects_bad_parameters(self, kind, params):
        # a NaN strike or vol used to give NaN prices, a zero strike
        # divided by zero in the call and digital closed forms, and a
        # string raised a TypeError
        with pytest.raises(ValueError, match="must be"):
            Factor1D(kind, **params)


class TestFactorTime:
    @pytest.mark.parametrize("tau", [0.0, -0.1, np.nan])
    @pytest.mark.parametrize("kind", ["call", "digital", "power", "const"])
    def test_rejects_tau_not_positive(self, kind, tau):
        f = Factor1D(kind)
        for method in ("value", "delta", "value_delta", "value_delta_gamma"):
            with pytest.raises(ValueError, match="tau > 0"):
                getattr(f, method)(tau, ONE)


def node_map(f, tau):
    return pricing._NodeMap(f.K, f.s, f.T, tau)


def lattice(f, tau, lo, hi):
    """The power table's nodes at tau from the level at or below the
    log-price lo to the level above hi."""
    nmap = node_map(f, tau)
    k0, k1 = np.floor(nmap.level(np.array([lo, hi])))
    return nmap.nodes(np.arange(k0, k1 + 2.0))


class TestPower:
    def test_zero_strike_lognormal_moment(self):
        f = Factor1D("power", K=0.0, alpha=0.25, s=1.0)
        v = f.value(1.0, ONE)[0]
        assert v == pytest.approx(np.exp(0.25 * (0.25 - 1.0) / 2.0), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [0.9, 1e-3, 1e-8, 1e-12, 1e-14])
    @pytest.mark.parametrize("alpha", [0.01, 0.25, 0.6])
    def test_zero_strike_closed_form(self, alpha, tau):
        # x^alpha c (1, alpha / x, alpha (alpha - 1) / x^2) at the true tau,
        # c = e^{alpha (alpha - 1) tau / 2}, on a batch of 5000 rows;
        # x^alpha is smooth, so no alpha warns
        f = Factor1D("power", K=0.0, alpha=alpha, s=1.0)
        x = np.exp(np.random.default_rng(3).normal(0.0, 0.7, 5000))
        want = x ** alpha * np.exp(alpha * (alpha - 1.0) * tau / 2.0)
        got = f.value_delta_gamma(tau, x)
        for g, w in zip(got, (want, want * alpha / x,
                              want * alpha * (alpha - 1.0) / x ** 2)):
            assert np.allclose(g, w, rtol=1e-13, atol=0.0)
        assert np.array_equal(f.value_delta(tau, x)[1], got[1])
        assert np.array_equal(f.value(tau, x), got[0])

    @pytest.mark.parametrize("tau", [0.5, 1e-14])
    def test_zero_strike_is_batch_size_independent(self, tau):
        f = Factor1D("power", K=0.0, alpha=0.25, s=1.0)
        x = np.exp(np.random.default_rng(4).normal(0.0, 0.7, 16384))
        batch = f.value_delta_gamma(tau, x)
        for i in (0, 1, 4095, 16383):
            for got, ref in zip(f.value_delta_gamma(tau, x[i:i + 1]), batch):
                assert np.array_equal(got, ref[i:i + 1])

    def test_value_vs_monte_carlo(self):
        spec = gbm_diagonal(1, 1.0, 1.0)
        [(_, _, x)] = path_states(spec, [[1.0, 0.0]], 21,
                                  np.arange(2_000_000))
        xT = x[:, 0]
        pay = np.maximum(xT - 1.0, 0.0) ** 0.25
        se = pay.std(ddof=1) / np.sqrt(pay.size)
        assert abs(POWER.value(1.0, ONE)[0] - pay.mean()) < 3.0 * se

    def test_alpha_near_one_approaches_call(self):
        with pytest.warns(UserWarning):
            f = Factor1D("power", K=1.0, alpha=0.999, s=1.0)
        c = CALL.value(1.0, ONE)[0]
        assert abs(f.value(1.0, ONE)[0] - c) < 1e-2

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            Factor1D("power", K=1.0, alpha=1.2)
        with pytest.raises(ValueError):
            Factor1D("power", K=1.0, alpha=0.0)
        with pytest.warns(UserWarning):
            Factor1D("power", K=1.0, alpha=0.6)

    def test_delta_gamma_match_fd(self):
        x = np.array([0.6, 0.95, 1.0, 1.05, 2.0])
        h = 1e-5 * x
        vp = POWER.value(0.5, x + h)
        vm = POWER.value(0.5, x - h)
        assert np.allclose(POWER.delta(0.5, x), (vp - vm) / (2 * h), rtol=1e-5)
        v0 = POWER.value(0.5, x)
        fd_gamma = (vp - 2 * v0 + vm) / (h * h)
        assert np.allclose(POWER.value_delta_gamma(0.5, x)[2], fd_gamma,
                           rtol=1e-3, atol=1e-5)

    def test_table_path_matches_direct(self):
        rng = np.random.default_rng(3)
        x = np.exp(rng.normal(0.0, 0.7, 5000))
        vt, dt_ = POWER.value_delta(1.0 - 0.3, x)
        vd, dd = direct_power(1.0 - 0.3, x, ("value", "delta"))
        # pointwise: measured 1.6e-6 (value) and 8.0e-7 (delta)
        assert np.allclose(vt, vd, rtol=3e-6, atol=0.0)
        assert np.allclose(dt_, dd, rtol=1.6e-6, atol=0.0)

    def test_near_maturity_floor(self):
        # the power factor prices tau below TAU_FLOOR at TAU_FLOOR
        p = make_pricing("power", {"K": 1.0, "alpha": 0.25, "s": 1.0}, 1.0)
        x = np.array([[2.0]])
        v = p.value(1e-15, x)[0]
        assert np.isfinite(v) and v == pytest.approx(1.0, rel=1e-4)
        assert v == p.value(pricing.TAU_FLOOR, x)[0]

    @pytest.mark.parametrize("tau", [1e-13, 1e-14, 1e-16])
    def test_floor_prices_the_payoff_away_from_k(self, tau):
        # Below TAU_FLOOR the power factor prices at the floor. At least
        # 1e-3 from K in log-price, that price and its delta are the payoff
        # g = (x - K)_+^alpha and g' up to two terms: the floor's O(s^2 tau)
        # term, TAU_FLOOR (s x)^2 / 2 times g'' (for delta, the x-derivative
        # of that), and the table's interpolation error at tau = 1e-8,
        # TABLE_BOUNDS' nearest time, measured here on the same points
        # against direct quadrature, relative per point. TABLE_BOUNDS' own
        # 1e-8 entry does not bound these points: it is relative to a
        # lognormal batch's largest |delta|, and here the table's delta
        # misses by 3.9e-5 of the largest, 4x that entry. The band
        # |log(x / K)| < 1e-3 is not covered.
        a, s = 0.25, 1.0
        lx = np.geomspace(1e-3, 3.0, 200)
        x = np.exp(np.concatenate([-lx[::-1], lx]))
        up = x > 1.0
        u = x[up] - 1.0
        g1 = a * u ** (a - 1.0)
        g2 = (a - 1.0) * g1 / u
        g3 = (a - 2.0) * g2 / u
        want = [np.zeros_like(x), np.zeros_like(x)]
        want[0][up], want[1][up] = u ** a, g1
        terms = [np.zeros_like(x), np.zeros_like(x)]
        half = 0.5 * s * s * pricing.TAU_FLOOR
        terms[0][up] = half * np.abs(x[up] ** 2 * g2)
        terms[1][up] = half * np.abs(2.0 * x[up] * g2 + x[up] ** 2 * g3)
        ref = direct_power(1e-8, x, ("value", "delta"))
        for got, table, exact, w, term in zip(
                POWER.value_delta(tau, x), POWER.value_delta(1e-8, x), ref,
                want, terms):
            rel = (np.abs(table[up] - exact[up]) / np.abs(exact[up])).max()
            assert np.all(np.abs(got - w) <= term + rel * np.abs(w))

    @pytest.mark.parametrize("tau", [1.0, 0.3, 1e-3, 1e-8])
    def test_per_point_doubling_matches_finest_rule(self, tau):
        x = np.exp(lattice(POWER, tau, np.log(0.05), np.log(20.0)))
        for count in (3, 4):  # the direct reference's moments, the table's
            got = _power_moments(x, 1.0, 0.25, 1.0, tau, count)
            ref = _power_moments_raw(x, 1.0, 0.25, 1.0, tau, 512, count)
            scale = np.maximum(np.abs(ref), np.abs(ref[0])[None, :])
            tol = np.maximum(QUAD_RTOL * scale, QUAD_ATOL)
            assert np.all(np.abs(got - ref) <= tol)

    def test_moments_are_hermite_moments(self):
        # E[g He_k(z)] against a brute-force quadrature in z
        x, tau = np.array([0.7, 1.0, 1.6]), 0.2
        sig = np.sqrt(tau)
        he = (lambda z: 1.0, lambda z: z, lambda z: z * z - 1.0,
              lambda z: z**3 - 3.0 * z)
        got = _power_moments(x, 1.0, 0.25, 1.0, tau, 4)
        for i, xi in enumerate(x):
            zk = (np.log(1.0 / xi) + 0.5 * tau) / sig
            for k in range(4):
                ref, _ = quad(lambda z: (xi * np.exp(sig * z - 0.5 * tau) - 1.0)
                              ** 0.25 * he[k](z) * norm.pdf(z), zk, 12.0,
                              epsabs=1e-13, epsrel=1e-11)
                assert got[k, i] == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_quadrature_error_when_unreachable(self, monkeypatch):
        monkeypatch.setattr(pricing, "QUAD_RTOL", 1e-300)
        x = np.array([0.8, 1.0, 1.3])
        with pytest.raises(QuadratureError, match="did not converge"):
            _power_moments(x, 1.0, 0.25, 1.0, 0.5)

    @staticmethod
    def table_errors(tau, n_paths):
        """Sup error of the table against direct quadrature for the states of
        an n_paths batch at t = T - tau, relative to the batch's largest
        |value|, |delta| and |gamma|."""
        t = 1.0 - tau
        z = np.random.default_rng(11).standard_normal(n_paths)
        x = np.exp(np.sqrt(t) * z - 0.5 * t)
        table = POWER.value_delta_gamma(1.0 - t, x)
        exact = direct_power(1.0 - t, x, ("value", "delta", "gamma"))
        return [np.abs(a - b).max() / np.abs(b).max()
                for a, b in zip(table, exact)]

    # bounds: twice the measured sup errors (value, delta, gamma), rounded
    # up, except delta at tau = 1e-8 (measured 6.7e-6), where twice would
    # loosen the bound of the two-set grid the node map replaced; the
    # linear table before it measured 8.6e-7 / 3.7e-6 / 6.1e-6 at
    # tau = 0.7 and up to 8.2e-5 / 1.46e-3 / 3.5e-3 below it
    TABLE_BOUNDS = {
        0.7: (3.7e-9, 4.0e-8, 2.2e-7),
        0.1: (1.2e-7, 2.0e-6, 1.2e-5),
        1e-2: (9.2e-7, 1.7e-5, 6.7e-5),
        1e-4: (3.1e-6, 8.4e-5, 2.8e-4),
        1e-8: (7.1e-7, 9.5e-6, 4.9e-5),
    }

    @pytest.mark.parametrize("tau", list(TABLE_BOUNDS))
    def test_table_interpolation_error(self, tau):
        errors = self.table_errors(tau, 16384)
        bounds = self.TABLE_BOUNDS[tau]
        assert all(e <= b for e, b in zip(errors, bounds)), errors

    def test_table_interpolation_error_large_batch(self):
        # a 100000-path batch, as in criterion 06's theta scan: six full
        # lookup chunks and a partial one
        errors = self.table_errors(1e-8, 100000)
        bounds = (9.3e-7, 8.9e-5, 3.1e-4)
        assert all(e <= b for e, b in zip(errors, bounds)), errors

    # bounds: twice the measured sup errors (value, delta, gamma) relative
    # to each point, rounded up; TABLE_BOUNDS divides by a batch's largest
    # |greek| and so does not bound them away from that maximum
    POINT_BOUNDS = {
        0.7: (3.1e-7, 8.3e-8, 1.3e-6),
        0.1: (2.1e-5, 7.6e-6, 2.1e-5),
        1e-2: (1.1e-4, 5.9e-5, 1.7e-4),
        1e-4: (1.8e-4, 2.9e-4, 2.1e-3),
        1e-8: (5.6e-6, 8.7e-5, 5.7e-4),
    }

    @pytest.mark.parametrize("tau", list(TABLE_BOUNDS))
    def test_table_error_relative_to_each_point(self, tau):
        # 400 points with 1e-3 <= |log(x / K)| <= 3, those less than two
        # standard deviations s sqrt(tau) below K: further out the price is
        # a Gaussian tail the table does not resolve relatively (0.88 of
        # the value 2 to 5 deviations out at tau = 1e-4)
        lx = np.geomspace(1e-3, 3.0, 200)
        x = np.exp(np.concatenate([-lx[::-1], lx]))
        x = x[np.log(x) >= -2.0 * np.sqrt(tau)]
        table = POWER.value_delta_gamma(tau, x)
        exact = direct_power(tau, x, ("value", "delta", "gamma"))
        errors = [(np.abs(a - b) / np.abs(b)).max()
                  for a, b in zip(table, exact)]
        bounds = self.POINT_BOUNDS[tau]
        assert all(e <= b for e, b in zip(errors, bounds)), errors

    @staticmethod
    def rounding(nmap, y):
        """Rounding distance in map levels at log-prices y: the map's slope
        times the spacing of the largest operand, with a floor of 1e-12 or,
        beyond level 1024, of four spacings of the level."""
        slope = nmap.a + nmap.b / np.hypot(nmap.h0, y - nmap.lk)
        big = np.maximum(np.abs(y), abs(nmap.lk))
        floor = np.maximum(1e-12, 4.0 * np.spacing(np.abs(nmap.level(y))))
        return floor + 4.0 * slope * np.spacing(big)

    @classmethod
    def assert_floor_index(cls, f, tau, lo, hi, keys):
        """The table's nodes sit at the map's integer levels, to rounding: a
        call builds the two levels that bound each key's floor interval, or
        every level between its lowest and highest, at most two per key. A
        key's interval equals searchsorted on those nodes away from
        rounding distance of a node, and is within one of it everywhere.
        Keys: the given ones, lo and hi, the nodes these need and one ulp
        either side of each, and log K; those outside [lo, hi] are
        dropped."""
        nmap = node_map(f, tau)

        def call(keys):
            """The nodes a call with these keys builds, and their intervals."""
            level = np.floor(nmap.level(keys)).astype(np.intp)
            return nmap.lattice(level), level

        keys = np.concatenate([keys, [lo, hi]])
        grid, _ = call(keys)
        keys = np.concatenate([
            keys, grid, np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf), [nmap.lk],
        ])
        keys = keys[(keys >= lo) & (keys <= hi)]
        grid, got = call(keys)
        assert grid[0] <= lo and hi < grid[-1] and np.all(np.diff(grid) > 0)
        level = np.floor(nmap.level(keys))
        k = np.union1d(level, level + 1.0)
        if grid.size != k.size:
            k = np.arange(k[0], k[-1] + 1.0)
        assert grid.size <= 2 * keys.size
        assert np.all(np.abs(nmap.level(grid) - k)
                      <= cls.rounding(nmap, grid))
        want = np.searchsorted(grid, keys, side="right") - 1
        assert np.all(np.abs(got - want) <= 1)
        level = nmap.level(keys)
        away = (np.abs(level - np.rint(level))
                > 2.0 * cls.rounding(nmap, keys))
        assert np.array_equal(got[away], want[away])
        return nmap, grid, k, got, want

    @pytest.mark.parametrize("tau", [1.0, 0.3, 1e-3, 1e-8])
    def test_table_floor_index(self, tau):
        lx = np.random.default_rng(2).normal(0.0, 0.7, 20000)
        lo, hi = lx.min(), lx.max()
        nmap, grid, k, got, want = self.assert_floor_index(POWER, tau, lo,
                                                           hi, lx)
        # at log K = 0 the nodes sit at integer levels to 1e-12, and the
        # random keys are away from them
        assert np.abs(nmap.level(grid) - k).max() <= 1e-12
        assert np.array_equal(got[:lx.size], want[:lx.size])

    @settings(max_examples=200, deadline=None)
    @given(tau=st.floats(1e-10, 1.0), T=st.floats(1.0, 1e4),
           log_k=st.floats(-3.0, 3.0), s=st.floats(0.1, 3.0),
           lo=st.floats(-6.0, 6.0), width=st.floats(1e-6, 12.0),
           seed=st.integers(0, 2**32 - 1))
    def test_table_index_property(self, tau, T, log_k, s, lo, width, seed):
        # horizons up to 1e4 take tau / T down to 1e-14, below the range
        # a unit horizon reaches at TAU_FLOOR
        f = Factor1D("power", K=float(np.exp(log_k)), alpha=0.25, s=s, T=T)
        hi = lo + width
        lx = np.random.default_rng(seed).uniform(lo, hi, 200)
        self.assert_floor_index(f, tau, lo, hi, lx)

    def test_table_chunks_are_exact(self, monkeypatch):
        # reused chunk buffers, partial last chunk included: the outputs
        # do not depend on the chunk size
        x = np.exp(np.random.default_rng(8).normal(0.0, 0.6, 10000))
        want = POWER.value_delta_gamma(0.3, x)
        monkeypatch.setattr(pricing, "_TABLE_CHUNK", 1500)
        for got, ref in zip(POWER.value_delta_gamma(0.3, x), want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", QUAD_NODES)
    def test_gauss_nodes_are_scipys(self, n):
        u, w = roots_legendre(n)
        got_u, got_w = _legendre01(n)
        assert np.array_equal(got_u, 0.5 * (u + 1.0))
        assert np.array_equal(got_w, 0.5 * w)
        z, w = roots_hermite(n)
        got_z, got_w = _hermite(n)
        assert np.array_equal(got_z, np.sqrt(2.0) * z)
        assert np.array_equal(got_w, w / np.sqrt(np.pi))


class TestProduct:
    def test_constant_factors(self):
        p = ProductPricing([Factor1D("const"), Factor1D("const")], 1.0)
        x = np.array([[2.0, 3.0]])
        assert p.value(0.5, x)[0] == 1.0
        assert np.all(p.gradient(0.5, x) == 0.0)
        assert np.all(p.hessian(0.5, x) == 0.0)

    def test_two_factor_value(self):
        p = ProductPricing([CALL, DIGITAL], 1.0)
        x = np.array([[1.0, 1.0]])
        expect = CALL.value(1.0, ONE)[0] * norm.cdf(-0.5)
        assert p.value(1.0, x)[0] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.118146, abs=1e-6)

    def test_off_diagonal_hessian(self):
        # product of the two factor deltas: Phi(1/2) * phi(-1/2)
        p = ProductPricing([CALL, DIGITAL], 1.0)
        x = np.array([[1.0, 1.0]])
        expect = norm.cdf(0.5) * norm.pdf(-0.5)
        got = p.hessian(1.0, x)[0, 0, 1]
        assert got == pytest.approx(expect, rel=1e-12)
        # independent finite-difference confirmation
        fd = fd_hessian(p, 1.0, x)[0, 0, 1]
        assert got == pytest.approx(fd, rel=1e-6)

    def test_three_factor_derivatives_match_fd(self):
        p = make_pricing("product", {"factors": [
            {"kind": "call", "K": 1.0, "s": 1.0},
            {"kind": "power", "K": 1.0, "alpha": 0.25, "s": 1.0},
            {"kind": "digital", "K": 1.0, "s": 1.0},
        ]}, 1.0)
        rng = np.random.default_rng(7)
        x = np.exp(rng.normal(0.0, 0.4, (20, 3)))
        assert np.allclose(p.gradient(0.5, x), fd_gradient(p, 0.5, x),
                           rtol=1e-5, atol=1e-8)
        assert np.allclose(p.hessian(0.5, x), fd_hessian(p, 0.5, x),
                           rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_horizon_not_positive(self, T):
        with pytest.raises(ValueError, match="horizon must be positive"):
            ProductPricing([CALL], T)

    def test_gradient_is_delta_times_the_other_values(self):
        factors = [Factor1D("call"), Factor1D("power"), Factor1D("digital")]
        p = ProductPricing(factors, 1.0)
        x = np.exp(np.random.default_rng(9).normal(0.0, 0.5, (500, 3)))
        vals = np.stack([f.value(1.0 - 0.6, x[:, i])
                         for i, f in enumerate(factors)], axis=1)
        dels = np.stack([f.delta(1.0 - 0.6, x[:, i])
                         for i, f in enumerate(factors)], axis=1)
        want = np.stack([dels[:, k] * np.prod(np.delete(vals, k, axis=1),
                                              axis=1) for k in range(3)],
                        axis=1)
        assert np.allclose(p.gradient(1.0 - 0.6, x), want, rtol=1e-14,
                           atol=0.0)

    @pytest.mark.parametrize("kind", ["call", "digital", "power"])
    def test_one_factor_gradient_is_the_delta(self, kind):
        f = Factor1D(kind)
        x = np.exp(np.random.default_rng(4).normal(0.0, 0.5, (300, 1)))
        got = ProductPricing([f], 1.0).gradient(1.0 - 0.2, x)
        assert np.array_equal(got[:, 0], f.delta(1.0 - 0.2, x[:, 0]))

    @pytest.mark.parametrize("rows", [300, 5000])
    def test_one_factor_hessian_is_the_product_form(self, rows):
        power = Factor1D("power")
        x = np.exp(np.random.default_rng(12).normal(0.0, 0.5, (rows, 1)))
        got = ProductPricing([power], 1.0).hessian(0.4, x)
        ref = ProductPricing([power, Factor1D("const")], 1.0).hessian(
            0.4, np.hstack([x, np.ones_like(x)]))
        assert got.shape == (rows, 1, 1)
        assert np.array_equal(got[:, 0, 0], ref[:, 0, 0])

    def test_factors_take_the_horizon(self):
        # the power table's nodes depend on the horizon, as the price does
        # not: tables for T = 2 and T = 1 agree to their interpolation error
        x = np.exp(np.random.default_rng(13).normal(0.0, 0.5, (300, 1)))
        with pytest.raises(ArgumentError, match="horizon T must be 2.0"):
            ProductPricing([POWER], 2.0)
        p = make_pricing("power", {"K": 1.0, "alpha": 0.25}, 2.0)
        assert p.factors[0] == Factor1D("power", K=1.0, alpha=0.25, T=2.0)
        got = p.value(0.5, x)
        assert np.array_equal(got, p.factors[0].value(0.5, x[:, 0]))
        gap = np.abs(got - POWER.value(0.5, x[:, 0])).max() / got.max()
        assert 0.0 < gap <= 2e-7, gap

    def test_dimension_check(self):
        p = ProductPricing([Factor1D("call"), Factor1D("digital")], 1.0)
        with pytest.raises(ValueError):
            p.value(1.0, np.array([[1.0, 1.0, 1.0]]))


# The pricing kernels compute in place. These are the allocating forms they
# replaced, each output a chain of fresh temporaries: the kernels must give
# their bits exactly.

def alloc_d12(x, K, s, tau):
    st = s * np.sqrt(tau)
    return (np.log(x / K) - 0.5 * st * st) / st, st


def alloc_phi(z):
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def alloc_factor(f, tau, x, what):
    d2, st = alloc_d12(x, f.K, f.s, tau)
    d1 = d2 + st
    if f.kind == "call":
        forms = {"value": lambda: x * ndtr(d1) - f.K * ndtr(d2),
                 "delta": lambda: ndtr(d1),
                 "gamma": lambda: alloc_phi(d1) / (x * st)}
    else:
        forms = {"value": lambda: ndtr(d2),
                 "delta": lambda: alloc_phi(d2) / (x * st),
                 "gamma": lambda: -alloc_phi(d2) * (d2 + st) / (x * st) ** 2}
    return tuple(forms[w]() for w in what)


def alloc_hermite_polys(z, count):
    he = [z]
    for k in range(1, count - 1):
        he.append(z * he[k - 1] - k * (he[k - 2] if k > 1 else 1.0))
    return he[:count - 1]


def alloc_power_moments_raw(x, K, alpha, s, tau, n_nodes, count):
    sig = s * np.sqrt(tau)
    out = np.zeros((count,) + x.shape)
    zk = (np.log(K / x) + 0.5 * sig * sig) / sig
    smooth = zk <= pricing._Z_SMOOTH
    kinked = ~smooth
    if np.any(kinked):
        zks = zk[kinked]
        V = np.maximum(13.0 + alpha * sig - zks, 2.0) + 7.0
        u, w = _legendre01(n_nodes)
        up = u**pricing._KINK_POW
        dup = pricing._KINK_POW * u ** (pricing._KINK_POW - 1.0) * w
        v = V[:, None] * up[None, :]
        dv = V[:, None] * dup[None, :]
        z = zks[:, None] + v
        pay = (K * np.expm1(sig * v)) ** alpha
        core = pay * alloc_phi(z) * dv
        out[0][kinked] = core.sum(axis=1)
        for k, he in enumerate(alloc_hermite_polys(z, count), 1):
            out[k][kinked] = (core * he).sum(axis=1)
    if np.any(smooth):
        xs = x[smooth]
        z, w = _hermite(n_nodes)
        y = xs[:, None] * np.exp(sig * z - 0.5 * sig * sig)[None, :]
        core = np.maximum(y - K, 0.0) ** alpha * w
        out[0][smooth] = core.sum(axis=1)
        for k, he in enumerate(alloc_hermite_polys(z, count), 1):
            out[k][smooth] = (core * he).sum(axis=1)
    return out


def alloc_others(vals):
    """prod_{i != k} vals[:, i] for every column k, by prefix and suffix
    products over the columns of the (B, d) vals."""
    out = np.empty_like(vals)
    acc = np.ones(vals.shape[0])
    for k in range(vals.shape[1]):
        out[:, k] = acc
        acc *= vals[:, k]
    acc[:] = 1.0
    for k in reversed(range(vals.shape[1])):
        out[:, k] *= acc
        acc *= vals[:, k]
    return out


def alloc_product_gradient(factors, tau, x):
    vals, dels = np.empty(x.shape), np.empty(x.shape)
    for i, f in enumerate(factors):
        vals[:, i], dels[:, i] = f.value_delta(tau, x[:, i])
    return dels * alloc_others(vals)


def alloc_product_hessian(factors, tau, x):
    B, d = x.shape
    vals, dels, gams = (np.empty((B, d)) for _ in range(3))
    for i, f in enumerate(factors):
        vals[:, i], dels[:, i], gams[:, i] = f.value_delta_gamma(tau, x[:, i])
    others = alloc_others(vals)
    hess = np.empty((B, d, d))
    for i in range(d):
        hess[:, i, i] = gams[:, i] * others[:, i]
        for j in range(d):
            if j != i:
                rest = np.prod(np.delete(vals, [i, j], axis=1), axis=1)
                hess[:, i, j] = dels[:, i] * dels[:, j] * rest
    return hess


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


PRODUCT3 = (Factor1D("call"), Factor1D("power"), Factor1D("digital"))


class TestInPlaceKernels:
    """Every in-place kernel gives the bits of the allocating form."""

    METHODS = {"value": ("value",), "delta": ("delta",),
               "value_delta": ("value", "delta"),
               "value_delta_gamma": ("value", "delta", "gamma")}

    X = np.concatenate([
        np.exp(np.random.default_rng(14).normal(0.0, 0.8, 2000)),
        [1.2, 1e-30, 1e30]])

    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("tau", [1.0, 0.3, 1e-4, 1e-12, 1e-200])
    @pytest.mark.parametrize("kind", ["call", "digital"])
    def test_closed_form_factors(self, kind, tau, method):
        f = Factor1D(kind, K=1.2, s=0.8)
        got = getattr(f, method)(tau, self.X)
        got = got if isinstance(got, tuple) else (got,)
        want = alloc_factor(f, tau, self.X, self.METHODS[method])
        assert len(got) == len(want)
        assert all(map(same_bits, got, want))

    @pytest.mark.parametrize("tau", [5e-324, 1e-310])
    @pytest.mark.parametrize("kind", ["call", "digital"])
    def test_closed_form_factors_at_a_subnormal_tau(self, kind, tau):
        # s^2 tau / 2 underflows: only the rows with log(x / K) = 0 move,
        # and for the digital's gamma the rows where (x s sqrt(tau))^2 does
        f = Factor1D(kind, K=1.2, s=0.8)
        got = f.value_delta_gamma(tau, self.X)
        with np.errstate(all="ignore"):
            want = alloc_factor(f, tau, self.X, ("value", "delta", "gamma"))
            square = (self.X * f.s * np.sqrt(tau)) ** 2
        kept = [self.X != f.K] * 3
        if kind == "digital":
            kept[2] = kept[2] & (square >= np.finfo(float).tiny)
        for g, w, k in zip(got, want, kept):
            assert same_bits(g[k], w[k])

    @pytest.mark.parametrize("tau", [0.9, 1e-2, 1e-8])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_power_moments_raw(self, n, count, alpha, tau):
        # the table's nodes over a wide range: kinked and smooth points
        x = np.exp(lattice(POWER, tau, np.log(0.05), np.log(50.0)))
        got = _power_moments_raw(x, 1.0, alpha, 1.0, tau, n, count)
        want = alloc_power_moments_raw(x, 1.0, alpha, 1.0, tau, n, count)
        assert same_bits(got, want)

    @pytest.mark.parametrize("rows", [300, 16384])
    def test_product_gradient_and_hessian(self, rows):
        p = ProductPricing(PRODUCT3, 1.0)
        x = np.exp(np.random.default_rng(15).normal(0.0, 0.5, (rows, 3)))
        grad = alloc_product_gradient(PRODUCT3, 0.4, x)
        hess = alloc_product_hessian(PRODUCT3, 0.4, x)
        got_grad, got_hess = p.gradient(0.4, x), p.hessian(0.4, x)
        assert same_bits(got_grad, grad) and same_bits(got_hess, hess)
        # coordinate-major: views of contiguous factor-major arrays
        assert got_grad.T.flags.c_contiguous
        assert got_hess.transpose(1, 2, 0).flags.c_contiguous


class TestPowerAssemblyOrder:
    """Each power-factor method gives a Greek the bits the others give: the
    table holds D_0 ... D_3 whatever is asked, and gamma is assembled before
    delta is divided, while row 1 still holds D_1."""

    METHODS = TestInPlaceKernels.METHODS

    @pytest.mark.parametrize("tau", [0.9, 1e-3, 1e-8])
    @pytest.mark.parametrize("rows", [3000, 16384])
    def test_methods_agree(self, rows, tau):
        x = np.exp(np.random.default_rng(16).normal(0.0, 0.7, rows))
        got = {}
        for method, what in self.METHODS.items():
            out = getattr(POWER, method)(tau, x)
            out = out if isinstance(out, tuple) else (out,)
            for w, g in zip(what, out):
                got.setdefault(w, []).append(g)
        want = direct_power(tau, x, tuple(got))
        for outs, ref in zip(got.values(), want):
            assert all(same_bits(g, outs[0]) for g in outs)
            # measured: at most 1.8e-4 (gamma at tau = 1e-8) from the
            # direct quadrature, relative to its largest |entry|
            assert np.abs(outs[0] - ref).max() <= 1e-3 * np.abs(ref).max()


class TestPowerPriceIsPointwise:
    """A power price is a function of the factor, tau and x: any subset of
    a batch prices to the bits of its rows in the full batch."""

    @pytest.mark.parametrize("tau", [0.9, 0.3, 1e-2, 1e-4, 1e-8])
    def test_subsets_price_as_the_batch(self, tau):
        t = 1.0 - tau
        z = np.random.default_rng(18).standard_normal(16384)
        x = np.exp(np.sqrt(t) * z - 0.5 * t)
        pick = np.random.default_rng(19)
        for method in ("value", "delta", "value_delta_gamma"):
            full = getattr(POWER, method)(tau, x)
            for n in (0, 1, 7, 300, 4096, 6000):
                rows = np.sort(pick.choice(x.size, n, replace=False))
                got = getattr(POWER, method)(tau, x[rows])
                if method != "value_delta_gamma":
                    got, ref = (got,), (full[rows],)
                else:
                    ref = tuple(g[rows] for g in full)
                assert all(map(same_bits, got, ref)), (method, n)

    def test_far_apart_keys_build_few_nodes(self):
        # at tau = T a 1%-vol lattice has 123750 levels per unit log-price,
        # so these keys span 5.7e7 levels; a call builds the 8 it needs
        f = Factor1D("power", K=1.0, alpha=0.25, s=0.01)
        x = np.array([1e-100, 0.9, 1.0, 1e100])
        nmap = node_map(f, 1.0)
        level = np.floor(nmap.level(np.log(x))).astype(np.intp)
        assert nmap.lattice(level).size <= 8
        full = f.value_delta_gamma(1.0, x)
        assert all(np.all(np.isfinite(g)) for g in full)
        for i in range(x.size):
            got = f.value_delta_gamma(1.0, x[i:i + 1])
            assert all(same_bits(g, r[i:i + 1]) for g, r in zip(got, full))


class TestInputsUntouched:
    """Pricing writes no input and returns no view of one: the engine's
    running-sup update subtracts in place from the value it is given."""

    FACTOR_METHODS = ("payoff", "value", "delta", "value_delta",
                      "value_delta_gamma")

    @staticmethod
    def outputs(result):
        return result if isinstance(result, tuple) else (result,)

    def check(self, call, x):
        before = x.copy()
        for out in self.outputs(call(x)):
            assert not np.shares_memory(out, x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("rows", [300, 5000])
    @pytest.mark.parametrize("kind", ["call", "digital", "power", "const"])
    def test_factor(self, kind, rows):
        f = Factor1D(kind)
        states = np.exp(np.random.default_rng(16).normal(0.0, 0.5, (rows, 3)))
        for method in self.FACTOR_METHODS:
            entry = getattr(f, method)
            call = entry if method == "payoff" else (
                lambda x, entry=entry: entry(0.4, x))
            self.check(call, np.broadcast_to(1.1, (rows,)))
            for i in range(3):
                self.check(call, states[:, i])

    @pytest.mark.parametrize("rows", [300, 5000])
    def test_product(self, rows):
        p = ProductPricing(PRODUCT3, 1.0)
        states = np.exp(np.random.default_rng(17).normal(0.0, 0.5, (rows, 3)))
        x0 = np.broadcast_to(np.array([1.0, 1.1, 0.9]), (rows, 3))
        for method in ("payoff", "value", "gradient", "hessian"):
            entry = getattr(p, method)
            call = entry if method == "payoff" else (
                lambda x, entry=entry: entry(0.4, x))
            self.check(call, x0)
            self.check(call, states)


SPEC_GBM2 = gbm_diagonal(2, 1.0, [1.0, 1.0])


def gbm2_states(t, n_paths):
    """The seed-3 GBM states (s = 1, x0 = 1) of n_paths paths at the date t
    of the horizon T = 1."""
    [(_, _, x)] = path_states(SPEC_GBM2, [[1.0, 1.0 - t]], 3,
                              np.arange(n_paths))
    return x


class TestSumDigital:
    def test_degenerate_reduction(self):
        # a zero weight leaves the one-asset digital with strike K / lam_k
        x = np.array([[0.8, 5.0], [1.0, 0.1], [1.3, 2.0]])
        for lam, k in (((1.0, 0.0), 0), ((0.0, 2.0), 1)):
            sd = SumDigital2D(1.0, lam, (1.0, 0.7), 1.0)
            v, dl, g = Factor1D("digital", K=1.0 / lam[k],
                                s=(1.0, 0.7)[k]).value_delta_gamma(
                1.0 - 0.2, x[:, k])
            assert np.array_equal(sd.value(1.0 - 0.2, x), v)
            grad = np.zeros_like(x)
            grad[:, k] = dl
            assert np.array_equal(sd.gradient(1.0 - 0.2, x), grad)
            hess = np.zeros((3, 2, 2))
            hess[:, k, k] = g
            assert np.array_equal(sd.hessian(1.0 - 0.2, x), hess)

    @pytest.mark.parametrize("K, s", [
        (-1.0, (1.0, 1.0)), (0.0, (1.0, 1.0)), (np.nan, (1.0, 1.0)),
        (2.0, (0.0, 1.0)), (2.0, (1.0, -1.0)),
    ])
    def test_rejects_strike_and_vols_not_positive(self, K, s):
        with pytest.raises(ValueError, match="must be positive"):
            SumDigital2D(K, (1.0, 1.0), s, 1.0)

    def test_value_vs_monte_carlo(self):
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        [(_, _, xT)] = path_states(SPEC_GBM2, [[1.0, 0.0]], 77,
                                   np.arange(2_000_000))
        pay = (xT.sum(axis=1) >= 2.0).astype(float)
        se = pay.std(ddof=1) / np.sqrt(pay.size)
        v = sd.value(1.0, np.array([[1.0, 1.0]]))[0]
        assert abs(v - pay.mean()) < 3.0 * se

    def test_symmetry(self):
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        x = np.array([[1.3, 0.7]])
        assert sd.value(0.4, x)[0] == pytest.approx(
            sd.value(0.4, x[:, ::-1])[0], abs=1e-10
        )
        g, gs = sd.gradient(0.4, x)[0], sd.gradient(0.4, x[:, ::-1])[0]
        assert g == pytest.approx(gs[::-1], rel=1e-9)
        h, hs = sd.hessian(0.4, x)[0], sd.hessian(0.4, x[:, ::-1])[0]
        assert h == pytest.approx(hs[::-1, ::-1], rel=1e-9)
        assert h[0, 1] == h[1, 0]

    def test_payoff(self):
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        assert np.array_equal(
            sd.payoff(np.array([[1.0, 1.0], [0.5, 1.0]])), [1.0, 0.0]
        )

    def test_gradient_matches_coarser_fd(self):
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        x = np.array([[1.1, 0.9]])
        fd = fd_gradient(sd, 0.5, x, h_rel=1e-3)
        assert np.allclose(sd.gradient(0.5, x), fd, rtol=1e-4)

    @staticmethod
    def richardson(diff, levels=3):
        """Richardson extrapolation of a central difference diff(a), whose
        error is a series in a^2, from the steps a = 1, 1/2, ..., 2^-levels."""
        ds = [diff(0.5**i) for i in range(levels + 1)]
        for j in range(1, levels + 1):
            ds = [(4**j * fine - coarse) / (4**j - 1)
                  for coarse, fine in zip(ds, ds[1:])]
        return ds[0]

    @pytest.mark.parametrize("t", [0.5, 0.95, 0.99])
    def test_greeks_match_richardson_differences(self, t):
        # The gradient and the Hessian are integrands of the value's
        # quadrature; central differences of the value, extrapolated, must
        # agree with them to 1e-8 of each Greek's largest |entry| over 256
        # states at the date t. Steps are 1/5 of the log-price scale
        # x s sqrt(tau). Measured: at most 1.3e-9 (a diagonal entry at
        # t = 0.95).
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        x, tau = gbm2_states(t, 256), 1.0 - t
        h = 0.2 * np.sqrt(tau) * x

        def value(a, b):
            return sd.value(tau, x + h * [a, b])

        v0 = value(0.0, 0.0)
        e = np.eye(2)
        grad, hess = sd.gradient(tau, x), sd.hessian(tau, x)
        assert np.array_equal(hess[:, 0, 1], hess[:, 1, 0])
        greeks, fd = [], []
        for k in range(2):
            greeks += [grad[:, k], hess[:, k, k]]
            fd.append(self.richardson(
                lambda a: (value(*(a * e[k])) - value(*(-a * e[k])))
                / (2.0 * a * h[:, k])))
            fd.append(self.richardson(
                lambda a: (value(*(a * e[k])) - 2.0 * v0
                           + value(*(-a * e[k]))) / (a * h[:, k]) ** 2))
        greeks.append(hess[:, 0, 1])
        fd.append(self.richardson(
            lambda a: (value(a, a) - value(a, -a) - value(-a, a)
                       + value(-a, -a)) / (4.0 * a * a * h[:, 0] * h[:, 1])))
        for i, (got, ref) in enumerate(zip(greeks, fd)):
            err = np.abs(got - ref).max() / np.abs(got).max()
            assert err <= 1e-8, (i, err)

    @pytest.mark.parametrize("t", [0.5, 0.9, 0.95, 0.98, 0.99])
    def test_converges_on_a_large_batch(self, t):
        # 16384 GBM states. Next to z* the effective strike K - l2 X2 can
        # round below 0, and unclamped its log is NaN, which no level
        # passes. The value and gradient converge up to t = 0.99, the
        # Hessian up to t = 0.98.
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        x, tau = gbm2_states(t, 16384), 1.0 - t
        greeks = ((sd.value(tau, x), sd.gradient(tau, x)) if t == 0.99
                  else (sd.hessian(tau, x),))
        assert all(np.all(np.isfinite(g)) for g in greeks)

    def test_quadrature_error_when_unreachable(self, monkeypatch):
        monkeypatch.setattr(pricing, "QUAD_RTOL", 1e-300)
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        with pytest.raises(QuadratureError, match="sum-digital quadrature"):
            sd.value(0.5, np.array([[1.1, 0.9]]))

    # Without the veto each of these returned the value 0 and a zero
    # gradient, where the price is about 1 (0.5 at the kink x = (1, 1)):
    # no node lay in the Gaussian bulk, so every level agreed on N(-z*).
    @pytest.mark.parametrize("x, tau", [
        ((1.5, 1.5), 1e-12), ((1.2, 1.0), 1e-10), ((1.2, 1.0), 1e-12),
        ((3.0, 0.1), 1e-10), ((3.0, 0.1), 1e-12), ((1.0, 1.0), 1e-10),
        ((1.0, 1.0), 1e-12),
    ])
    def test_raises_where_its_rule_misses_the_step(self, x, tau):
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        for method in (sd.value, sd.gradient):
            with pytest.raises(QuadratureError):
                method(tau, np.array([x]))

    @pytest.mark.parametrize("x, want", [((0.1, 3.0), 1.0), ((0.5, 0.5), 0.0)])
    def test_prices_away_from_the_step_at_maturity(self, x, want):
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        x = np.array([x])
        assert sd.value(1e-12, x)[0] == want
        assert np.all(sd.gradient(1e-12, x) == 0.0)

    @pytest.mark.parametrize("tau", [0.5, 0.1, 0.05, 0.02, 0.01, 1e-3])
    def test_veto_moves_no_price_the_rule_resolves(self, tau, monkeypatch):
        # 4096 states: every value, gradient and Hessian is bitwise the one
        # node doubling gives without the veto row, or both raise (the
        # Hessian at tau = 0.01, all three at 1e-3)
        sd = SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0)
        x = gbm2_states(1.0 - tau, 4096)

        def prices():
            out = []
            for method in (sd.value, sd.gradient, sd.hessian):
                try:
                    out.append(method(tau, x).tobytes())
                except QuadratureError:
                    out.append(None)
            return out

        with_veto = prices()
        raw = SumDigital2D._moments_raw
        monkeypatch.setattr(SumDigital2D, "_moments_raw",
                            lambda self, *a: raw(self, *a)[:-1])
        assert prices() == with_veto


class TestBMQuadratic:
    def test_values(self):
        p = BMQuadratic(1, 1.0)
        assert p.value(1.0, np.array([[0.0]]))[0] == 1.0
        assert np.array_equal(
            p.gradient(1.0, np.array([[1.0, 2.0][:1]])), [[2.0]]
        )
        p2 = BMQuadratic(2, 1.0)
        assert np.array_equal(p2.gradient(1.0, np.array([[1.0, 2.0]])), [[2.0, 4.0]])

    def test_pde_identity_exact(self):
        # dF/dt = -d and (1/2) tr(2I) = d cancel exactly
        p = BMQuadratic(3, 1.0)
        x = np.array([[0.3, -0.2, 1.0]])
        h = p.hessian(1.0, x)[0]
        assert -p.d + 0.5 * np.trace(h) == 0.0


class TestThetaHints:
    def test_catalogue_hints(self):
        assert Factor1D("digital").theta_hint == 0.75
        assert Factor1D("call").theta_hint == 0.25
        assert Factor1D("power", alpha=0.25).theta_hint == pytest.approx(0.625)
        # x^alpha is smooth: its Gamma stays bounded as tau -> 0
        assert Factor1D("power", K=0.0, alpha=0.25).theta_hint == 0.0
        assert BMQuadratic(1, 1.0).theta_hint == 0.0
        p = make_pricing("product", {"factors": [
            {"kind": "call", "K": 1.0, "s": 1.0},
            {"kind": "power", "K": 1.0, "alpha": 0.25, "s": 1.0},
            {"kind": "digital", "K": 1.0, "s": 1.0},
        ]}, 1.0)
        assert p.theta_hint == 0.75

    def test_product_hint_floors_at_half(self):
        p = ProductPricing([Factor1D("call"), Factor1D("call")], 1.0)
        assert p.theta_hint == 0.5


class TestStatisticalInvariants:
    @pytest.mark.parametrize("key,params", [
        ("digital", {"K": 1.0, "s": 1.0}),
        ("call", {"K": 1.0, "s": 1.0}),
        ("power", {"K": 1.0, "alpha": 0.25, "s": 1.0}),
    ])
    def test_martingale_tracking(self, key, params):
        pr = make_pricing(key, params, 1.0)
        spec = gbm_diagonal(1, 1.0, 1.0)
        v0 = pr.value(1.0, np.array([[1.0]]))[0]
        for t in (0.25, 0.75):
            [(_, _, x)] = path_states(spec, [[1.0, 1.0 - t]], 31,
                                      np.arange(100000))
            v = pr.value(1.0 - t, x)
            se = v.std(ddof=1) / np.sqrt(v.size)
            assert abs(v.mean() - v0) < 3.0 * se

    def test_terminal_consistency(self):
        pr = make_pricing("digital", {"K": 1.0, "s": 1.0}, 1.0)
        spec = gbm_diagonal(1, 1.0, 1.0)
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            (_, _, x), (_, _, xT) = path_states(
                spec, [[1.0, eps, 0.0]], 41, np.arange(100000)
            )
            v = pr.value(eps, x)
            f = pr.payoff(xT)
            d = (v - f) ** 2
            gaps.append((d.mean(), d.std(ddof=1) / np.sqrt(d.size)))
        for (m1, s1), (m2, s2) in zip(gaps, gaps[1:]):
            assert m2 < m1 + 2.0 * (s1 + s2)

    def test_digital_gamma_blowup_slope(self):
        # E[(x^2 F'')^2] ~ tau^{-1.5}
        spec = gbm_diagonal(1, 1.0, 1.0)
        taus = np.geomspace(0.5, 0.001, 12)
        ms = []
        for tau in taus:
            [(_, _, x)] = path_states(spec, [[1.0, tau]], 51,
                                      np.arange(100000))
            x = x[:, 0]
            g = x * x * DIGITAL.value_delta_gamma(tau, x)[2]
            ms.append((g * g).mean())
        slope = np.polyfit(np.log(taus), np.log(ms), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.15)


class TestMakePricing:
    def test_unknown_key(self):
        with pytest.raises(ArgumentError):
            make_pricing("straddle", {}, 1.0)

    def test_catalogue_keys(self):
        assert make_pricing("call", {"K": 1.0}, 1.0).d == 1
        assert make_pricing("digital", {}, 1.0).d == 1
        assert make_pricing("power", {"alpha": 0.3}, 1.0).d == 1
        assert make_pricing("sum_digital_2d", {}, 1.0).d == 2
        assert make_pricing("bm_quadratic", {"d": 3}, 1.0).d == 3

    @pytest.mark.parametrize("method", ["value", "gradient", "hessian"])
    @pytest.mark.parametrize("key,params", [
        ("call", {}), ("digital", {}), ("power", {}),
        ("product", {"factors": [{"kind": "call"}, {"kind": "power"}]}),
        ("sum_digital_2d", {}), ("bm_quadratic", {"d": 2}),
        # a product of const factors checks tau too
        ("product", {"factors": [{"kind": "const"}, {"kind": "const"}]}),
    ])
    def test_rejects_maturity(self, key, params, method):
        pr = make_pricing(key, params, 1.0)
        for tau in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="tau > 0"):
                getattr(pr, method)(tau, np.ones((3, pr.d)))
