import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

import hedgenet.timenets as tn
from hedgenet.cli import main
from hedgenet.pricing import make_pricing
from hedgenet.timenets import (
    TimeNet,
    equidistant_net,
    eta_net,
    lemma_net_functional,
    refine,
)


class TestTimeNetValidation:
    # a net holds times to maturity, from T down to 0
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="from exactly T to 0"):
            TimeNet(1.0, np.array([0.9, 0.0]))

    def test_rejects_wrong_end(self):
        with pytest.raises(ValueError, match="from exactly T to 0"):
            TimeNet(1.0, np.array([1.0, 0.1]))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            TimeNet(1.0, np.array([1.0, 0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="strictly decreasing"):
            TimeNet(1.0, np.array([1.0, 0.3, 0.6, 0.0]))

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            TimeNet(1.0, np.array([1.0]))

    def test_knots_are_frozen(self):
        net = equidistant_net(1.0, 4)
        with pytest.raises(ValueError):
            net.knots[1] = 0.3
        with pytest.raises(ValueError):
            net.taus[1] = 0.3

    def test_knots_are_the_dates_of_the_taus(self):
        net = eta_net(2.0, 8, 0.5)
        assert np.array_equal(net.knots, 2.0 - net.taus)
        assert np.array_equal(net.spacings(), net.taus[:-1] - net.taus[1:])


class TestEtaNet:
    def test_eta_zero_is_equidistant(self):
        got = eta_net(1.0, 4, 0.0).knots
        assert np.array_equal(got, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_direct_evaluation(self):
        got = eta_net(1.0, 2, 0.5).knots
        assert np.array_equal(got, [0.0, 0.75, 1.0])

    def test_n_one_endpoints(self):
        got = eta_net(2.0, 1, 0.9).knots
        assert np.array_equal(got, [0.0, 2.0])

    def test_endpoints_exact_for_awkward_n(self):
        for n in (3, 7, 100, 511):
            net = eta_net(1.0, n, 0.75)
            assert net.knots[0] == 0.0
            assert net.knots[-1] == 1.0
            assert net.knots.size == n + 1

    def test_underflowing_net_rejected(self):
        with pytest.raises(ValueError, match="underflows to 0") as e:
            eta_net(1.0, 8, 0.999)
        assert "eta=0.999" in str(e.value) and "n=8" in str(e.value)

    def test_eta_zero_bitwise_equals_equidistant(self):
        for n in (1, 3, 7, 64):
            a = eta_net(1.0, n, 0.0).knots
            b = equidistant_net(1.0, n).knots
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 0.9])
    def test_first_spacing_at_least_last(self, eta):
        dt = eta_net(1.0, 16, eta).spacings()
        if eta == 0.0:
            assert dt[0] == pytest.approx(dt[-1])
        else:
            assert dt[0] > dt[-1]

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_rejects_bad_eta(self, bad):
        with pytest.raises(ValueError):
            eta_net(1.0, 4, bad)

    def test_rejects_bad_n_and_T(self):
        with pytest.raises(ValueError):
            eta_net(1.0, 0, 0.5)
        with pytest.raises(ValueError):
            eta_net(-1.0, 4, 0.5)


class TestEquidistant:
    def test_examples(self):
        assert np.array_equal(equidistant_net(1.0, 1).knots, [0.0, 1.0])
        assert np.array_equal(
            equidistant_net(1.0, 4).knots, [0.0, 0.25, 0.5, 0.75, 1.0]
        )
        assert np.array_equal(equidistant_net(3.0, 3).knots, [0.0, 1.0, 2.0, 3.0])


class TestRefine:
    def test_trivial_net(self):
        g = refine(TimeNet(1.0, np.array([1.0, 0.0])), 2)
        assert np.array_equal(g, [1.0, 0.5, 0.0])

    def test_union_of_grids(self):
        g = refine(TimeNet(1.0, np.array([1.0, 0.25, 0.0])), 4)
        assert np.array_equal(g, [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_coincident_grids(self):
        g = refine(TimeNet(1.0, np.array([1.0, 0.5, 0.0])), 2)
        assert np.array_equal(g, [1.0, 0.5, 0.0])

    def test_contains_all_knots(self):
        net = eta_net(1.0, 8, 0.75)
        g = refine(net, 64)
        assert np.all(np.isin(net.taus, g))

    def test_monotone_refinement(self):
        net = eta_net(1.0, 4, 0.5)
        coarse = refine(net, 8)
        fine = refine(net, 16)
        assert np.all(np.isin(coarse, fine))

    def test_rejects_small_M(self):
        with pytest.raises(ValueError):
            refine(equidistant_net(1.0, 4), 2)

    def test_knot_index_consistency(self):
        # every fine step lies inside one net interval [tau_i, tau_{i-1})
        net = eta_net(1.0, 4, 0.75)
        g = refine(net, 16)
        idx = np.searchsorted(-net.taus, -g, side="left")
        for j in range(1, g.size):
            i = idx[j]
            assert net.taus[i - 1] >= g[j - 1] > g[j] >= net.taus[i]


class TestLemmaFunctional:
    def test_single_interval_theta_zero(self):
        net = TimeNet(1.0, np.array([1.0, 0.0]))
        assert lemma_net_functional(net, 0.0) == pytest.approx(0.5)

    def test_equidistant_theta_zero(self):
        assert lemma_net_functional(equidistant_net(1.0, 4), 0.0) == \
            pytest.approx(0.125)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.75])
    def test_matches_numeric_quadrature(self, theta, monkeypatch):
        # truncate at 1e-3 so adaptive quadrature can resolve the endpoint
        monkeypatch.setattr(tn, "EPS_LAST", 1e-3)
        net = equidistant_net(1.0, 4)
        total = 0.0
        for i in range(1, net.knots.size):
            t0, t1 = net.knots[i - 1], net.knots[i]
            if i == net.knots.size - 1 and 2.0 * theta >= 1.0:
                t1 = min(t1, 1.0 - 1e-3)
            v, _ = dblquad(
                lambda s, u: (1.0 - s) ** (-2.0 * theta),
                t0, t1, lambda u: t0, lambda u: u,
            )
            total += v
        assert lemma_net_functional(net, theta) == pytest.approx(total, rel=1e-9)

    def test_nonnegative_and_finite(self):
        for theta in (0.0, 0.25, 0.5, 0.75, 0.99):
            v = lemma_net_functional(eta_net(1.0, 16, 0.5), theta)
            assert np.isfinite(v) and v >= 0.0

    def test_rejects_theta_out_of_range(self):
        net = equidistant_net(1.0, 2)
        with pytest.raises(ValueError):
            lemma_net_functional(net, 1.0)
        with pytest.raises(ValueError):
            lemma_net_functional(net, -0.1)

    def test_eta_net_n_times_s_bounded(self):
        # eta > 2 theta - 1: n * S stays bounded as n grows
        theta, eta = 0.75, 0.75
        ns = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        vals = [
            n * lemma_net_functional(eta_net(1.0, n, eta), theta)
            for n in ns
        ]
        assert max(vals) <= 2.0 * vals[0]

    def test_equidistant_n_times_s_unbounded(self):
        theta = 0.75
        v8 = 8 * lemma_net_functional(equidistant_net(1.0, 8), theta)
        v4096 = 4096 * lemma_net_functional(equidistant_net(1.0, 4096), theta)
        assert v4096 >= 4.0 * v8

    def test_csv_round_trip(self, tmp_path):
        # a net written by `hedgenet net` reads back to the same bits
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", "8", "--eta", "0.75",
                     "--out", str(out)]) == 0
        text = out.read_text()
        # every row at %.17g, the bytes earlier releases wrote
        assert text == (
            "t,tau\n0,1\n0.413818359375,0.586181640625\n"
            "0.68359375,0.31640625\n0.847412109375,0.152587890625\n"
            "0.9375,0.0625\n0.980224609375,0.019775390625\n"
            "0.99609375,0.00390625\n0.999755859375,0.000244140625\n1,0\n")
        lines = text.splitlines()
        got = np.array([[float(v) for v in line.split(",")]
                        for line in lines[1:]])
        net = eta_net(1.0, 8, 0.75)
        assert np.array_equal(got[:, 0], net.knots)
        assert np.array_equal(got[:, 1], net.taus)


ETAS = st.floats(0.0, 1.0, exclude_max=True)

# the call, digital and power payoffs at their default strike and vol
PAYOFFS = [make_pricing(key, {}, 1.0) for key in ("call", "digital", "power")]


def _underflows(n, eta):
    return (1.0 / n) ** (1.0 / (1.0 - eta)) == 0.0


class TestEtaNetProperties:
    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(1, 4096), eta=ETAS)
    @example(n=8, eta=0.999)  # underflows
    @example(n=256, eta=0.9)  # its dates round to T
    def test_builds_exactly_when_no_tau_underflows(self, n, eta):
        # an eta-net fails exactly when its last positive time to maturity
        # underflows; otherwise its times strictly decrease, and the net
        # with 2n intervals holds them bit for bit at its even indices
        if _underflows(n, eta):
            with pytest.raises(ValueError, match="underflows to 0"):
                eta_net(1.0, n, eta)
            return
        taus = eta_net(1.0, n, eta).taus
        assert taus[0] == 1.0 and taus[-1] == 0.0
        assert np.all(np.diff(taus) < 0.0)
        if not _underflows(2 * n, eta):
            assert eta_net(1.0, 2 * n, eta).taus[::2].tobytes() \
                == taus.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4096), eta=ETAS)
    @example(n=1500, eta=0.99)  # its last positive tau is subnormal
    def test_gradients_finite_at_every_tau(self, n, eta):
        if _underflows(n, eta):
            return
        x = np.array([[0.3], [0.9], [1.0], [1.1], [3.0]])
        for tau in eta_net(1.0, n, eta).taus[:-1]:
            for p in PAYOFFS:
                assert np.all(np.isfinite(p.gradient(tau, x))), (p, tau)
