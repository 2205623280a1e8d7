import numpy as np
import pytest
from scipy.integrate import dblquad

import hedgenet.timenets as tn
from hedgenet.timenets import (
    TimeNet,
    equidistant_net,
    eta_net,
    lemma_net_functional,
    refine,
)


class TestTimeNetValidation:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            TimeNet(1.0, np.array([0.1, 1.0]))

    def test_rejects_wrong_end(self):
        with pytest.raises(ValueError):
            TimeNet(1.0, np.array([0.0, 0.9]))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            TimeNet(1.0, np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            TimeNet(1.0, np.array([0.0]))

    def test_knots_are_frozen(self):
        net = equidistant_net(1.0, 4)
        with pytest.raises(ValueError):
            net.knots[1] = 0.3


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

    def test_knots_rounding_to_maturity_rejected(self):
        for eta, n in ((0.9, 256), (0.95, 512), (0.99, 64), (0.999, 8)):
            with pytest.raises(ValueError, match="double precision") as e:
                eta_net(1.0, n, eta)
            assert f"eta={eta:g}" in str(e.value)
            assert f"n={n}" in str(e.value)

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
        g = refine(TimeNet(1.0, np.array([0.0, 1.0])), 2)
        assert np.array_equal(g, [0.0, 0.5, 1.0])

    def test_union_of_grids(self):
        g = refine(TimeNet(1.0, np.array([0.0, 0.75, 1.0])), 4)
        assert np.array_equal(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_coincident_grids(self):
        g = refine(TimeNet(1.0, np.array([0.0, 0.5, 1.0])), 2)
        assert np.array_equal(g, [0.0, 0.5, 1.0])

    def test_contains_all_knots(self):
        net = eta_net(1.0, 8, 0.75)
        g = refine(net, 64)
        assert np.all(np.isin(net.knots, g))

    def test_monotone_refinement(self):
        net = eta_net(1.0, 4, 0.5)
        coarse = refine(net, 8)
        fine = refine(net, 16)
        assert np.all(np.isin(coarse, fine))

    def test_rejects_small_M(self):
        with pytest.raises(ValueError):
            refine(equidistant_net(1.0, 4), 2)

    def test_knot_index_consistency(self):
        # every fine step lies inside one net interval (t_{i-1}, t_i]
        net = eta_net(1.0, 4, 0.75)
        g = refine(net, 16)
        idx = np.searchsorted(net.knots, g, side="left")
        for j in range(1, g.size):
            i = idx[j]
            assert net.knots[i - 1] <= g[j - 1] < g[j] \
                <= net.knots[i]


class TestLemmaFunctional:
    def test_single_interval_theta_zero(self):
        net = TimeNet(1.0, np.array([0.0, 1.0]))
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
        net = eta_net(1.0, 8, 0.75)
        path = tmp_path / "net.csv"
        net.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t"
        got = np.array([float(v) for v in lines[1:]])
        assert np.array_equal(got, net.knots)
