import numpy as np
import pytest
from scipy.special import ndtri

from hedgenet.analysis import (
    default_theta_grid,
    estimate_h2,
    estimate_theta,
)
from hedgenet.hedging import path_error
from hedgenet.models import gbm_diagonal
from hedgenet.oracle import mc_payoff_expectation
from hedgenet.pricing import Factor1D, ProductPricing
from hedgenet.rng import (ArgumentError, SeedSpec, _BatchStream,
                          check_horizon, normals, uniforms)
from hedgenet.timenets import TimeNet, eta_net, refine


class TestCheckHorizon:
    @pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan, True, "1",
                                   None])
    def test_refuses_all_but_a_finite_positive_real(self, T):
        with pytest.raises(ArgumentError, match="horizon must be positive "
                           "and finite, not"):
            check_horizon(T)

    def test_returns_the_horizon_as_a_float(self):
        assert type(check_horizon(2)) is float and check_horizon(2) == 2.0
        assert check_horizon(np.float64(0.5)) == 0.5


class TestSeedSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, -3)


SPEC = gbm_diagonal(1, 1.0, 1.0)
SPEC_2D = gbm_diagonal(2, 1.0, 1.0)
DIGITAL = ProductPricing([Factor1D("digital", K=1.0, s=1.0)], T=1.0)
NET = eta_net(1.0, 2, 0.0)
GRID = [0.5, 0.1, 0.01]

#: the one-step Monte Carlo entries, each called as fn(n_paths, master_seed)
ONE_STEP = {
    "estimate_theta": lambda n, s: estimate_theta(SPEC, DIGITAL, GRID, n, s),
    "estimate_h2": lambda n, s: estimate_h2(SPEC, DIGITAL, [0.5], n, s),
    "mc_payoff_expectation": lambda n, s: mc_payoff_expectation(
        SPEC, DIGITAL, n, s),
}

BAD_SEEDS = (1.5, True, -1, 2**64, "1")

#: every library entry outside the hedging engine that takes a count, a
#: seed, a date grid or a model and a payoff, called on a bad one
BAD_INPUTS = {
    **{f"eta_net-n-{n}": lambda n=n: eta_net(1.0, n, 0.0)
       for n in (True, 2.5, 0)},
    **{f"refine-M-{M}": lambda M=M: refine(NET, M) for M in (2.5, 8.0, 0)},
    **{f"default_theta_grid-{k}": lambda k=k: default_theta_grid(1.0, k)
       for k in (2, 0, 20.0)},
    "estimate_theta-2-times": lambda: estimate_theta(
        SPEC, DIGITAL, [0.5, 0.1], 100),
    **{f"{name}-n_paths-{n}": lambda fn=fn, n=n: fn(n, 0)
       for name, fn in ONE_STEP.items() for n in (2.5, 1, 0, True)},
    **{f"{name}-seed-{seed!r}": lambda fn=fn, seed=seed: fn(100, seed)
       for name, fn in ONE_STEP.items() for seed in BAD_SEEDS},
    **{f"SeedSpec-seed-{seed!r}": lambda seed=seed: SeedSpec(seed)
       for seed in BAD_SEEDS},
    **{f"normals-seed-{seed!r}": lambda seed=seed: normals(seed, 0, 0, 1)
       for seed in BAD_SEEDS},
    # one horizon rule: finite and positive
    **{f"eta_net-T-{T}": lambda T=T: eta_net(T, 4, 0.0)
       for T in (np.inf, np.nan, 0.0)},
    **{f"TimeNet-horizon-{T}": lambda T=T: TimeNet(T, [T, 0.0])
       for T in (np.inf, -1.0)},
    **{f"ProductPricing-T-{T}": lambda T=T: ProductPricing(
        [Factor1D("digital")], T) for T in (np.inf, np.nan)},
    "SeedSpec-path-0.5": lambda: SeedSpec(1, 0.5),
    "SeedSpec-path--1": lambda: SeedSpec(1, -1),
    "path_error-SeedSpec(1.5, 0.5)": lambda: path_error(
        SPEC, DIGITAL, NET, 4, SeedSpec(1.5, 0.5)),
    "path_error-monitor_factor-True": lambda: path_error(
        SPEC, DIGITAL, NET, True, SeedSpec(1)),
    **{f"estimate_h2-date-{u}": lambda u=u: estimate_h2(
        SPEC, DIGITAL, u, 100)
       for u in ([1.0], [1.5], [np.nan], [-0.1], [], [True], 0.5)},
    # a two-asset model under a one-asset payoff
    "estimate_theta-dimension": lambda: estimate_theta(
        SPEC_2D, DIGITAL, GRID, 100),
    "estimate_h2-dimension": lambda: estimate_h2(SPEC_2D, DIGITAL, [0.5], 100),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_count_seed_or_date_fails_before_any_draw(case, monkeypatch):
    import hedgenet.models as models

    drawn = []
    monkeypatch.setattr(models, "normals", lambda *a, **k: drawn.append(a))
    with pytest.raises(ArgumentError):
        BAD_INPUTS[case]()
    assert drawn == []


class TestUniforms:
    def test_open_interval(self):
        u = uniforms(7, np.arange(100000), 0, 0)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_deterministic(self):
        a = uniforms(42, np.arange(64), 3, 1)
        b = uniforms(42, np.arange(64), 3, 1)
        assert np.array_equal(a, b)

    def test_key_sensitivity(self):
        base = uniforms(42, 5, 3, 1)
        assert uniforms(43, 5, 3, 1) != base
        assert uniforms(42, 6, 3, 1) != base
        assert uniforms(42, 5, 4, 1) != base
        assert uniforms(42, 5, 3, 2) != base


class TestNormals:
    def test_shape(self):
        z = normals(0, np.arange(10), 2, 3)
        assert z.shape == (10, 3)

    def test_batch_independence(self):
        # a big batch equals the concatenation of small ones
        full = normals(9, np.arange(100), 0, 2)
        parts = np.concatenate(
            [normals(9, np.arange(i, i + 10), 0, 2) for i in range(0, 100, 10)]
        )
        assert np.array_equal(full, parts)

    def test_scalar_vs_vector_paths(self):
        vec = normals(9, np.arange(5), 7, 1)
        for i in range(5):
            assert np.array_equal(normals(9, i, 7, 1), vec[i])

    def test_moments(self):
        z = normals(1234, np.arange(200000), 0, 2)
        n = z.size
        # mean stderr 1/sqrt(n); var stderr sqrt(2/n)
        assert abs(z.mean()) < 4.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)

    def test_cross_correlation_between_steps(self):
        a = normals(5, np.arange(100000), 0, 1).ravel()
        b = normals(5, np.arange(100000), 1, 1).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(a.size)


class TestBatchStream:
    """path_states draws through a stream that computes the path keys once
    per batch and reuses its buffers; it must draw the four-key normals."""

    @pytest.mark.parametrize("master_seed", [0, 2**63 - 1])
    @pytest.mark.parametrize("d", [1, 3])
    def test_equals_four_key_normals(self, master_seed, d):
        B = 256
        idx = np.arange(3 * B, 4 * B)  # a batch away from path 0
        stream = _BatchStream(master_seed, idx, d, 2**20 + 1)
        for step in (0, 1, 2**20):
            got = normals(master_seed, idx, step, d, _stream=stream)
            want = normals(master_seed, idx, step, d)
            assert got.shape == (B, d)
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def block(B, d):
        """Step indices per block: as many as fit in 2**16 words, >= 1."""
        return max(1, 2**16 // (B * d))

    @pytest.mark.parametrize("B", [256, 16384])
    @pytest.mark.parametrize("d", [1, 3])
    def test_blocks_in_order_equal_four_key_normals(self, B, d):
        # 3K + 2 steps: three full blocks and a ragged last one of 2
        steps = 3 * self.block(B, d) + 2
        idx = np.arange(B, 2 * B)
        stream = _BatchStream(5, idx, d, steps)
        for step in range(steps):
            got = normals(5, idx, step, d, _stream=stream)
            # a view of the stream's contiguous coordinate-major slice
            assert got.shape == (B, d) and got.T.flags.c_contiguous
            assert got.tobytes() == normals(5, idx, step, d).tobytes()

    @pytest.mark.parametrize("B", [256, 16384])
    @pytest.mark.parametrize("d", [1, 3])
    def test_blocks_out_of_order_equal_four_key_normals(self, B, d):
        idx = np.arange(B)
        stream = _BatchStream(5, idx, d, 3 * self.block(B, d) + 2)
        for step in (0, 2**20, 1):
            got = normals(5, idx, step, d, _stream=stream)
            assert got.tobytes() == normals(5, idx, step, d).tobytes()

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_stream_draws_no_step_past_the_last(self, monkeypatch, n_steps):
        # a 256-path batch has 256-step blocks; the inverse CDF must still
        # run over the asked-for steps' words alone
        import hedgenet.rng as rng
        from hedgenet.models import one_step_states, path_states

        words = []

        def counting_ndtri(u, **kw):
            words.append(u.size)
            return ndtri(u, **kw)

        monkeypatch.setattr(rng, "ndtri", counting_ndtri)
        spec = gbm_diagonal(2, 1.0, 1.0)
        if n_steps == 1:
            states = one_step_states(spec, 1.0, [0.5, 0.25], 256, 3)
        else:
            states = (x for _, _, x in path_states(
                spec, [np.linspace(1.0, 0.0, n_steps + 1)], 3,
                np.arange(256)))
        assert len(list(states)) == (2 if n_steps == 1 else n_steps)
        assert sum(words) == n_steps * 256 * 2

    @pytest.mark.parametrize("B, d", [(16384, 1), (256, 1), (4096, 3),
                                      (100000, 1)])
    def test_buffer_bytes(self, B, d):
        # two (K, B, d) buffers of 8-byte words: at most 2**16 words each,
        # or one step's B d words where a step alone is larger
        stream = _BatchStream(0, np.arange(B), d, 10**6)
        held = stream._words.nbytes + stream._out.nbytes
        assert held == 2 * 8 * self.block(B, d) * B * d
        assert held <= 2 * 8 * max(2**16, B * d)

    def test_rejects_a_draw_it_cannot_make(self):
        stream = _BatchStream(0, np.arange(8), 2, 1)
        with pytest.raises(ValueError):
            normals(0, np.arange(8), 0, 3, _stream=stream)
        with pytest.raises(ValueError):
            normals(0, np.arange(8), np.array([0, 1]), 2, _stream=stream)
