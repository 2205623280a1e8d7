import itertools

import numpy as np
import pytest

from hedgenet.models import (
    DiffusionSpec,
    a_matrix,
    bm_constant,
    exact_step,
    gbm_diagonal,
    path_states,
)
from hedgenet.rng import ArgumentError, normals
from hedgenet.timenets import equidistant_net, eta_net, refine


def states(spec, times, master_seed, path_indices):
    """(B, len(times), d): x0, then every state path_states yields; times
    are times to maturity, decreasing."""
    path_indices = np.asarray(path_indices)
    xs = [np.broadcast_to(spec.x0, (path_indices.size, spec.d))]
    xs += [x for _, _, x in path_states(spec, [times], master_seed,
                                        path_indices)]
    return np.stack(xs, axis=1)


class TestSpecValidation:
    def test_c2_requires_positive_start(self):
        with pytest.raises(ValueError):
            gbm_diagonal(1, 1.0, 0.0)

    def test_gbm_requires_positive_vols(self):
        with pytest.raises(ValueError):
            gbm_diagonal(1, 0.0, 1.0)

    def test_corr_must_be_valid(self):
        with pytest.raises(ValueError):
            gbm_diagonal(2, 1.0, [1.0, 1.0], corr=[[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError):
            gbm_diagonal(2, 1.0, [1.0, 1.0], corr=[[2.0, 0.0], [0.0, 1.0]])

    #: one bad array of a spec each
    BAD_ARRAYS = {
        "vols-nan": lambda: gbm_diagonal(1, np.nan, 1.0),
        "vols-shape": lambda: DiffusionSpec("C2", 2, [1.0, 1.0],
                                            vols=[1.0, 1.0, 1.0]),
        "mu-inf": lambda: gbm_diagonal(1, 1.0, 1.0, mu=np.inf),
        "x0-inf": lambda: gbm_diagonal(1, 1.0, np.inf),
        "x0-nan-c1": lambda: bm_constant(np.eye(1), [np.nan]),
        "sigma-vector": lambda: bm_constant([1.0], [0.0]),
        "sigma-scalar": lambda: bm_constant(2.0, [0.0]),
        "sigma-nan": lambda: bm_constant([[np.nan]], [0.0]),
        "drift-shape": lambda: bm_constant(np.eye(1), [0.0],
                                           drift=[1.0, 2.0]),
        "drift-inf": lambda: bm_constant(np.eye(1), [0.0], drift=[np.inf]),
        "corr-indefinite": lambda: gbm_diagonal(
            2, 1.0, 1.0, corr=[[1.0, 2.0], [2.0, 1.0]]),
        "d-0": lambda: DiffusionSpec("C2", 0, [], vols=[]),
        # checked before any vector is broadcast to length d
        "d-fraction": lambda: gbm_diagonal(1.5, 1.0, 1.0),
        "s-length": lambda: gbm_diagonal(2, [1.0, 1.0, 1.0], 1.0),
        "x0-length": lambda: gbm_diagonal(3, 1.0, [1.0, 1.0]),
        "mu-matrix": lambda: gbm_diagonal(1, 1.0, 1.0, mu=[[0.1]]),
        "x0-length-c1": lambda: bm_constant(np.eye(2), [0.0, 0.0, 0.0]),
    }

    @pytest.mark.parametrize("name", sorted(BAD_ARRAYS))
    def test_bad_array_is_an_argument_error(self, name):
        with pytest.raises(ArgumentError):
            self.BAD_ARRAYS[name]()


class TestAMatrix:
    def test_gbm_diagonal(self):
        spec = gbm_diagonal(2, [1.0, 2.0], [1.0, 1.0])
        assert np.allclose(a_matrix(spec, np.array([1.0, 1.0])), np.diag([1.0, 4.0]))

    def test_bm_identity(self):
        spec = bm_constant(np.eye(2), [0.0, 0.0])
        assert np.allclose(a_matrix(spec, np.array([3.0, -1.0])), np.eye(2))

    def test_gbm_scalar(self):
        spec = gbm_diagonal(1, 1.0, 1.0)
        assert a_matrix(spec, np.array([3.0]))[0, 0] == pytest.approx(9.0)

    def test_symmetric_psd_with_corr(self):
        spec = gbm_diagonal(2, [1.0, 0.5], [1.0, 2.0],
                            corr=[[1.0, 0.8], [0.8, 1.0]])
        a = a_matrix(spec, np.array([1.3, 0.7]))
        assert np.allclose(a, a.T)
        assert np.all(np.linalg.eigvalsh(a) >= -1e-12)

    def test_ellipticity_bound(self):
        # A_ii(x) >= Q_i(x)^2 / C1 with C1 = max(1, 1/min s_i^2)
        rng = np.random.default_rng(0)
        for spec in (
            gbm_diagonal(2, [0.5, 2.0], [1.0, 1.0]),
            bm_constant(np.eye(2), [0.0, 0.0]),
        ):
            c1 = max(1.0, 1.0 / min(
                (spec.vols if spec.vols is not None else np.diag(spec.const_sigma)) ** 2
            ))
            for _ in range(20):
                x = np.abs(rng.normal(1.0, 0.3, 2)) + 0.1
                a = a_matrix(spec, x)
                for i in range(2):
                    # coordinate weight Q_i: 1 in case C1, x_i in case C2
                    q = x[i] if spec.case == "C2" else 1.0
                    assert a[i, i] >= q * q / c1 - 1e-12


class TestExactSampling:
    def test_gbm_lognormal_moments(self):
        spec = gbm_diagonal(1, 1.0, 1.0)
        x = states(spec, [1.0, 0.0], 7, np.arange(100000))[:, 1, 0]
        n = x.size
        se_mean = x.std(ddof=1) / np.sqrt(n)
        assert abs(x.mean() - 1.0) < 3.0 * se_mean
        lx = np.log(x)
        assert abs(lx.mean() + 0.5) < 3.0 * lx.std(ddof=1) / np.sqrt(n)
        assert abs(lx.var(ddof=1) - 1.0) < 3.0 * np.sqrt(2.0 / n)

    def test_bm_increment_covariance(self):
        spec = bm_constant(np.eye(2), [0.0, 0.0])
        s = states(spec, [1.0, 0.5, 0.0], 3, np.arange(100000))
        for j in (1, 2):
            inc = s[:, j, :] - s[:, j - 1, :]
            cov = np.cov(inc.T)
            assert np.allclose(cov, 0.5 * np.eye(2), atol=0.01)

    def test_drift(self):
        spec = gbm_diagonal(1, 1.0, 1.0, mu=0.2)
        x = states(spec, [1.0, 0.0], 7, np.arange(100000))[:, 1, 0]
        lx = np.log(x)
        # E ln X_1 = mu - s^2/2 = -0.3
        assert abs(lx.mean() + 0.3) < 3.0 * lx.std(ddof=1) / np.sqrt(x.size)

    def test_correlation_applied(self):
        spec = gbm_diagonal(2, 1.0, [1.0, 1.0], corr=[[1.0, 0.8], [0.8, 1.0]])
        x = states(spec, [1.0, 0.0], 5, np.arange(100000))[:, 1, :]
        corr = np.corrcoef(np.log(x).T)[0, 1]
        assert corr == pytest.approx(0.8, abs=0.01)

    def test_bitwise_determinism(self):
        spec = gbm_diagonal(2, 1.0, [1.0, 1.0])
        times = refine(equidistant_net(1.0, 4), 8)
        a = states(spec, times, 11, [3])
        b = states(spec, times, 11, [3])
        assert np.array_equal(a, b)
        c = states(spec, times, 11, [4])
        assert not np.array_equal(a, c)
        # a path's states do not depend on the batch it is drawn in
        batch = states(spec, times, 11, np.arange(8))
        assert np.array_equal(batch[3], a[0])

    def test_c2_positivity(self):
        spec = gbm_diagonal(3, 2.0, [0.5, 1.0, 2.0])
        s = states(spec, np.linspace(1, 0, 17), 9, np.arange(1000))
        assert np.all(s > 0.0)

class TestPathSample:
    def test_starts_at_x0(self):
        spec = gbm_diagonal(2, 1.0, [1.5, 0.5])
        times = refine(equidistant_net(1.0, 2), 4)
        idx = np.array([0])
        steps = [(j, x) for _, j, x in path_states(spec, [times], 0, idx)]
        assert [j for j, _ in steps] == list(range(1, times.size))
        assert all(x.shape == (1, 2) for _, x in steps)
        # the first step leaves x0 with the draws of step index 0
        z = normals(0, idx, 0, 2)
        first = exact_step(spec, spec.x0[None, :], times[0] - times[1], z)
        assert np.array_equal(steps[0][1], first)
        # a zero-length first step stays exactly at x0
        [(_, _, x)] = path_states(spec, [[1.0, 1.0]], 0, idx)
        assert np.array_equal(x[0], [1.5, 0.5])


    def test_lockstep_grids_equal_their_own_streams(self):
        spec = gbm_diagonal(2, [1.0, 0.5], [1.0, 2.0])
        grids = [np.linspace(1.0, 0.0, 5), [1.0, 0.7], [1.0],
                 np.linspace(1.0, 0.0, 9)]
        idx = np.arange(10, 60)
        got = list(path_states(spec, grids, 4, idx))
        # step index by step index, every grid that has the step, in order
        assert [(j, g) for g, j, _ in got] == sorted(
            (j, g) for g, t in enumerate(grids) for j in range(1, len(t)))
        for g, times in enumerate(grids):
            alone = [x.tobytes() for _, _, x in
                     path_states(spec, [times], 4, idx)]
            assert [x.tobytes() for h, _, x in got if h == g] == alone


class TestInPlaceStream:
    """path_states draws into the stream's reused buffer; exact_step writes
    to neither of its inputs, and every yielded state is new."""

    SPECS = {
        "gbm": gbm_diagonal(2, [1.0, 0.5], [1.0, 2.0], mu=[0.1, -0.2]),
        "gbm-corr": gbm_diagonal(2, [1.0, 0.5], [1.0, 2.0],
                                 corr=[[1.0, 0.6], [0.6, 1.0]]),
        "bm": bm_constant([[1.0, 0.0], [0.3, 0.8]], [0.0, 1.0],
                          drift=[0.1, 0.2]),
        "bm-corr": bm_constant(np.eye(2), [0.0, 1.0],
                               corr=[[1.0, -0.4], [-0.4, 1.0]]),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_exact_step_leaves_its_inputs_unchanged(self, name):
        spec = self.SPECS[name]
        x = np.exp(normals(1, np.arange(50), 7, 2))
        z = normals(1, np.arange(50), 8, 2)
        x_before, z_before = x.tobytes(), z.tobytes()
        out = exact_step(spec, x, 0.25, z)
        assert x.tobytes() == x_before and z.tobytes() == z_before
        assert not np.shares_memory(out, x) and not np.shares_memory(out, z)

    @pytest.mark.parametrize("case", ["z of one row", "x0", "x0 broadcast",
                                      "x of one row"])
    @pytest.mark.parametrize("name", ["gbm", "gbm-corr"])
    def test_exact_step_broadcasts_x_against_z(self, name, case):
        # the GBM step is x exp((mu - s^2/2) dt + s sqrt(dt) z corr_chol^T),
        # broadcast over x, z and the vols
        spec = self.SPECS[name]
        x = np.exp(normals(1, np.arange(50), 7, 2))
        z = normals(1, np.arange(50), 8, 2)
        x, z = {"z of one row": (x, z[3]),
                "x0": (spec.x0, z),
                "x0 broadcast": (np.broadcast_to(spec.x0, z.shape), z),
                "x of one row": (x[:1], z)}[case]
        s = spec.vols
        mu = 0.0 if spec.drift_rates is None else spec.drift_rates
        zc = z if spec.corr_chol is None else z @ spec.corr_chol.T
        want = x * np.exp(zc * (s * np.sqrt(0.25)) + (mu - 0.5 * s * s) * 0.25)
        got = exact_step(spec, x, 0.25, z)
        assert got.shape == want.shape == (50, 2)
        assert got.tobytes() == want.tobytes()

    # the scheme names the one step, the exact transition
    @pytest.mark.parametrize("scheme", ["exact"])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_states_are_new_and_equal_the_public_steps(self, name, scheme):
        spec = self.SPECS[name]
        times = np.array([1.0, 0.9, 0.65, 0.5, 0.0])
        idx = np.arange(40, 80)
        got = [x for _, _, x in path_states(spec, [times], 6, idx)]
        x = np.broadcast_to(spec.x0, (idx.size, 2)).copy()
        for j, state in enumerate(got, start=1):
            x = exact_step(spec, x, times[j - 1] - times[j],
                     normals(6, idx, j - 1, 2))
            assert state.tobytes() == x.tobytes()
        for a, b in itertools.combinations(got, 2):
            assert not np.shares_memory(a, b)
