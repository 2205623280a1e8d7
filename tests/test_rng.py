import numpy as np
import pytest

from hedgenet.rng import SeedSpec, _BatchStream, normals, uniforms


class TestSeedSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, -3)


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
        stream = _BatchStream(master_seed, idx, d)
        for step in (0, 1, 2**20):
            got = normals(master_seed, idx, step, d, _stream=stream)
            want = normals(master_seed, idx, step, d)
            assert got.shape == (B, d)
            assert got.tobytes() == want.tobytes()

    def test_rejects_a_draw_it_cannot_make(self):
        stream = _BatchStream(0, np.arange(8), 2)
        with pytest.raises(ValueError):
            normals(0, np.arange(8), 0, 3, _stream=stream)
        with pytest.raises(ValueError):
            normals(0, np.arange(8), np.array([0, 1]), 2, _stream=stream)
