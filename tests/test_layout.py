"""The path stream's (B, d) arrays are coordinate-major: the transposes of
contiguous (d, B) memory. Draws, states, gradients and Hessians are laid out
so, and every state, hedge error and analysis row keeps the bits of the same
draws stepped and priced through C-ordered copies."""

import numpy as np
import pytest

import hedgenet.hedging as hedging
import hedgenet.models as models
from hedgenet.analysis import estimate_h2, estimate_theta
from hedgenet.hedging import estimate_sweep
from hedgenet.models import bm_constant, gbm_diagonal, path_states
from hedgenet.pricing import BMQuadratic, Factor1D, ProductPricing
from hedgenet.rng import _BatchStream, normals
from hedgenet.timenets import eta_net


def c_ordered_row_sum(dx, grad):
    return (np.ascontiguousarray(dx) * np.ascontiguousarray(grad)).sum(axis=1)


def c_ordered_step(spec, x, dt, z):
    """The exact transition in row-major form, on C-ordered copies of the
    state and the draws, returning a C-ordered state."""
    x, z = np.ascontiguousarray(x), np.ascontiguousarray(z)
    sqdt = np.sqrt(dt)
    if spec.corr_chol is not None:
        z = z @ spec.corr_chol.T
    if spec.case == "C2":
        mu = 0.0 if spec.drift_rates is None else spec.drift_rates
        s = spec.vols
        return np.exp(z * (s * sqdt) + (mu - 0.5 * s * s) * dt) * x
    out = x + z @ (sqdt * spec.const_sigma).T
    if spec.const_drift is not None:
        out += spec.const_drift * dt
    return out


#: a 4 x 4 orthogonal matrix of exact entries, so sigma sigma^T = I exactly
HADAMARD4 = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                            [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


def product(d, kinds=("call", "digital", "const", "call")):
    return ProductPricing([Factor1D(kinds[i % len(kinds)], s=0.6)
                           for i in range(d)], 1.0)


#: the models whose states the golden digests do not cover, each with a
#: payoff it prices: a correlated GBM, a C1 model with a dense sigma, d = 8
CASES = {
    "gbm-corr": lambda: (
        gbm_diagonal(3, 0.6, 1.0, mu=[0.1, 0.0, -0.2],
                     corr=[[1.0, 0.5, 0.2], [0.5, 1.0, -0.3],
                           [0.2, -0.3, 1.0]]),
        product(3, ("call", "const", "const"))),
    "bm-dense-sigma": lambda: (
        bm_constant(HADAMARD4, [0.3, -0.1, 0.0, 0.2],
                    drift=[0.1, 0.0, -0.1, 0.2]),
        BMQuadratic(4, 1.0)),
    "gbm-d3": lambda: (gbm_diagonal(3, 0.6, 1.0),
                       product(3, ("call", "power", "digital"))),
    "gbm-d8": lambda: (gbm_diagonal(8, 0.6, 1.0), product(8)),
    "bm-d8": lambda: (
        bm_constant(np.kron(np.eye(2), HADAMARD4), np.zeros(8)),
        BMQuadratic(8, 1.0)),
}

GRIDS = [np.linspace(1.0, 0.0, 6), np.array([1.0, 0.55, 0.3, 0.0])]
PATHS = np.arange(300, 800, dtype=np.uint64)


@pytest.fixture
def c_ordered(monkeypatch):
    """A call that makes the draws, the states and the Greeks of
    ``pricing`` C-ordered, and the step and the row sum row-major, from
    then on."""

    def apply(pricing):
        draw = _BatchStream.draw
        monkeypatch.setattr(_BatchStream, "draw", lambda self, step:
                            np.ascontiguousarray(draw(self, step)))
        monkeypatch.setattr(models, "exact_step", c_ordered_step)
        monkeypatch.setattr(hedging, "_row_dots", lambda dx, grad, dots:
                            c_ordered_row_sum(dx, grad))
        for name in ("gradient", "hessian"):
            greek = getattr(pricing, name)
            monkeypatch.setattr(
                pricing, name,
                lambda tau, x, greek=greek: np.ascontiguousarray(greek(tau,
                                                                       x)))

    return apply


def states(spec):
    return [(g, j, x) for g, j, x in path_states(spec, GRIDS, 11, PATHS)]


def errors(spec, pricing):
    """Every path's errors in one batch, and a two-batch sweep's estimates."""
    nets = [eta_net(1.0, n, 0.5) for n in (2, 4)]
    plans = hedging._plans(spec, pricing, [nets], 2, want_sup=True)
    [errors] = hedging._batch_errors(spec, pricing, plans, 11, PATHS)
    est = estimate_sweep(spec, pricing, [nets], hedging.BATCH_SIZE + 100, 11,
                         "both", monitor_factor=2)
    return [(t.tobytes(), s.tobytes()) for t, s in errors], est


def analysis_rows(spec, pricing):
    return (estimate_theta(spec, pricing, [0.5, 0.1, 0.01], 400, 3).rows,
            estimate_h2(spec, pricing, [0.2, 0.7], 400, 3).points)


@pytest.mark.parametrize("case", sorted(CASES))
def test_states_and_errors_keep_their_bits(case, c_ordered):
    spec, pricing = CASES[case]()
    got_states, got_errors = states(spec), errors(spec, pricing)
    assert all(x.T.flags.c_contiguous for _, _, x in got_states)
    c_ordered(pricing)
    want_states = states(spec)
    assert all(x.flags.c_contiguous for _, _, x in want_states)
    assert [(g, j, x.tobytes()) for g, j, x in got_states] == [
        (g, j, x.tobytes()) for g, j, x in want_states]
    assert got_errors == errors(spec, pricing)


@pytest.mark.parametrize("case", ["gbm-corr", "gbm-d3", "gbm-d8", "bm-d8"])
def test_analysis_keeps_its_bits(case, c_ordered):
    # theta's means over paths and H^2's sums over coordinates add in the
    # order of C-ordered arrays
    spec, pricing = CASES[case]()
    got = analysis_rows(spec, pricing)
    c_ordered(pricing)
    assert got == analysis_rows(spec, pricing)


def test_draws_states_and_greeks_are_coordinate_major():
    # a later change must not slip back to strided columns: each is the
    # (B, 3) transpose of contiguous (3, B) memory, or (B, 3, 3) of
    # (3, 3, B)
    spec, pricing = gbm_diagonal(3, 0.6, 1.0), product(3)
    stream = _BatchStream(4, np.arange(1000), 3, 2)
    z = normals(4, np.arange(1000), 1, 3, _stream=stream)
    [(_, _, x)] = path_states(spec, [[1.0, 0.5]], 4, np.arange(1000))
    for a in (z, x, pricing.gradient(0.5, x)):
        assert a.shape == (1000, 3) and a.T.flags.c_contiguous
    hess = pricing.hessian(0.5, x)
    assert hess.shape == (1000, 3, 3)
    assert hess.transpose(1, 2, 0).flags.c_contiguous
