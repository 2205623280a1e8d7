"""Diffusion specifications and path streaming.

Two state spaces are supported: Brownian-type diffusions on R^d (case C1) and
exponential diffusions on (0, inf)^d (case C2, simulated through the log
process so positivity is automatic). The model picks its sampler: the exact
transition of a constant-coefficient model ("bm-constant", "gbm-diagonal"),
else Euler-Maruyama. ``path_states`` is the one time-step loop: every
consumer of simulated paths takes its states from it, and consumers of the
same paths on several time grids share its draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .rng import ArgumentError, _BatchStream, normals

__all__ = [
    "DiffusionSpec",
    "gbm_diagonal",
    "bm_constant",
    "general_diffusion",
    "a_matrix",
    "sigma_matrix",
    "path_states",
]


@dataclass(frozen=True)
class DiffusionSpec:
    """Immutable description of the simulated diffusion."""

    case: str  # "C1" or "C2"
    d: int
    x0: np.ndarray
    exactness: str  # "gbm-diagonal" | "bm-constant" | "general"
    vols: Optional[np.ndarray] = None  # s_i for gbm-diagonal
    drift_rates: Optional[np.ndarray] = None  # mu_i for gbm-diagonal
    const_sigma: Optional[np.ndarray] = None  # for bm-constant
    const_drift: Optional[np.ndarray] = None  # for bm-constant
    corr: Optional[np.ndarray] = None  # constant correlation of the drivers
    sigma_fn: Optional[Callable] = None  # general: x -> (..., d, d)
    drift_fn: Optional[Callable] = None  # general: x -> (..., d)
    corr_chol: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.case not in ("C1", "C2"):
            raise ArgumentError("case must be 'C1' or 'C2'")
        if self.exactness not in ("gbm-diagonal", "bm-constant", "general"):
            raise ArgumentError("unknown exactness tag")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.d,):
            raise ArgumentError("x0 must be a d-vector")
        if self.case == "C2" and np.any(x0 <= 0.0):
            raise ArgumentError("C2 start point must be strictly positive")
        object.__setattr__(self, "x0", x0)
        for name in ("vols", "drift_rates", "const_drift"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float))
        if self.exactness == "gbm-diagonal":
            if self.case != "C2":
                raise ArgumentError("gbm-diagonal requires case C2")
            if self.vols is None or np.any(self.vols <= 0.0):
                raise ArgumentError("gbm-diagonal needs strictly positive vols")
        if self.exactness == "bm-constant":
            if self.case != "C1":
                raise ArgumentError("bm-constant requires case C1")
            if self.const_sigma is None:
                raise ArgumentError("bm-constant needs a constant sigma matrix")
            object.__setattr__(
                self, "const_sigma", np.asarray(self.const_sigma, dtype=float)
            )
        if self.corr is not None:
            corr = np.asarray(self.corr, dtype=float)
            if corr.shape != (self.d, self.d) or not np.allclose(corr, corr.T):
                raise ArgumentError("corr must be a symmetric d x d matrix")
            if not np.allclose(np.diag(corr), 1.0):
                raise ArgumentError("corr must have unit diagonal")
            object.__setattr__(self, "corr", corr)
            object.__setattr__(self, "corr_chol", np.linalg.cholesky(corr))


def gbm_diagonal(d, s, x0, mu=None, corr=None) -> DiffusionSpec:
    """Geometric Brownian motion with diagonal sigma_ii(x) = s_i * x_i."""
    s = np.broadcast_to(np.asarray(s, dtype=float), (d,)).copy()
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy()
    mu = None if mu is None else np.broadcast_to(np.asarray(mu, float), (d,)).copy()
    return DiffusionSpec(
        case="C2", d=d, x0=x0, exactness="gbm-diagonal", vols=s, drift_rates=mu,
        corr=corr,
    )


def bm_constant(sigma, x0, drift=None, corr=None) -> DiffusionSpec:
    """Brownian-type diffusion with a constant sigma matrix (case C1)."""
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy()
    return DiffusionSpec(
        case="C1", d=d, x0=x0, exactness="bm-constant", const_sigma=sigma,
        const_drift=drift, corr=corr,
    )


def general_diffusion(case, d, x0, sigma_fn, drift_fn=None) -> DiffusionSpec:
    """State-dependent coefficients; sampled with Euler-Maruyama only."""
    return DiffusionSpec(
        case=case, d=d, x0=np.asarray(x0, dtype=float), exactness="general",
        sigma_fn=sigma_fn, drift_fn=drift_fn,
    )


def sigma_matrix(spec: DiffusionSpec, x) -> np.ndarray:
    """Effective diffusion matrix (correlation folded in), shape (..., d, d)."""
    x = np.asarray(x, dtype=float)
    if spec.exactness == "gbm-diagonal":
        base = spec.vols * x  # (..., d) diagonal entries
        sig = np.zeros(x.shape + (spec.d,))
        idx = np.arange(spec.d)
        sig[..., idx, idx] = base
    elif spec.exactness == "bm-constant":
        sig = np.broadcast_to(spec.const_sigma, x.shape + (spec.d,)).copy()
    else:
        sig = np.asarray(spec.sigma_fn(x), dtype=float)
    if spec.corr_chol is not None:
        sig = sig @ spec.corr_chol
    return sig


def a_matrix(spec: DiffusionSpec, x) -> np.ndarray:
    """A(x) = sigma(x) sigma(x)^T, symmetric positive semi-definite."""
    sig = sigma_matrix(spec, x)
    return sig @ np.swapaxes(sig, -1, -2)


def check_dimensions(spec: DiffusionSpec, pricing) -> None:
    """The payoff's dimension is the model's."""
    if pricing.d != spec.d:
        raise ArgumentError(f"the payoff has dimension {pricing.d}, "
                            f"the model {spec.d}")


def exact_step(spec: DiffusionSpec, x, dt: float, z) -> np.ndarray:
    """One exact transition for constant-coefficient models (z iid normal).

    Returns a new array and writes to neither ``x`` nor ``z``.
    """
    sqdt = np.sqrt(dt)
    if spec.exactness == "gbm-diagonal":
        s = spec.vols
        mu = 0.0 if spec.drift_rates is None else spec.drift_rates
        # x * exp((mu - s^2/2) dt + s sqrt(dt) z), computed in one new
        # buffer of z's shape (broadcast with s); the product with x is
        # written back into it unless x broadcasts it to a larger shape
        if spec.corr_chol is not None:
            res = np.matmul(z, spec.corr_chol.T)
            res *= s * sqdt
        else:
            res = np.multiply(z, s * sqdt)
        res += (mu - 0.5 * s * s) * dt
        np.exp(res, out=res)
        return np.multiply(res, x, out=res if res.shape == np.shape(x)
                           else None)
    if spec.exactness == "bm-constant":
        if spec.corr_chol is not None:
            z = z @ spec.corr_chol.T
        out = x + z @ (sqdt * spec.const_sigma).T
        if spec.const_drift is not None:
            out += spec.const_drift * dt
        return out
    raise ArgumentError("exact sampling requires a non-'general' spec")


def euler_step(spec: DiffusionSpec, x, dt: float, z) -> np.ndarray:
    """One Euler-Maruyama step of a 'general' spec (log-Euler in case C2)."""
    if spec.exactness != "general":
        raise ArgumentError("Euler sampling is for 'general' specs only; "
                            "this one has an exact transition")
    sig = sigma_matrix(spec, x)
    drift = (0.0 if spec.drift_fn is None
             else np.asarray(spec.drift_fn(x), dtype=float))
    dw = (np.sqrt(dt) * z)[..., None, :]
    if spec.case == "C1":
        return x + drift * dt + (sig * dw).sum(axis=-1)
    # C2: Euler on y = log x keeps the state strictly positive.
    sig = sig / x[..., :, None]
    bhat = drift / x - 0.5 * (sig * sig).sum(axis=-1)
    return np.exp(np.log(x) + bhat * dt + (sig * dw).sum(axis=-1))


def path_states(spec, grids, master_seed, path_indices):
    """Stream a batch of paths from x0 over several time grids in lockstep.

    A grid holds decreasing times to maturity, from x0 at its first; models
    are time-homogeneous, so the step to tau_j has length tau_{j-1} - tau_j.
    Yields (g, j, X^g at tau_j), j in 1 .. len(grids[g]) - 1, each state
    array (B, d) new. The step to tau_j draws its normals at step index
    j - 1, keyed by (master_seed, path_index, j - 1), so the paths are
    independent of batching and worker scheduling. The normals of a step
    index are drawn once, as a slice of the batch stream's block of
    consecutive step indices (``rng._BatchStream``), and every grid that
    has that step makes it from them with its own step length; the next
    block's refill overwrites the slice. A grid's state is dropped once
    the grid ends. The step is ``exact_step``, or ``euler_step`` for a
    'general' spec.
    """
    grids = [np.asarray(times, dtype=float) for times in grids]
    path_indices = np.asarray(path_indices)
    step = euler_step if spec.exactness == "general" else exact_step
    n_steps = max((times.size - 1 for times in grids), default=0)
    stream = _BatchStream(master_seed, path_indices, spec.d, n_steps)
    # no step writes to its x, so the start needs no copy of x0
    x0 = np.broadcast_to(spec.x0, (path_indices.size, spec.d))
    states = {g: x0 for g, times in enumerate(grids) if times.size > 1}
    for j in range(1, n_steps + 1):
        z = normals(master_seed, path_indices, j - 1, spec.d, _stream=stream)
        if j == n_steps:
            del stream  # its keys and word buffer; z's block stays
        for g in list(states):
            times = grids[g]
            x = step(spec, states[g], times[j - 1] - times[j], z)
            if j + 1 < times.size:
                states[g] = x
            else:
                del states[g]
            yield g, j, x


def one_step_states(spec, T, taus, n_paths, master_seed):
    """States of paths 0..N-1 at each of ``taus``, each one exact transition
    from x0 at T made from the draw of step index 0. One Euler step over
    [tau, T] is no sample of X_tau, so a 'general' spec is refused."""
    if spec.exactness == "general":
        raise ArgumentError("one-step sampling needs an exact transition; "
                            "a 'general' spec has none")
    idx = np.arange(n_paths, dtype=np.uint64)
    grids = [[T, tau] for tau in taus]
    return (x for _, _, x in path_states(spec, grids, master_seed, idx))
