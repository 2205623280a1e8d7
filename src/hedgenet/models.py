"""Diffusion specifications and path streaming.

Two state spaces are supported: Brownian-type diffusions on R^d (case C1) and
exponential diffusions on (0, inf)^d (case C2, simulated through the log
process so positivity is automatic). Exact transition sampling is available
for constant-coefficient models ("bm-constant", "gbm-diagonal"); everything
else falls back to Euler-Maruyama stepping. ``path_states`` is the one
time-step loop: every consumer of simulated paths takes its states from it,
and consumers of the same paths on several time grids share its draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .rng import _BatchStream, normals

__all__ = [
    "DiffusionSpec",
    "SCHEMES",
    "gbm_diagonal",
    "bm_constant",
    "general_diffusion",
    "a_matrix",
    "sigma_matrix",
    "drift_vector",
    "check_scheme",
    "path_states",
]

#: path-sampling schemes: exact transitions, or Euler-Maruyama (log-Euler
#: in case C2)
SCHEMES = ("exact", "euler")


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
            raise ValueError("case must be 'C1' or 'C2'")
        if self.exactness not in ("gbm-diagonal", "bm-constant", "general"):
            raise ValueError("unknown exactness tag")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.d,):
            raise ValueError("x0 must be a d-vector")
        if self.case == "C2" and np.any(x0 <= 0.0):
            raise ValueError("C2 start point must be strictly positive")
        object.__setattr__(self, "x0", x0)
        for name in ("vols", "drift_rates", "const_drift"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float))
        if self.exactness == "gbm-diagonal":
            if self.case != "C2":
                raise ValueError("gbm-diagonal requires case C2")
            if self.vols is None or np.any(self.vols <= 0.0):
                raise ValueError("gbm-diagonal needs strictly positive vols")
        if self.exactness == "bm-constant":
            if self.case != "C1":
                raise ValueError("bm-constant requires case C1")
            if self.const_sigma is None:
                raise ValueError("bm-constant needs a constant sigma matrix")
            object.__setattr__(
                self, "const_sigma", np.asarray(self.const_sigma, dtype=float)
            )
        if self.corr is not None:
            corr = np.asarray(self.corr, dtype=float)
            if corr.shape != (self.d, self.d) or not np.allclose(corr, corr.T):
                raise ValueError("corr must be a symmetric d x d matrix")
            if not np.allclose(np.diag(corr), 1.0):
                raise ValueError("corr must have unit diagonal")
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


def drift_vector(spec: DiffusionSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if spec.exactness == "gbm-diagonal":
        if spec.drift_rates is None:
            return np.zeros_like(x)
        return spec.drift_rates * x
    if spec.exactness == "bm-constant":
        if spec.const_drift is None:
            return np.zeros_like(x)
        return np.broadcast_to(spec.const_drift, x.shape).copy()
    if spec.drift_fn is None:
        return np.zeros_like(x)
    return np.asarray(spec.drift_fn(x), dtype=float)


def a_matrix(spec: DiffusionSpec, x) -> np.ndarray:
    """A(x) = sigma(x) sigma(x)^T, symmetric positive semi-definite."""
    sig = sigma_matrix(spec, x)
    return sig @ np.swapaxes(sig, -1, -2)


def exact_step(spec: DiffusionSpec, x, dt: float, z) -> np.ndarray:
    """One exact transition for constant-coefficient models (z iid normal).

    Returns a new array and writes to neither ``x`` nor ``z``.
    """
    sqdt = np.sqrt(dt)
    if spec.exactness == "gbm-diagonal":
        s = spec.vols
        mu = 0.0 if spec.drift_rates is None else spec.drift_rates
        # x * exp((mu - s^2/2) dt + s sqrt(dt) z), computed in the result's
        # buffer: the operands of the commutative ops swap places
        res = np.empty(np.broadcast_shapes(np.shape(x), np.shape(z),
                                           s.shape))
        if spec.corr_chol is not None:
            np.matmul(z, spec.corr_chol.T, out=res)
            res *= s * sqdt
        else:
            np.multiply(z, s * sqdt, out=res)
        res += (mu - 0.5 * s * s) * dt
        np.exp(res, out=res)
        res *= x
        return res
    if spec.exactness == "bm-constant":
        if spec.corr_chol is not None:
            z = z @ spec.corr_chol.T
        out = x + z @ (sqdt * spec.const_sigma).T
        if spec.const_drift is not None:
            out += spec.const_drift * dt
        return out
    raise ValueError("exact sampling requires a non-'general' spec")


def euler_step(spec: DiffusionSpec, x, dt: float, z) -> np.ndarray:
    """One Euler-Maruyama step; C2 specs step the log process."""
    sqdt = np.sqrt(dt)
    if spec.case == "C1":
        sig = sigma_matrix(spec, x)
        dw = (sqdt * z)[..., None, :]
        return x + drift_vector(spec, x) * dt + (sig * dw).sum(axis=-1)
    # C2: Euler on y = log x keeps the state strictly positive.
    sig = sigma_matrix(spec, x) / x[..., :, None]
    bhat = drift_vector(spec, x) / x - 0.5 * (sig * sig).sum(axis=-1)
    dw = (sqdt * z)[..., None, :]
    y = np.log(x) + bhat * dt + (sig * dw).sum(axis=-1)
    return np.exp(y)


def check_scheme(spec: DiffusionSpec, scheme: str) -> None:
    """Reject an unknown scheme, and exact sampling of a 'general' spec."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}, "
                         f"not {scheme!r}")
    if scheme == "exact" and spec.exactness == "general":
        raise ValueError("exact sampling is unavailable for 'general' specs")


def path_states(spec, grids, master_seed, path_indices, scheme="exact"):
    """Stream a batch of paths from x0 over several time grids in lockstep.

    A grid holds decreasing times to maturity, from x0 at its first; models
    are time-homogeneous, so the step to tau_j has length tau_{j-1} - tau_j.
    Yields (g, j, X^g at tau_j), j in 1 .. len(grids[g]) - 1, each state
    array (B, d) new. The step to tau_j draws its normals at step index
    j - 1, keyed by (master_seed, path_index, j - 1), so the paths are
    independent of batching and worker scheduling. The normals of a step
    index are drawn once, into the batch stream's buffer, and every grid
    that has that step makes it from them with its own step length; the
    next step index overwrites the buffer. A grid's state is dropped once
    the grid ends.
    """
    check_scheme(spec, scheme)
    grids = [np.asarray(times, dtype=float) for times in grids]
    path_indices = np.asarray(path_indices)
    step = exact_step if scheme == "exact" else euler_step
    stream = _BatchStream(master_seed, path_indices, spec.d)
    # no step writes to its x, so the start needs no copy of x0
    x0 = np.broadcast_to(spec.x0, (path_indices.size, spec.d))
    states = {g: x0 for g, times in enumerate(grids) if times.size > 1}
    n_steps = max((times.size - 1 for times in grids), default=0)
    for j in range(1, n_steps + 1):
        z = normals(master_seed, path_indices, j - 1, spec.d, _stream=stream)
        if j == n_steps:
            del stream  # its keys and word buffer; z stays
        for g in list(states):
            times = grids[g]
            x = step(spec, states[g], times[j - 1] - times[j], z)
            if j + 1 < times.size:
                states[g] = x
            else:
                del states[g]
            yield g, j, x
