"""Diffusion specifications and path streaming.

Two state spaces are supported: Brownian-type diffusions on R^d with a
constant sigma matrix (case C1) and diagonal geometric Brownian motion on
(0, inf)^d (case C2). Both have constant (log-)coefficients, so every step
is the exact transition (``exact_step``). ``path_states`` is the one
time-step loop: every consumer of simulated paths takes its states from it,
and consumers of the same paths on several time grids share its draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .rng import ArgumentError, _BatchStream, check_count, normals

__all__ = [
    "DiffusionSpec",
    "gbm_diagonal",
    "bm_constant",
    "a_matrix",
    "sigma_matrix",
    "path_states",
]


def _finite(name, value, shape):
    """``value`` as a float array, refused unless finite and of ``shape``."""
    a = np.asarray(value, dtype=float)
    if a.shape != shape or not np.all(np.isfinite(a)):
        raise ArgumentError(f"{name} must be finite with shape {shape}")
    return a


@dataclass(frozen=True)
class DiffusionSpec:
    """Immutable description of the simulated diffusion."""

    case: str  # "C1" (bm_constant) or "C2" (gbm_diagonal)
    d: int
    x0: np.ndarray
    vols: Optional[np.ndarray] = None  # s_i, case C2
    drift_rates: Optional[np.ndarray] = None  # mu_i, case C2
    const_sigma: Optional[np.ndarray] = None  # case C1
    const_drift: Optional[np.ndarray] = None  # case C1
    corr: Optional[np.ndarray] = None  # constant correlation of the drivers
    corr_chol: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.case not in ("C1", "C2"):
            raise ArgumentError("case must be 'C1' or 'C2'")
        check_count("d", self.d)
        d, c2 = self.d, self.case == "C2"
        needed = "vols" if c2 else "const_sigma"
        if getattr(self, needed) is None:
            raise ArgumentError(f"case {self.case} needs {needed}")
        shapes = ({"vols": (d,), "drift_rates": (d,)} if c2
                  else {"const_sigma": (d, d), "const_drift": (d,)})
        for name, shape in {"x0": (d,), **shapes}.items():
            if getattr(self, name) is not None:
                object.__setattr__(self, name,
                                   _finite(name, getattr(self, name), shape))
        if c2 and (np.any(self.x0 <= 0.0) or np.any(self.vols <= 0.0)):
            raise ArgumentError("case C2 needs a positive x0 and positive "
                                "vols")
        if self.corr is not None:
            corr = _finite("corr", self.corr, (d, d))
            if not (np.allclose(corr, corr.T)
                    and np.allclose(np.diag(corr), 1.0)):
                raise ArgumentError("corr must be symmetric, unit diagonal")
            try:
                chol = np.linalg.cholesky(corr)
            except np.linalg.LinAlgError:
                raise ArgumentError("corr must be positive definite")
            object.__setattr__(self, "corr", corr)
            object.__setattr__(self, "corr_chol", chol)


def _vector(name, value, d):
    """``value``, a scalar or a vector of length 1 or d, as a new (d,)."""
    a = np.asarray(value, dtype=float)
    if a.ndim > 1 or a.size not in (1, d):
        raise ArgumentError(f"{name} must be a scalar or a vector of length "
                            f"1 or d = {d}, not shape {a.shape}")
    return np.broadcast_to(a, (d,)).copy()


def gbm_diagonal(d, s, x0, mu=None, corr=None) -> DiffusionSpec:
    """Geometric Brownian motion with diagonal sigma_ii(x) = s_i * x_i."""
    check_count("d", d)
    s, x0 = _vector("s", s, d), _vector("x0", x0, d)
    mu = None if mu is None else _vector("mu", mu, d)
    return DiffusionSpec(case="C2", d=d, x0=x0, vols=s, drift_rates=mu,
                         corr=corr)


def bm_constant(sigma, x0, drift=None, corr=None) -> DiffusionSpec:
    """Brownian-type diffusion with a constant d x d sigma matrix (case C1)."""
    sigma = np.asarray(sigma, dtype=float)
    d = np.atleast_1d(sigma).shape[0]
    x0 = _vector("x0", x0, d)
    return DiffusionSpec(case="C1", d=d, x0=x0, const_sigma=sigma,
                         const_drift=drift, corr=corr)


def sigma_matrix(spec: DiffusionSpec, x) -> np.ndarray:
    """Effective diffusion matrix (correlation folded in), shape (..., d, d)."""
    x = np.asarray(x, dtype=float)
    if spec.case == "C2":
        sig = np.zeros(x.shape + (spec.d,))
        idx = np.arange(spec.d)
        sig[..., idx, idx] = spec.vols * x
    else:
        sig = np.broadcast_to(spec.const_sigma, x.shape + (spec.d,)).copy()
    if spec.corr_chol is not None:
        sig = sig @ spec.corr_chol
    return sig


def a_matrix(spec: DiffusionSpec, x) -> np.ndarray:
    """A(x) = sigma(x) sigma(x)^T, symmetric positive semi-definite."""
    sig = sigma_matrix(spec, x)
    return sig @ np.swapaxes(sig, -1, -2)


def exact_step(spec: DiffusionSpec, x, dt: float, z) -> np.ndarray:
    """One exact transition over dt (z iid normal).

    Returns a new array laid out as z, and writes to neither ``x`` nor ``z``.
    """
    sqdt = np.sqrt(dt)
    if spec.case == "C2":
        s = spec.vols
        mu = 0.0 if spec.drift_rates is None else spec.drift_rates
        # x * exp((mu - s^2/2) dt + s sqrt(dt) z) in one new buffer of z's
        # shape, which takes the product with x unless x broadcasts larger
        if spec.corr_chol is not None:
            res = np.matmul(spec.corr_chol, z.T).T
            res *= s * sqdt
        else:
            res = np.multiply(z, s * sqdt)
        res += (mu - 0.5 * s * s) * dt
        np.exp(res, out=res)
        return np.multiply(res, x, out=res if res.shape == np.shape(x)
                           else None)
    if spec.corr_chol is not None:
        z = (spec.corr_chol @ z.T).T
    out = x + ((sqdt * spec.const_sigma) @ z.T).T
    if spec.const_drift is not None:
        out += spec.const_drift * dt
    return out


def path_states(spec, grids, master_seed, path_indices):
    """Stream a batch of paths from x0 over several time grids in lockstep.

    A grid holds decreasing times to maturity, from x0 at its first; models
    are time-homogeneous, so the step to tau_j has length tau_{j-1} - tau_j.
    Yields (g, j, X^g at tau_j), j in 1 .. len(grids[g]) - 1, each state
    array (B, d) new and coordinate-major like the draws. The step to tau_j
    draws its normals at step index j - 1, keyed by (master_seed,
    path_index, j - 1), so the paths are independent of batching and worker
    scheduling. The normals of a step index are drawn once, as a slice of
    the batch stream's block of consecutive step indices
    (``rng._BatchStream``), and every grid that has that step makes it from
    them with its own step length; the next block's refill overwrites the
    slice. A grid's state is dropped once the grid ends. Each step is
    ``exact_step``, looked up as a module global every time, so a wrapper
    set on it (perfbench's tracer) sees it.
    """
    grids = [np.asarray(times, dtype=float) for times in grids]
    path_indices = np.asarray(path_indices)
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
            x = exact_step(spec, states[g], times[j - 1] - times[j], z)
            if j + 1 < times.size:
                states[g] = x
            else:
                del states[g]
            yield g, j, x


def one_step_states(spec, T, taus, n_paths, master_seed):
    """States of paths 0..N-1 at each of ``taus``, each one exact transition
    from x0 at T made from the draw of step index 0."""
    idx = np.arange(n_paths, dtype=np.uint64)
    grids = [[T, tau] for tau in taus]
    return (x for _, _, x in path_states(spec, grids, master_seed, idx))
