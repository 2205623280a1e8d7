"""Independent ground-truth generators used by the test suite.

These deliberately avoid the production code paths they validate: the time
derivative is always a finite difference, the quadratic-payoff error formula
comes from a direct Ito-isometry computation, and terminal expectations are
brute-force Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import a_matrix, one_step_states
from .rng import ArgumentError, check_count
from .timenets import TimeNet

__all__ = [
    "ResidualReport",
    "pde_residual",
    "analytic_quadratic_error",
    "mc_payoff_expectation",
]


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference residual of the pricing equation at one point.

    ``floor`` is the rounding floor of the central time difference,
    eps (|F(t + h_t)| + |F(t - h_t)|) / (2 h_t): a residual that small can
    be rounding alone, whatever h_t.
    """

    t: float
    x: np.ndarray
    residual: float
    scale: float
    floor: float

    @property
    def relative(self) -> float:
        """|residual| / scale, or 0 within the rounding floor: so
        ``relative <= tol`` judges |residual| against max(tol scale, floor).
        """
        if abs(self.residual) <= self.floor:
            return 0.0
        return abs(self.residual) / self.scale


def pde_residual(spec, pricing, t: float, x,
                 h_t: float = None) -> ResidualReport:
    """Residual of dF/dt + (1/2) sum_kl A_kl d2F/dx_k dx_l at (t, x).

    The time derivative is a central difference with step h_t (default
    1e-5 * T); the spatial hessian is the model's own (analytic where the
    catalogue exposes closed forms), keeping the two sides independent.
    """
    T = pricing.T
    if h_t is None:
        h_t = 1e-5 * T
    if not (0.05 * T <= t <= 0.95 * T):
        raise ArgumentError("residual check is defined on the bulk of [0, T]")
    tau = T - t
    x = np.asarray(x, dtype=float).reshape(1, -1)
    vp = pricing.value(tau - h_t, x)[0]
    vm = pricing.value(tau + h_t, x)[0]
    if not (np.isfinite(vp) and np.isfinite(vm)):
        raise ValueError("time step produced non-finite values")
    dt_term = (vp - vm) / (2.0 * h_t)
    a = a_matrix(spec, x)[0]
    hess = pricing.hessian(tau, x)[0]
    if not np.all(np.isfinite(hess)):
        raise ValueError("hessian evaluation produced non-finite values")
    space_term = 0.5 * float((a * hess).sum())
    residual = dt_term + space_term
    scale = max(abs(dt_term), abs(space_term))
    if scale <= 0.0:
        raise ValueError("degenerate point: both PDE terms vanish")
    floor = np.finfo(float).eps * (abs(vp) + abs(vm)) / (2.0 * h_t)
    return ResidualReport(t=t, x=x[0], residual=residual, scale=scale,
                          floor=float(floor))


def analytic_quadratic_error(net: TimeNet, d: int, T: float) -> float:
    """E|terminal error|^2 for f(x) = sum x_i^2 under standard BM, sigma = I.

    The terminal error telescopes to sum_i sum_k ((W^k_{t_i} - W^k_{t_{i-1}})^2
    - dt_i), independent increments, so the second moment is 2 d sum dt_i^2.
    """
    if net.horizon != T:
        raise ArgumentError("net horizon does not match T")
    dt = net.spacings()
    return 2.0 * d * float((dt * dt).sum())


def mc_payoff_expectation(spec, payoff, n_paths: int, master_seed: int,
                          T: float = None):
    """(mean, stderr) of the terminal payoff by exact one-step sampling.

    ``payoff`` may be a callable on terminal states or a pricing model, in
    which case its own payoff and horizon are used.
    """
    check_count("n_paths", n_paths, 2)
    if callable(payoff):
        fn = payoff
        if T is None:
            raise ArgumentError("T is required for a bare payoff callable")
    else:
        fn = payoff.payoff
        T = payoff.T
    [xT] = one_step_states(spec, T, [0.0], n_paths, master_seed)
    vals = np.asarray(fn(xT), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_paths))
    return mean, stderr
