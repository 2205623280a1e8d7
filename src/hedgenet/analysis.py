"""Diagnostics: curvature blow-up exponent, error density, rate fitting.

The key quantity is m(t) = sup_{a,b} E[A_aa(X_t) A_bb(X_t) |d2F/dx_a dx_b|^2],
whose growth like (T-t)^(-2 theta) as t -> T determines both the attainable
convergence rate and the time-net parameter eta that restores n^(-1/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtrit

from .models import a_matrix, one_step_states, sigma_matrix
from .pricing import check_priced
from .rng import ArgumentError, check_count

__all__ = [
    "ThetaFit",
    "H2Curve",
    "RateFit",
    "estimate_theta",
    "estimate_h2",
    "choose_eta",
    "fit_rate",
]

#: default path count for the MC diagnostics
DEFAULT_N = 100_000

#: rate fits drop pre-asymptotic points below this net cardinality
RATE_N_MIN = 8


@dataclass(frozen=True)
class ThetaFit:
    """theta estimated from log m ~ const - 2 theta log tau."""

    theta_hat: float
    ci95: tuple
    r2: float
    #: (tau, m_hat, stderr) at every grid time, nonpositive m_hat included
    rows: tuple = ()

    def __post_init__(self):
        if not (-0.2 <= self.theta_hat <= 1.2):
            warnings.warn(
                f"theta_hat = {self.theta_hat:.3f} outside [-0.2, 1.2]: the "
                "polynomial blow-up assumption looks violated",
                stacklevel=2,
            )


@dataclass(frozen=True)
class H2Curve:
    points: tuple  # ((u, h2_hat, stderr), ...)

    def infimum(self):
        """(min estimate, stderr at the argmin) over the curve."""
        vals = [p[1] for p in self.points]
        k = int(np.argmin(vals))
        return self.points[k][1], self.points[k][2]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    ci95_slope: tuple
    r2: float
    points_used: tuple


def _a_diagonal(spec, x):
    """A_ii(x), shape (B, d). For uncorrelated diagonal GBM it is
    (s_i x_i)^2 directly, bitwise the diagonal of a_matrix."""
    if spec.case == "C2" and spec.corr_chol is None:
        sx = spec.vols * x
        return sx * sx
    return np.einsum("bii->bi", a_matrix(spec, x))


def _pair_moments(spec, pricing, tau, x):
    """Mean and stderr of A_aa A_bb (d2F_ab)^2 for every pair, shape (d,d)."""
    hess = pricing.hessian(tau, x)
    a_diag = _a_diagonal(spec, x)
    vals = np.multiply(a_diag[:, :, None] * a_diag[:, None, :] * hess, hess,
                       order="C")  # so the means over paths add row by row
    mean = vals.mean(axis=0)
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(x.shape[0])
    return mean, stderr


def default_theta_grid(T: float, n_points: int = 20) -> np.ndarray:
    """n_points (>= 3) times to maturity log-spaced over [1e-3, T/2], a
    window that is an interval only for T > 2e-3."""
    check_count("n_points", n_points, 3)
    if not T > 2e-3:
        raise ArgumentError(f"the default theta grid spans [1e-3, T/2] and "
                            f"needs T > 2e-3, not T = {T:g}")
    return np.geomspace(T / 2.0, 1e-3, n_points)


def estimate_theta(spec, pricing, tau_grid=None, n_paths: int = DEFAULT_N,
                   master_seed: int = 0) -> ThetaFit:
    """Fit the blow-up exponent of m(tau) = sup_ab E[A_aa A_bb |d2F_ab|^2].

    The sup over coordinate pairs is exhaustive (d is small); the exponent
    comes from OLS of log m(tau) on log tau, slope = -2 theta, with a
    delta-method confidence interval. Grid times whose m estimate is not
    positive stay in ``rows`` but are left out of the fit.
    """
    check_count("n_paths", n_paths, 2)
    check_priced(spec, pricing)
    T = pricing.T
    if tau_grid is None:
        tau_grid = default_theta_grid(T)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if (tau_grid.ndim != 1 or tau_grid.size < 3 or np.any(tau_grid < 1e-3)
            or np.any(tau_grid > T / 2.0)):
        raise ArgumentError("theta grid must be >= 3 times tau in [1e-3, T/2]")
    rows = []
    for tau, x in zip(tau_grid, one_step_states(spec, T, tau_grid, n_paths,
                                                master_seed)):
        mean, stderr = _pair_moments(spec, pricing, tau, x)
        k = np.unravel_index(np.argmax(mean), mean.shape)
        rows.append((float(tau), float(mean[k]), float(stderr[k])))
        if mean[k] <= 0.0:
            warnings.warn(f"nonpositive m estimate at tau = {tau:g} "
                          "excluded", stacklevel=2)
    fitted = [(tau, m) for tau, m, _ in rows if m > 0.0]
    if len(fitted) < 3:
        raise ValueError("too few usable grid points for the theta fit")
    slope, intercept, se_slope, r2 = _ols(*np.log(fitted).T)
    theta = -slope / 2.0
    half = 1.96 * se_slope / 2.0
    return ThetaFit(
        theta_hat=theta, ci95=(theta - half, theta + half), r2=r2,
        rows=tuple(rows),
    )


def theta_grid_table(fit: ThetaFit, T: float):
    """(t = T - tau, m_hat, stderr) rows backing a ThetaFit, for CSV export."""
    return [(T - tau, m, se) for tau, m, se in fit.rows]


def check_dates(u_grid, T) -> np.ndarray:
    """H^2 dates as floats: a non-empty sequence of numbers 0 <= u < T."""
    if not (np.ndim(u_grid) == 1 and len(u_grid) and all(
            isinstance(u, (int, float, np.integer, np.floating))
            and not isinstance(u, bool) and 0.0 <= u < T for u in u_grid)):
        raise ArgumentError(f"u_grid must be a non-empty sequence of dates u "
                            f"with 0 <= u < T, not {u_grid!r}")
    return np.asarray(u_grid, dtype=float)


def estimate_h2(spec, pricing, u_grid, n_paths: int = DEFAULT_N,
                master_seed: int = 0) -> H2Curve:
    """MC curve of H^2(u) = E || sigma(X_u)^T d2F(u, X_u) sigma(X_u) ||_F^2."""
    check_count("n_paths", n_paths, 2)
    check_priced(spec, pricing)
    u_grid = check_dates(u_grid, pricing.T)
    points = []
    taus = pricing.T - u_grid
    states = one_step_states(spec, pricing.T, taus, n_paths, master_seed)
    for u, tau, x in zip(u_grid, taus, states):
        sig = sigma_matrix(spec, x)
        hess = pricing.hessian(tau, x)
        core = np.swapaxes(sig, -1, -2) @ hess @ sig
        vals = (core * core).sum(axis=(-1, -2))
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
        points.append((float(u), mean, stderr))
    return H2Curve(points=tuple(points))


def choose_eta(theta: float) -> float:
    """Net parameter for a given blow-up exponent.

    theta < 1/2 keeps the equidistant net (eta = 0); otherwise eta = theta,
    the midpoint of the admissible interval (2 theta - 1, 1).
    """
    if not (0.0 <= theta < 1.0):
        raise ArgumentError("theta must lie in [0, 1)")
    return 0.0 if theta < 0.5 else float(theta)


def _ols(x, y):
    """Slope, intercept, slope stderr, r^2 of ordinary least squares."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = x.size
    xm = x - x.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise ValueError("degenerate abscissae")
    slope = float(xm @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if k > 2:
        se = math.sqrt(ss_res / (k - 2) / sxx)
    else:
        se = 0.0
    return slope, intercept, se, r2


def check_rate_ns(ns) -> None:
    """The n of a rate fit: integers >= 1, 4 or more distinct >= RATE_N_MIN."""
    for n in ns:
        check_count("n", n)
    if sum(n >= RATE_N_MIN for n in set(ns)) < 4:
        raise ArgumentError(f"a rate fit needs at least 4 values of n >= "
                            f"{RATE_N_MIN}, each counted once")


def _jackknife_table(jackknife, n_points: int) -> np.ndarray:
    """The jackknife rms values as a (points, groups) float array: one row
    per point, the same G >= 2 groups in every row."""
    try:
        table = np.asarray(jackknife, dtype=float)
    except (TypeError, ValueError):
        table = None
    if table is None or table.ndim != 2 or table.shape[0] != n_points \
            or table.shape[1] < 2:
        raise ArgumentError("jackknife must hold one row of at least two "
                            "group rms values per point")
    return table


def fit_rate(points: Sequence,
             jackknife: Optional[Sequence] = None) -> RateFit:
    """OLS of log rms on log n; points with n < RATE_N_MIN are dropped.

    Accepts (n, rms) pairs. Scale-equivariant by construction: scaling every
    rms by c shifts the intercept by log c and leaves the slope unchanged.

    The slope CI is the OLS one, valid for independent points. Points that
    share paths (an ``error_curve`` sweep) are correlated across n; for them
    pass ``jackknife``, per point the rms with each of G path groups left
    out in turn (``HedgeErrorEstimate.jackknife_rms``). The CI is then the
    delete-one-group jackknife of the slope, with a t quantile on G - 1
    degrees of freedom.
    """
    points = list(points)
    check_rate_ns([n for n, _ in points])
    if jackknife is not None:
        jackknife = _jackknife_table(jackknife, len(points))
    keep = [i for i, (n, _) in enumerate(points) if n >= RATE_N_MIN]
    used = [(int(points[i][0]), float(points[i][1])) for i in keep]
    if any(r <= 0.0 for _, r in used):
        raise ValueError("rms values must be positive")
    rms = np.array([r for _, r in used])
    if np.all(rms == rms[0]):
        raise ValueError("degenerate (constant) rms inputs")
    lx = np.log([n for n, _ in used])
    ly = np.log(rms)
    slope, intercept, se, r2 = _ols(lx, ly)
    if jackknife is None:
        tcrit = stdtrit(len(used) - 2, 0.975)
    else:
        # log rms with each group left out, shape (points used, groups)
        loo = np.log(jackknife[keep])
        G = loo.shape[1]
        slopes = np.array([_ols(lx, loo[:, g])[0] for g in range(G)])
        dev = slopes - slopes.mean()
        se = math.sqrt((G - 1) / G * float(dev @ dev))
        tcrit = stdtrit(G - 1, 0.975)
    return RateFit(
        slope=slope, intercept=intercept,
        ci95_slope=(slope - tcrit * se, slope + tcrit * se),
        r2=r2, points_used=tuple(used),
    )
