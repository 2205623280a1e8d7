"""Deterministic time-nets on [0, T], held as times to maturity tau = T - t.

Provides the equidistant family, the one-parameter family

    tau_i = T * ((n - i)/n)^(1/(1-eta)),   eta in [0, 1),

which concentrates rebalancing dates near maturity, a refinement helper for
running-supremum monitoring, and the deterministic net-quality functional

    S(tau, theta) = sum_i  int_{t_{i-1}}^{t_i} int_{t_{i-1}}^{u} (T-s)^(-2 theta) ds du,

whose scaling in n separates the two net families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import ArgumentError, check_count, check_horizon

__all__ = [
    "TimeNet",
    "eta_net",
    "equidistant_net",
    "refine",
    "lemma_net_functional",
]

# Truncation of the final interval at tau = T * EPS_LAST when the integrand
# (T-s)^(-2 theta) is non-integrable up to T (2 theta >= 1).
EPS_LAST = 1e-8


@dataclass(frozen=True)
class TimeNet:
    """Strictly decreasing times to maturity tau_0 = T > ... > tau_n = 0."""

    horizon: float
    taus: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        check_horizon(self.horizon)
        if taus.ndim != 1 or taus.size < 2:
            raise ArgumentError("need at least two times (T and 0)")
        if taus[0] != self.horizon or taus[-1] != 0.0:
            raise ArgumentError("times to maturity must run from exactly T "
                                "to 0")
        if np.any(np.diff(taus) >= 0.0):
            raise ArgumentError("times to maturity must be strictly decreasing")
        taus.flags.writeable = False

    @property
    def knots(self) -> np.ndarray:
        """The dates t_i = T - tau_i, from 0 to T (read-only)."""
        knots = self.horizon - self.taus
        knots.flags.writeable = False
        return knots

    @property
    def n_intervals(self) -> int:
        return self.taus.size - 1

    def spacings(self) -> np.ndarray:
        return -np.diff(self.taus)


def equidistant_net(T: float, n: int) -> TimeNet:
    """Equidistant net with n + 1 knots on [0, T]: the eta-net with eta = 0."""
    return eta_net(T, n, 0.0)


def eta_net(T: float, n: int, eta: float) -> TimeNet:
    """Net tau_i = T * ((n - i)/n)^(1/(1-eta)); eta = 0 is equidistant."""
    T = check_horizon(T)
    check_count("n", n)
    if not (0.0 <= eta < 1.0):
        raise ArgumentError("eta must be < 1 (and >= 0)")
    # (n - i) / n is exact at both ends and one double for every n it divides
    # (nested nets share their taus bitwise); at eta = 0, pow returns it as is.
    frac = (n - np.arange(n + 1)) / n
    taus = T * frac ** (1.0 / (1.0 - eta))
    if taus[-2] == 0.0:
        raise ArgumentError(
            f"eta-net with eta={eta:g} and n={n}: its last positive tau, "
            f"T (1/n)^(1/(1-eta)), underflows to 0; use a smaller eta or n")
    return TimeNet(horizon=T, taus=taus)


def refine(net: TimeNet, M: int) -> np.ndarray:
    """The net's times to maturity joined with an M+1 point equidistant
    monitoring grid, decreasing from exactly T to exactly 0."""
    check_count("M", M)
    if M < net.n_intervals:
        raise ArgumentError("M must be at least the number of net intervals")
    j = np.arange(M + 1)
    return np.union1d(net.taus, net.horizon * ((M - j) / M))[::-1]


def _double_integral(a: float, b: float, theta: float) -> float:
    """Closed form of int_{t0}^{t1} int_{t0}^{u} (T-s)^(-2 theta) ds du in
    the times to maturity a = T - t0 > b = T - t1."""
    two_theta = 2.0 * theta
    if theta == 0.0:
        return 0.5 * (a - b) ** 2
    if two_theta == 1.0:
        # inner integral: log(a) - log(T-u)
        # outer antiderivative of -log(T-u): (T-u)*(log(T-u) - 1), sign flipped
        def anti(c):
            return c - c * np.log(c)

        return float(np.log(a) * (a - b) - anti(b) + anti(a))
    c1 = 1.0 - two_theta
    c2 = 2.0 - two_theta
    # inner: ((T-u)^c1 - a^c1) / c1 ; outer antiderivative of (T-u)^c1 is
    # -(T-u)^c2 / c2.
    return float(a**c1 * (a - b) / c1 - (a**c2 - b**c2) / (c1 * c2))


def lemma_net_functional(net: TimeNet, theta: float) -> float:
    """Evaluate S(tau, theta) by closed-form antiderivatives.

    For 2*theta >= 1 the integrand is non-integrable up to T, so the final
    interval's outer upper limit is truncated at tau = T*EPS_LAST.
    """
    if theta >= 1.0:
        raise ArgumentError("theta must be < 1")
    if theta < 0.0:
        raise ArgumentError("theta must be >= 0")
    taus = net.taus
    total = 0.0
    for i in range(1, taus.size):
        a, b = taus[i - 1], taus[i]
        if i == taus.size - 1 and 2.0 * theta >= 1.0:
            b = max(b, net.horizon * EPS_LAST)
            if b >= a:
                # the whole final interval lies inside the truncated zone
                continue
        total += _double_integral(a, b, theta)
    return total
