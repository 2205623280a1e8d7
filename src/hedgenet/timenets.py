"""Deterministic time-nets on [0, T].

Provides the equidistant family, the one-parameter family

    t_i = T * (1 - (1 - i/n)^(1/(1-eta))),   eta in [0, 1),

which concentrates rebalancing dates near maturity, a refinement helper for
running-supremum monitoring, and the deterministic net-quality functional

    S(tau, theta) = sum_i  int_{t_{i-1}}^{t_i} int_{t_{i-1}}^{u} (T-s)^(-2 theta) ds du,

whose scaling in n separates the two net families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeNet",
    "eta_net",
    "equidistant_net",
    "refine",
    "lemma_net_functional",
]

# Upper-limit truncation of the final interval when the integrand
# (T-s)^(-2 theta) is non-integrable up to T (2 theta >= 1).
EPS_LAST = 1e-8


@dataclass(frozen=True)
class TimeNet:
    """Strictly increasing knots t_0 = 0 < ... < t_m = T."""

    horizon: float
    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots (0 and T)")
        if knots[0] != 0.0:
            raise ValueError("first knot must be exactly 0")
        if knots[-1] != self.horizon:
            raise ValueError("last knot must be exactly the horizon")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        knots.flags.writeable = False

    @property
    def n_intervals(self) -> int:
        return self.knots.size - 1

    def spacings(self) -> np.ndarray:
        return np.diff(self.knots)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("t\n")
            for t in self.knots:
                f.write(f"{t:.17g}\n")


def equidistant_net(T: float, n: int) -> TimeNet:
    """Equidistant net with n + 1 knots on [0, T]: the eta-net with eta = 0."""
    return eta_net(T, n, 0.0)


def eta_net(T: float, n: int, eta: float) -> TimeNet:
    """Net t_i = T * (1 - ((n - i)/n)^(1/(1-eta))); eta = 0 is equidistant."""
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must be < 1 (and >= 0)")
    # (n - i) / n keeps t_0 = 0 and t_n = T exact. At eta = 0 the exponent
    # is 1.0 and pow returns frac exactly: the equidistant net T (1 - frac).
    frac = (n - np.arange(n + 1)) / n
    knots = T * (1.0 - frac ** (1.0 / (1.0 - eta)))
    if np.any(np.diff(knots) <= 0.0):
        raise ValueError(
            f"eta-net with eta={eta:g} and n={n}: knots near maturity round "
            f"to T={T:g} in double precision; use a smaller eta or n"
        )
    return TimeNet(horizon=float(T), knots=knots)


def refine(net: TimeNet, M: int) -> np.ndarray:
    """Sorted union of the net's knots with an M+1 point equidistant
    monitoring grid; its ends are exactly 0 and T, like the net's."""
    if M < net.n_intervals:
        raise ValueError("M must be at least the number of net intervals")
    j = np.arange(M + 1)
    return np.union1d(net.knots, net.horizon * (1.0 - (M - j) / M))


def _double_integral(t0: float, t1: float, T: float, theta: float) -> float:
    """Closed form of int_{t0}^{t1} int_{t0}^{u} (T-s)^(-2 theta) ds du."""
    two_theta = 2.0 * theta
    a = T - t0
    b = T - t1
    if theta == 0.0:
        return 0.5 * (t1 - t0) ** 2
    if two_theta == 1.0:
        # inner integral: log(a) - log(T-u)
        # outer antiderivative of -log(T-u): (T-u)*(log(T-u) - 1), sign flipped
        def anti(c):
            return c - c * np.log(c)

        return float(np.log(a) * (t1 - t0) - anti(b) + anti(a))
    c1 = 1.0 - two_theta
    c2 = 2.0 - two_theta
    # inner: ((T-u)^c1 - a^c1) / c1 ; outer antiderivative of (T-u)^c1 is
    # -(T-u)^c2 / c2.
    return float(a**c1 * (t1 - t0) / c1 - (a**c2 - b**c2) / (c1 * c2))


def lemma_net_functional(net: TimeNet, theta: float) -> float:
    """Evaluate S(tau, theta) by closed-form antiderivatives.

    For 2*theta >= 1 the integrand is non-integrable up to T, so the final
    interval's outer upper limit is truncated at T*(1 - EPS_LAST).
    """
    if theta >= 1.0:
        raise ValueError("theta must be < 1")
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    T = net.horizon
    knots = net.knots
    total = 0.0
    for i in range(1, knots.size):
        t0, t1 = knots[i - 1], knots[i]
        if i == knots.size - 1 and 2.0 * theta >= 1.0:
            t1 = min(t1, T * (1.0 - EPS_LAST))
            if t1 <= t0:
                # the whole final interval lies inside the truncated zone
                continue
        total += _double_integral(t0, t1, T, theta)
    return total
