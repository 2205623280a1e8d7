"""Deterministic time-nets on [0, T].

Provides the equidistant family, the one-parameter family

    t_i = T * (1 - (1 - i/n)^(1/(1-eta))),   eta in [0, 1),

which concentrates rebalancing dates near maturity, a refinement helper for
running-supremum monitoring, and the deterministic net-quality functional

    S(tau, theta) = sum_i  int_{t_{i-1}}^{t_i} int_{t_{i-1}}^{u} (T-s)^(-2 theta) ds du,

whose scaling in n separates the two net families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeNet",
    "EtaNetParams",
    "RefinedGrid",
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


@dataclass(frozen=True)
class EtaNetParams:
    horizon: float
    n: int
    eta: float

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError("n must be an integer >= 1")
        if not (0.0 <= self.eta < 1.0):
            raise ValueError("eta must be in [0, 1)")


@dataclass(frozen=True)
class RefinedGrid:
    """Union of a net's knots with an equidistant monitoring grid.

    ``knot_index[j]`` gives, for each fine time ``times[j]`` with j >= 1, the
    index i of the active net interval (t_{i-1}, t_i] containing it;
    knot_index[0] = 1 by convention.
    """

    net: TimeNet
    times: np.ndarray
    knot_index: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "knot_index", np.asarray(self.knot_index))
        if times[0] != 0.0 or times[-1] != self.net.horizon:
            raise ValueError("refined grid must span [0, T]")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("refined times must be strictly increasing")
        if not np.all(np.isin(self.net.knots, times)):
            raise ValueError("refined grid must contain every net knot")
        if np.any(np.diff(self.knot_index) < 0):
            raise ValueError("knot_index must be non-decreasing")

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def equidistant_net(T: float, n: int) -> TimeNet:
    """Equidistant net with n + 1 knots on [0, T]."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be an integer >= 1")
    i = np.arange(n + 1)
    # (n - i) / n before scaling keeps t_0 = 0 and t_n = T exact.
    knots = T * (1.0 - (n - i) / n)
    return TimeNet(horizon=float(T), knots=knots)


def eta_net(params: EtaNetParams) -> TimeNet:
    """Net t_i = T * (1 - ((n - i)/n)^(1/(1-eta))); eta = 0 is equidistant."""
    n, T, eta = params.n, params.horizon, params.eta
    i = np.arange(n + 1)
    frac = (n - i) / n
    if eta == 0.0:
        # Skip the exponentiation so eta=0 is bitwise-equal to equidistant_net.
        knots = T * (1.0 - frac)
    else:
        knots = T * (1.0 - frac ** (1.0 / (1.0 - eta)))
    if np.any(np.diff(knots) <= 0.0):
        raise ValueError(
            f"eta-net with eta={eta:g} and n={n}: knots near maturity round "
            f"to T={T:g} in double precision; use a smaller eta or n"
        )
    return TimeNet(horizon=float(T), knots=knots)


def refine(net: TimeNet, M: int) -> RefinedGrid:
    """Union of the net with an M+1 point equidistant monitoring grid."""
    if M < net.n_intervals:
        raise ValueError("M must be at least the number of net intervals")
    T = net.horizon
    j = np.arange(M + 1)
    monitor = T * (1.0 - (M - j) / M)
    times = np.union1d(net.knots, monitor)
    # Interval index: times in (t_{i-1}, t_i] map to i.
    idx = np.searchsorted(net.knots, times, side="left")
    idx[0] = 1
    return RefinedGrid(net=net, times=times, knot_index=idx)


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
