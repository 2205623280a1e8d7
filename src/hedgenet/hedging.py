"""Monte Carlo estimation of the discrete-hedging L2 error.

The error along a path is computed through the martingale-tracking identity:
the continuous hedge integral up to t equals F(t, X_t) - F(0, X_0) exactly,
so only the discrete hedge sum is ever accumulated and the continuous side is
never discretized. At t = T the terminal value f(X_T) replaces F.

One path stream serves every net of a sweep. Each batch of paths is
simulated once on the sorted union of the nets' grids (their knots, or
their monitoring grids in running-sup modes), and every net keeps its own
hedge account on those shared paths. These are the common random numbers of
a sweep: every n sees the same paths, sampled on the union grid, which with
``scheme="euler"`` means the Euler scheme on the union grid. A single net is
the sweep whose union grid is its own grid.

Path errors are pure functions of (master_seed, path_index) and the union
grid, batches are a fixed size regardless of worker count, and per-batch
sums use exact (fsum) accumulation, so every estimate is bitwise independent
of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .models import DiffusionSpec, euler_step, exact_step
from .rng import SeedSpec, normals
from .timenets import RefinedGrid, TimeNet, equidistant_net, eta_net, EtaNetParams, refine

__all__ = [
    "HedgeExperiment",
    "HedgeErrorEstimate",
    "ErrorCurvePoint",
    "path_error",
    "estimate_l2_error",
    "estimate_sweep",
    "family_nets",
    "error_curve",
]

#: batch size is fixed (not derived from worker count) for determinism
BATCH_SIZE = 16384

#: default monitoring refinement for running-supremum estimates
M_FACTOR = 32

#: contiguous path-index groups of the delete-one-group jackknife
JACKKNIFE_GROUPS = 16


@dataclass(frozen=True)
class HedgeExperiment:
    """One hedging-error Monte Carlo run."""

    spec: DiffusionSpec
    pricing: object
    net: TimeNet
    n_paths: int
    master_seed: int
    error_mode: str = "terminal"  # "terminal" | "running_sup" | "both"
    monitor_points: Optional[int] = None  # M; defaults to M_FACTOR * n
    scheme: str = "exact"  # "exact" | "euler"

    def __post_init__(self):
        if self.error_mode not in ("terminal", "running_sup", "both"):
            raise ValueError("unknown error mode")
        if self.pricing.T != self.net.horizon:
            raise ValueError("pricing horizon must equal the net horizon")
        if self.spec.d != self.pricing.d:
            raise ValueError("diffusion and payoff dimensions differ")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if (
            self.monitor_points is not None
            and self.monitor_points < self.net.n_intervals
        ):
            raise ValueError("monitor points must be >= the net cardinality")

    @property
    def needs_sup(self) -> bool:
        return self.error_mode in ("running_sup", "both")

    @property
    def modes(self) -> tuple:
        if self.error_mode == "both":
            return ("terminal", "running_sup")
        return (self.error_mode,)

    def monitoring_grid(self) -> RefinedGrid:
        M = self.monitor_points
        if M is None:
            M = M_FACTOR * self.net.n_intervals
        return refine(self.net, M)


def _group_bounds(n_paths: int) -> list:
    """First path index of each jackknife group, then n_paths."""
    G = min(JACKKNIFE_GROUPS, n_paths)
    return [g * n_paths // G for g in range(G + 1)]


@dataclass(frozen=True)
class HedgeErrorEstimate:
    """MC estimate of E|error|^2 with its standard error."""

    mean_sq: float
    stderr_mean_sq: float
    n_paths: int
    mode: str
    #: exact sum of e^2 over each jackknife group of path indices
    group_sq_sums: tuple = field(default=(), repr=False)

    @property
    def rms(self) -> float:
        return math.sqrt(self.mean_sq)

    @property
    def stderr_rms(self) -> float:
        # delta method: d sqrt(m) / dm = 1 / (2 sqrt(m))
        if self.mean_sq <= 0.0:
            return float("nan")
        return self.stderr_mean_sq / (2.0 * self.rms)

    def jackknife_rms(self) -> tuple:
        """The rms with each jackknife group of paths left out in turn."""
        sums = self.group_sq_sums
        if len(sums) < 2:
            raise ValueError("the jackknife needs at least two paths")
        bounds = _group_bounds(self.n_paths)
        return tuple(
            math.sqrt(
                math.fsum(sums[:g] + sums[g + 1:])
                / (self.n_paths - (bounds[g + 1] - bounds[g]))
            )
            for g in range(len(sums))
        )


@dataclass(frozen=True)
class ErrorCurvePoint:
    n: int
    estimate: HedgeErrorEstimate
    family: str  # "equidistant" | "eta"
    eta: float


@dataclass(frozen=True)
class _Plan:
    """Union grid of a sweep and, per union time, the nets acting there.

    ``rebalance[j]`` lists the nets with a knot at ``times[j]``;
    ``monitor[j]`` lists the nets whose running supremum is taken there, and
    is None in terminal mode.
    """

    times: np.ndarray
    n_nets: int
    rebalance: tuple
    monitor: Optional[tuple]


def _acting(times, per_net) -> tuple:
    """For each time, the indices of the nets whose time set contains it."""
    masks = np.array([np.isin(times, t) for t in per_net])
    return tuple(tuple(np.flatnonzero(col)) for col in masks.T)


def _plan(grids, knots, want_sup) -> _Plan:
    times = np.unique(np.concatenate(grids))
    return _Plan(
        times=times,
        n_nets=len(knots),
        rebalance=_acting(times, knots),
        monitor=_acting(times, grids) if want_sup else None,
    )


def _batch_errors(spec, pricing, plan: _Plan, master_seed, path_indices,
                  scheme):
    """Per net, (terminal_error, sup_abs_error or None) for a batch of paths.

    States are streamed one step at a time over the union grid. Each net
    holds its gains and its running sup, and shares the gradient of its last
    rebalance with every net that rebalanced at the same time: one gradient
    array per distinct last-rebalance time. The gradient at a union knot and
    the value at a monitoring time are evaluated once, whatever the number
    of nets that use them.
    """
    step = exact_step if scheme == "exact" else euler_step
    times = plan.times
    B = path_indices.size
    x = np.broadcast_to(spec.x0, (B, spec.d)).copy()
    # All paths start at x0: price and hedge once, broadcast.
    v0 = pricing.value(0.0, x[:1])[0]
    grad = np.broadcast_to(pricing.gradient(0.0, x[:1])[0], (B, spec.d))
    # (gradient, nets holding it): each distinct hedge ratio once
    holders = [(grad, tuple(range(plan.n_nets)))]
    gains = [np.zeros(B) for _ in range(plan.n_nets)]
    sups = None if plan.monitor is None else [np.zeros(B) for _ in gains]
    last = times.size - 1
    for j in range(1, times.size):
        dt = times[j] - times[j - 1]
        z = normals(master_seed, path_indices, j - 1, spec.d)
        x_new = step(spec, x, dt, z)
        dx = x_new - x
        for grad, nets in holders:
            inc = (dx * grad).sum(axis=1)
            for i in nets:
                gains[i] += inc
        x = x_new
        if j < last:
            if sups is not None and plan.monitor[j]:
                v = pricing.value(times[j], x) - v0
                for i in plan.monitor[j]:
                    np.maximum(sups[i], np.abs(v - gains[i]), out=sups[i])
            moving = plan.rebalance[j]
            if moving:
                holders = [(g, tuple(i for i in nets if i not in moving))
                           for g, nets in holders]
                holders = [h for h in holders if h[1]]
                holders.append((pricing.gradient(times[j], x), moving))
    pay = pricing.payoff(x) - v0
    out = []
    for i, g in enumerate(gains):
        terminal = pay - g
        if sups is not None:
            np.maximum(sups[i], np.abs(terminal), out=sups[i])
        out.append((terminal, None if sups is None else sups[i]))
    return out


def path_error(spec, pricing, net: TimeNet, grid: RefinedGrid, seed: SeedSpec,
               scheme: str = "exact"):
    """(terminal_error, sup_abs_error) of a single hedged path.

    The supremum is taken over the monitoring grid, with the t = T value
    computed from the terminal payoff.
    """
    if not np.all(np.isin(net.knots, grid.times)):
        raise ValueError("monitoring grid must contain every net knot")
    plan = _plan([grid.times], [net.knots], want_sup=True)
    [(terminal, sup)] = _batch_errors(
        spec, pricing, plan, seed.master_seed,
        np.array([seed.path_index], dtype=np.uint64), scheme,
    )
    return float(terminal[0]), float(sup[0])


def _run_batches(exp: HedgeExperiment, plan: _Plan, workers: int):
    """Per batch and net, for each mode: exact sums of e^2 and e^4, and the
    exact sum of e^2 over each jackknife group the batch overlaps.

    ``exp`` gives the settings the sweep's experiments share; the nets come
    from ``plan``.
    """
    n_paths = exp.n_paths
    bounds = _group_bounds(n_paths)
    n_batches = -(-n_paths // BATCH_SIZE)

    def run(b):
        lo = b * BATCH_SIZE
        hi = min(lo + BATCH_SIZE, n_paths)
        idx = np.arange(lo, hi, dtype=np.uint64)
        errors = _batch_errors(
            exp.spec, exp.pricing, plan, exp.master_seed, idx, exp.scheme,
        )
        cuts = [
            (g, max(a, lo) - lo, min(c, hi) - lo)
            for g, (a, c) in enumerate(zip(bounds, bounds[1:]))
            if a < hi and c > lo
        ]
        out = []
        for terminal, sup in errors:
            sums = {}
            for mode in exp.modes:
                e = terminal if mode == "terminal" else sup
                e2 = e * e
                sums[mode] = (
                    math.fsum(e2), math.fsum(e2 * e2),
                    [(g, math.fsum(e2[a:c])) for g, a, c in cuts],
                )
            out.append(sums)
        return out

    if workers <= 1 or n_batches == 1:
        return [run(b) for b in range(n_batches)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n_batches)))


def _summarize(batch_sums, mode, n_paths) -> HedgeErrorEstimate:
    s2 = math.fsum(r[mode][0] for r in batch_sums)
    s4 = math.fsum(r[mode][1] for r in batch_sums)
    groups = [[] for _ in range(len(_group_bounds(n_paths)) - 1)]
    for r in batch_sums:
        for g, s in r[mode][2]:
            groups[g].append(s)
    mean_sq = s2 / n_paths
    var = max(s4 / n_paths - mean_sq * mean_sq, 0.0)
    stderr = math.sqrt(var / n_paths)
    return HedgeErrorEstimate(
        mean_sq=mean_sq, stderr_mean_sq=stderr, n_paths=n_paths, mode=mode,
        group_sq_sums=tuple(math.fsum(g) for g in groups),
    )


def estimate_sweep(exps: Sequence[HedgeExperiment], workers: int = 1):
    """MC estimates for experiments that differ only in their net, in one pass.

    Every batch of paths is simulated once on the union of the experiments'
    grids and hedged on each net, so the estimates share common random
    numbers. Returns one dict per experiment, keyed by mode like
    ``estimate_l2_error``. Results are bitwise independent of the worker
    count.
    """
    exps = list(exps)
    if not exps:
        raise ValueError("need at least one experiment")
    first = exps[0]
    for e in exps[1:]:
        if not (
            e.spec is first.spec and e.pricing is first.pricing
            and (e.n_paths, e.master_seed, e.error_mode, e.scheme)
            == (first.n_paths, first.master_seed, first.error_mode,
                first.scheme)
        ):
            raise ValueError("a sweep's experiments may differ only in net "
                             "and monitor points")
    plan = _plan(
        [e.monitoring_grid().times if e.needs_sup else e.net.knots
         for e in exps],
        [e.net.knots for e in exps],
        first.needs_sup,
    )
    results = _run_batches(first, plan, workers)
    return [
        {m: _summarize([r[i] for r in results], m, first.n_paths)
         for m in first.modes}
        for i in range(len(exps))
    ]


def estimate_l2_error(exp: HedgeExperiment, workers: int = 1):
    """MC estimates of E|error|^2, one HedgeErrorEstimate per requested mode.

    Returns a dict keyed by mode ("terminal" and/or "running_sup"). Results
    are bitwise independent of the worker count.
    """
    return estimate_sweep([exp], workers)[0]


def family_nets(T: float, n_list: Sequence[int], eta: Optional[float]):
    """One net per n: equidistant for eta None or 0, else the eta-net."""
    if not eta:
        return [equidistant_net(T, int(n)) for n in n_list]
    return [eta_net(EtaNetParams(horizon=T, n=int(n), eta=float(eta)))
            for n in n_list]


def error_curve(spec, pricing, n_list: Sequence[int], eta: Optional[float],
                n_paths: int, master_seed: int, error_mode: str = "terminal",
                scheme: str = "exact", workers: int = 1,
                monitor_factor: int = M_FACTOR):
    """Sweep the net cardinality n and estimate the error at each n.

    ``eta`` None (or 0) selects the equidistant family. The sweep is one
    pass of ``estimate_sweep``: every n is hedged on the same paths, sampled
    on the union of all the nets' grids (with ``scheme="euler"``, the Euler
    scheme on that union grid). These common random numbers correlate the
    points across n; ``fit_rate`` takes their ``jackknife_rms`` for a valid
    slope CI. The largest n of a nested sweep (n_list = 8, 16, ..., 512)
    gets exactly its standalone estimate.
    Returns a list of ErrorCurvePoint carrying the terminal-mode estimate
    (or the running-sup estimate if that is the only mode requested).
    """
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    family = "equidistant" if not eta else "eta"
    exps = [
        HedgeExperiment(
            spec=spec, pricing=pricing, net=net, n_paths=n_paths,
            master_seed=master_seed, error_mode=error_mode, scheme=scheme,
            monitor_points=(
                None if error_mode == "terminal"
                else monitor_factor * net.n_intervals
            ),
        )
        for net in family_nets(pricing.T, n_list, eta)
    ]
    pick = "terminal" if error_mode != "running_sup" else "running_sup"
    return [
        ErrorCurvePoint(
            n=e.net.n_intervals, estimate=est[pick], family=family,
            eta=float(eta or 0.0),
        )
        for e, est in zip(exps, estimate_sweep(exps, workers))
    ]
