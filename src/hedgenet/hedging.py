"""Monte Carlo estimation of the discrete-hedging L2 error.

The error along a path is computed through the martingale-tracking identity:
the continuous hedge integral up to t equals F(T - t, X_t) - F(T, X_0)
exactly, so only the discrete hedge sum is ever accumulated and the
continuous side is never discretized. At t = T the terminal value f(X_T)
replaces F. Grids and prices are in the time to maturity tau = T - t.

``estimate_sweep`` is the engine: one set of settings (model, payoff, path
count, seed, error mode) and one list of nets per family. In the
running-sup modes a net of n intervals is monitored on
``refine(net, monitor_factor * n)``, so M = monitor_factor * n. An eta of 0
is the equidistant net. ``estimate_l2_error`` is the sweep of one net and
``error_curve`` the sweep of one eta-net family per eta.

One path stream serves every net of a sweep. Each batch of paths is
simulated once on the sorted union of the nets' grids (their knots, or
their monitoring grids in running-sup modes), and every net keeps its own
hedge account on those shared paths. These are the common random numbers of
a sweep: every n sees the same paths, sampled on the union grid by the
exact transition. A single net is the sweep whose union grid is its own
grid.

Several sweeps (the net families of one comparison) run in one pass. Each
keeps its own union grid, and so its own estimates, but the draws are keyed
by (master_seed, path, step index) alone, so the families share the normals
of each step index: the streams of all union grids advance in lockstep and
draw each step index once.

A path's draws are pure functions of (master_seed, path_index). Its error
is too, given the union grid, except for a payoff with a power factor: a
batch of at least ``pricing._TABLE_MIN_ROWS`` rows prices that factor off a
table spanning the batch's own log-price range, so a path's error moves
with the batch it is in (one path measured moved 5.7e-6 and 3.1e-5
relative, in batches of 4096 and 6000), and ``path_error`` or a run with a
larger n_paths need not reproduce the errors a sweep summed. Batch bounds
are fixed whatever the worker count, and per-batch sums use exact (fsum)
accumulation, so every estimate is bitwise independent of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .models import path_states
from .pricing import check_priced
from .rng import ArgumentError, SeedSpec, check_count
from .timenets import TimeNet, eta_net, refine

# Not called here: perfbench/tracer.py wraps these two names in this module.
from .models import exact_step  # noqa: F401
from .rng import normals  # noqa: F401

__all__ = [
    "HedgeErrorEstimate",
    "ErrorCurvePoint",
    "path_error",
    "estimate_l2_error",
    "estimate_sweep",
    "error_curve",
]

#: batch size is fixed (not derived from worker count) for determinism
BATCH_SIZE = 16384

#: default monitoring refinement for running-supremum estimates
M_FACTOR = 32

#: contiguous path-index groups of the delete-one-group jackknife
JACKKNIFE_GROUPS = 16


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
    estimates: dict  # one HedgeErrorEstimate per requested mode
    family: str  # "equidistant" | "eta"
    eta: float

    @property
    def estimate(self) -> HedgeErrorEstimate:
        """The terminal estimate, or the running-sup one if that is the
        only mode."""
        return self.estimates.get("terminal") or self.estimates["running_sup"]


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
    times = np.unique(np.concatenate(grids))[::-1]
    return _Plan(
        times=times,
        n_nets=len(knots),
        rebalance=_acting(times, knots),
        monitor=_acting(times, grids) if want_sup else None,
    )


def _plans(spec, pricing, families, monitor_factor, want_sup) -> list:
    """One plan per family of nets, made once its arguments pass."""
    check_count("monitor_factor", monitor_factor)
    check_priced(spec, pricing)
    if not families or not all(families):
        raise ArgumentError("need at least one net per family")
    if any(net.horizon != pricing.T for nets in families for net in nets):
        raise ArgumentError("pricing horizon must equal the net horizon")
    return [
        _plan([refine(net, monitor_factor * net.n_intervals) if want_sup
               else net.taus for net in nets],
              [net.taus for net in nets], want_sup)
        for nets in families
    ]


def _row_dots(dx, grad, prod, dots):
    """``(dx * grad).sum(axis=1)`` on C-ordered rows, using ``prod`` (B, d)
    and ``dots`` (B,) as scratch; the result is a view of one of them.

    Up to 7 columns numpy's row sum adds left to right, so an explicit sum
    of the (coordinate-major, contiguous) columns gives the same bits (up
    to the sign of a zero sum, which adding into the gains erases) without
    the reduction's overhead. From 8 columns on numpy sums a C-ordered row
    pairwise, and that sum is kept. The order is numpy's internal choice,
    measured on numpy 2.4.6 and guarded by ``test_row_dots_is_the_row_sum``;
    should it change, fall back to the C-ordered sum for every d.
    """
    d = prod.shape[1]
    if d >= 8:
        return np.multiply(dx, grad, order="C").sum(axis=1, out=dots)
    np.multiply(dx, grad, out=prod)
    if d == 1:
        return prod[:, 0]
    np.add(prod[:, 0], prod[:, 1], out=dots)
    for k in range(2, d):
        dots += prod[:, k]
    return dots


def _batch_errors(spec, pricing, plans, master_seed, path_indices):
    """Per plan and net, (terminal_error, sup_abs_error or None) for a batch
    of paths.

    ``path_states`` streams the states of every plan's union grid in
    lockstep, so the plans share the draws of each step index; the
    previous state of each plan is kept here for its hedge increments. Each
    net holds its gains and its running sup, and shares the gradient of its
    last rebalance with every net of its plan that rebalanced at the same
    time: one gradient array per distinct last-rebalance time. The gradient
    at a union knot and the value at a monitoring time are evaluated once
    per plan, whatever the number of its nets that use them. When a plan's
    grid ends, its nets' terminal errors are written into their gains and
    its state and gradients are dropped.
    """
    B = path_indices.size
    x0 = np.broadcast_to(spec.x0, (B, spec.d))
    xs, v0s, holders, gains, sups = [], [], [], [], []
    for plan in plans:
        # All paths start at x0: price and hedge once, broadcast.
        xs.append(x0)
        v0s.append(pricing.value(pricing.T, x0[:1])[0])
        grad = np.broadcast_to(pricing.gradient(pricing.T, x0[:1])[0],
                               x0.shape)
        # (gradient, nets holding it): each distinct hedge ratio once
        holders.append([(grad, tuple(range(plan.n_nets)))])
        gains.append([np.zeros(B) for _ in range(plan.n_nets)])
        sups.append(None if plan.monitor is None
                    else [np.zeros(B) for _ in range(plan.n_nets)])
    # coordinate-major scratch of the hedge increments, for every step
    dx, prod = np.empty((2, spec.d, B)).transpose(0, 2, 1)
    dots = np.empty(B)
    for g, j, x in path_states(spec, [plan.times for plan in plans],
                               master_seed, path_indices):
        plan, gain, sup = plans[g], gains[g], sups[g]
        np.subtract(x, xs[g], out=dx)
        for grad, nets in holders[g]:
            inc = _row_dots(dx, grad, prod, dots)
            for i in nets:
                gain[i] += inc
        xs[g] = x
        if j < plan.times.size - 1:
            tau = plan.times[j]
            if sup is not None and plan.monitor[j]:
                v = pricing.value(tau, x)
                v -= v0s[g]
                for i in plan.monitor[j]:
                    np.abs(np.subtract(v, gain[i], out=dots), out=dots)
                    np.maximum(sup[i], dots, out=sup[i])
            moving = plan.rebalance[j]
            if moving:
                # gradients held by moving nets alone go before the new one
                # is priced
                holders[g] = [
                    (h, rest) for h, nets in holders[g]
                    if (rest := tuple(i for i in nets if i not in moving))
                ]
                holders[g].append((pricing.gradient(tau, x), moving))
            continue
        pay = pricing.payoff(x) - v0s[g]
        for i, e in enumerate(gain):
            np.subtract(pay, e, out=e)  # the terminal error, in place
            if sup is not None:
                np.maximum(sup[i], np.abs(e), out=sup[i])
        xs[g] = holders[g] = None
    return [
        [(e, None if sup is None else sup[i]) for i, e in enumerate(gain)]
        for gain, sup in zip(gains, sups)
    ]


def path_error(spec, pricing, net: TimeNet, monitor_factor: int,
               seed: SeedSpec):
    """(terminal_error, sup_abs_error) of a single hedged path.

    The supremum is taken over ``refine(net, monitor_factor * n)``, with the
    tau = 0 value computed from the terminal payoff.
    """
    plans = _plans(spec, pricing, [[net]], monitor_factor, want_sup=True)
    [[(terminal, sup)]] = _batch_errors(
        spec, pricing, plans, seed.master_seed,
        np.array([seed.path_index], dtype=np.uint64),
    )
    return float(terminal[0]), float(sup[0])


def _run_batches(spec, pricing, plans, n_paths, master_seed, modes, workers):
    """Per batch, plan and net, for each mode: exact sums of e^2 and e^4,
    and the exact sum of e^2 over each jackknife group the batch overlaps.
    """
    bounds = _group_bounds(n_paths)
    n_batches = -(-n_paths // BATCH_SIZE)

    def run(b):
        lo = b * BATCH_SIZE
        hi = min(lo + BATCH_SIZE, n_paths)
        idx = np.arange(lo, hi, dtype=np.uint64)
        errors = _batch_errors(spec, pricing, plans, master_seed, idx)
        cuts = [
            (g, max(a, lo) - lo, min(c, hi) - lo)
            for g, (a, c) in enumerate(zip(bounds, bounds[1:]))
            if a < hi and c > lo
        ]
        out = []
        for plan_errors in errors:
            plan_sums = []
            for terminal, sup in plan_errors:
                sums = {}
                for mode in modes:
                    e = terminal if mode == "terminal" else sup
                    e2 = e * e
                    # fsum reads a list faster than an array; each list is
                    # dropped before the next is made
                    e4 = math.fsum((e2 * e2).tolist())
                    e2 = e2.tolist()
                    sums[mode] = (
                        math.fsum(e2), e4,
                        [(g, math.fsum(e2[a:c])) for g, a, c in cuts],
                    )
                plan_sums.append(sums)
            out.append(plan_sums)
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


def estimate_sweep(spec, pricing, families: Sequence[Sequence[TimeNet]],
                   n_paths: int, master_seed: int,
                   error_mode: str = "terminal", workers: int = 1,
                   monitor_factor: int = M_FACTOR):
    """MC estimates of E|error|^2 on every net of every family, in one pass.

    ``error_mode`` is "terminal", "running_sup" or "both"; in the running-sup
    modes a net of n intervals takes its supremum over
    ``refine(net, monitor_factor * n)``. Every argument is checked before
    any path is drawn.

    Every batch of paths is simulated once per family on the union of the
    family's grids and hedged on each of its nets, so the estimates of a
    family share common random numbers. The families share the paths too,
    each sampled on its own union grid, and their streams advance in
    lockstep so the normals of a step index are drawn once for all of them.
    Every estimate equals the one a separate pass of its family gives.
    Returns, per family, one dict per net, keyed by mode, of
    HedgeErrorEstimate. Results are bitwise independent of the worker
    count.
    """
    if error_mode not in ("terminal", "running_sup", "both"):
        raise ArgumentError(f"unknown error mode {error_mode!r}")
    check_count("n_paths", n_paths)
    check_count("workers", workers)
    families = [list(nets) for nets in families]
    plans = _plans(spec, pricing, families, monitor_factor,
                   want_sup=error_mode != "terminal")
    modes = (("terminal", "running_sup") if error_mode == "both"
             else (error_mode,))
    results = _run_batches(spec, pricing, plans, n_paths, master_seed, modes,
                           workers)
    return [
        [{m: _summarize([r[k][i] for r in results], m, n_paths)
          for m in modes}
         for i in range(len(nets))]
        for k, nets in enumerate(families)
    ]


def estimate_l2_error(spec, pricing, net: TimeNet, n_paths: int,
                      master_seed: int, error_mode: str = "terminal",
                      workers: int = 1, monitor_factor: int = M_FACTOR):
    """MC estimates of E|error|^2 on one net: ``estimate_sweep`` of the one
    family [net]. Returns a dict keyed by mode of HedgeErrorEstimate."""
    return estimate_sweep(spec, pricing, [[net]], n_paths, master_seed,
                          error_mode, workers, monitor_factor)[0][0]


def error_curve(spec, pricing, n_list: Sequence[int], etas: Sequence[float],
                n_paths: int, master_seed: int, error_mode: str = "terminal",
                workers: int = 1, monitor_factor: int = M_FACTOR):
    """Sweep the net cardinality n of each family and estimate the error at
    each n.

    ``etas`` lists the families: eta = 0 is the equidistant one. The sweeps
    are one pass of ``estimate_sweep``: every n of a family is hedged on the
    same paths, sampled on the union of the family's nets' grids. These
    common random numbers correlate the points across n; ``fit_rate`` takes
    their ``jackknife_rms`` for a valid slope CI. Every family sees the same
    paths and draws the normals of each step index once, so its points equal
    those of a call with that family alone. The largest n of a nested sweep
    (n_list = 8, 16, ..., 512) gets exactly its standalone estimate.
    Returns, per eta, one ErrorCurvePoint per n, carrying an estimate per
    requested mode.
    """
    families = [[eta_net(pricing.T, n, eta) for n in n_list] for eta in etas]
    if list(n_list) != sorted(n_list):
        raise ArgumentError("n_list must be ascending")
    ests = estimate_sweep(spec, pricing, families, n_paths, master_seed,
                          error_mode, workers, monitor_factor)
    return [
        [
            ErrorCurvePoint(n=net.n_intervals, estimates=est,
                            family="eta" if eta else "equidistant", eta=eta)
            for net, est in zip(nets, fam_ests)
        ]
        for eta, nets, fam_ests in zip(etas, families, ests)
    ]
