"""Spans around the calls into each hedgenet module, recorded from outside.

``install`` replaces each traced function where its caller looks it up (a
module global or a class attribute) with a wrapper that records a span:
name, start, end, parent span and a work count. Nothing under ``src/``
changes. Spans stay in memory and are written out once, at the end.

Each thread keeps its own stack of open spans. A span opened in a worker
thread with nothing open in that thread takes the innermost span open in
the main thread as its parent, so the hedging thread pool's work nests
under the estimate that started it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, count]
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, count=None):
        """Wrap ``fn``; ``name`` may be a callable of the call's arguments.

        ``count(args, result)`` gives the span's work count.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif tracer._main_stack and stack is not tracer._main_stack:
                parent = tracer._main_stack[-1][0]
            else:
                parent = None
            rec = [next(tracer._ids),
                   name(args) if callable(name) else name, parent,
                   time.perf_counter(), None, 0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if count is not None:
                rec[5] = int(count(args, result))
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        setattr(owner, attr, self.span(name, getattr(owner, attr), count))

    def dump(self, path):
        keys = ("id", "name", "parent", "start", "end", "count")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def _rows(i):
    return lambda args, result: args[i].shape[0]


def _delivered(args, result):
    """N x grid steps the estimate describes (see workloads.py)."""
    exp = args[0]
    n = exp.net.n_intervals
    if exp.error_mode == "terminal":
        return exp.n_paths * n
    m = exp.monitor_points if exp.monitor_points is not None else 32 * n
    return exp.n_paths * m


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported hedgenet package."""
    import hedgenet.cli as cli
    import hedgenet.hedging as hedging
    import hedgenet.models as models
    import hedgenet.pricing as pricing
    import hedgenet.timenets as timenets

    for mod in (hedging, models):
        tracer.patch(mod, "normals", "rng.normals",
                     lambda args, result: result.size)
        tracer.patch(mod, "exact_step", "models.step", _rows(1))

    for meth in ("value", "gradient", "hessian"):
        tracer.patch(pricing.ProductPricing, meth, f"pricing.{meth}", _rows(2))
    tracer.patch(pricing.ProductPricing, "payoff", "pricing.payoff", _rows(1))
    for meth in ("value", "value_delta", "value_delta_gamma"):
        tracer.patch(pricing.Factor1D, meth,
                     lambda args: f"pricing.factor.{args[0].kind}")

    # estimate_l2_error is looked up by error_curve (hedging) and by
    # cmd_simulate (cli); both see one shared wrapper
    est = tracer.span("hedging.estimate_l2_error",
                      hedging.estimate_l2_error, _delivered)
    hedging.estimate_l2_error = est
    cli.estimate_l2_error = est

    for attr in ("error_curve", "path_error"):
        tracer.patch(cli, attr, f"hedging.{attr}")
    for attr in ("choose_eta", "default_theta_grid", "estimate_h2",
                 "estimate_theta", "fit_rate", "theta_grid_table"):
        tracer.patch(cli, attr, f"analysis.{attr}")
    # nets are built by the cli and, inside error_curve and the sup-mode
    # monitoring grid, by hedging
    for attr in ("equidistant_net", "eta_net", "refine"):
        fn = tracer.span(f"timenets.{attr}", getattr(timenets, attr))
        setattr(cli, attr, fn)
        setattr(hedging, attr, fn)
    return cli.main
