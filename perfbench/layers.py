"""Per-layer metrics from the spans of one traced repetition.

A span's self time is its duration minus the part of it that its child
spans cover (children running in two worker threads at once cover the
interval once). A layer's self time sums the self times of its spans.
Pricing methods are reported with their factor evaluations included, since
the factors are the same layer; ``pricing.product.self_s`` is the part of
them spent outside the factors.

Every metric is reported on every workload; a layer the workload does not
call reads 0.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path

#: hedgenet modules the import-time split reports; ``init`` is the package
IMPORT_MODULES = ("init", "timenets", "models", "rng", "pricing", "hedging",
                  "analysis", "cli")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _rate(count, seconds):
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(workload, spans, out_dir) -> dict:
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))

    dur = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    calls = defaultdict(int)
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] += d
        own[s["name"]] += d - _covered(children[s["id"]], s["start"], s["end"])
        count[s["name"]] += s["count"]
        calls[s["name"]] += 1

    def under(s, prefix):
        """Whether a span runs inside a span whose name has this prefix."""
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"].startswith(prefix):
                return True
            p = by_id[p]["parent"]
        return False

    def layer_self(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    def count_under(name, prefix):
        return sum(s["count"] for s in spans
                   if s["name"] == name and under(s, prefix))

    m = {}
    m["rng.normals.calls"] = (calls["rng.normals"], "count")
    m["rng.normals.draws"] = (count["rng.normals"], "count")
    m["rng.normals.self_s"] = (own["rng.normals"], "s")
    m["rng.normals.draws_per_s"] = (
        _rate(count["rng.normals"], own["rng.normals"]), "1/s")

    m["models.step.calls"] = (calls["models.step"], "count")
    m["models.step.path_steps"] = (count["models.step"], "count")
    m["models.step.self_s"] = (own["models.step"], "s")
    m["models.step.path_steps_per_s"] = (
        _rate(count["models.step"], own["models.step"]), "1/s")

    for meth in ("gradient", "value", "hessian"):
        name = f"pricing.{meth}"
        m[f"{name}.rows"] = (count[name], "count")
        m[f"{name}.self_s"] = (dur[name], "s")
        m[f"{name}.rows_per_s"] = (_rate(count[name], dur[name]), "1/s")
    m["pricing.payoff.self_s"] = (dur["pricing.payoff"], "s")
    m["pricing.product.self_s"] = (
        sum(own[f"pricing.{k}"]
            for k in ("gradient", "value", "hessian", "payoff")), "s")
    for kind in ("call", "digital", "power"):
        m[f"pricing.factor.{kind}.self_s"] = (own[f"pricing.factor.{kind}"],
                                              "s")

    delivered = count["hedging.estimate_l2_error"]
    rebalances = workload.rebalances()
    m["hedging.points"] = (calls["hedging.estimate_l2_error"], "count")
    m["hedging.delivered_path_steps"] = (delivered, "count")
    m["hedging.self_s"] = (layer_self("hedging."), "s")
    m["hedging.draws_per_delivered_step"] = (
        _rate(count_under("rng.normals", "hedging."), delivered), "ratio")
    m["hedging.gradient_rows_per_rebalance"] = (
        _rate(count_under("pricing.gradient", "hedging."), rebalances),
        "ratio")

    theta_rows = 0
    theta_csv = Path(out_dir) / "theta_fit.csv"
    if theta_csv.exists():
        theta_rows = (len(theta_csv.read_text().splitlines()) - 1) \
            * workload.config["analysis"]["theta_N"]
    m["analysis.theta.self_s"] = (
        own["analysis.estimate_theta"] + own["analysis.theta_grid_table"],
        "s")
    m["analysis.theta.hessian_rows_per_output_row"] = (
        _rate(count_under("pricing.hessian", "analysis."), theta_rows),
        "ratio")
    m["analysis.fit_rate.self_s"] = (own["analysis.fit_rate"], "s")
    m["analysis.slope_ci95_width"] = (_ci95_width(out_dir), "1")

    m["timenets.self_s"] = (layer_self("timenets."), "s")
    m["cli.self_s"] = (own["cli.main"], "s")
    return m


def _ci95_width(out_dir) -> float:
    """Widest slope CI of a rate sweep, or the CI width of theta_hat."""
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    if "families" in summary:
        return max(f["ci95_slope"][1] - f["ci95_slope"][0]
                   for f in summary["families"])
    if "ci95" in summary:
        return summary["ci95"][1] - summary["ci95"][0]
    return 0.0


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( +)(\S+)$")


def import_split(log: str) -> dict:
    """Import time of each hedgenet module from ``python -X importtime``.

    Every imported module's own time goes to its nearest hedgenet module
    (itself, or the hedgenet module whose import pulled it in), so scipy.stats
    counts under analysis. The parts sum to the import of hedgenet.cli.
    """
    rows = []
    for line in log.splitlines():
        mt = _IMPORT_LINE.match(line)
        if mt:
            rows.append((len(mt.group(3)) // 2, mt.group(4),
                         int(mt.group(1)) * 1e-6))
    owner_at = {}
    split = dict.fromkeys(IMPORT_MODULES, 0.0)
    # importtime prints a module after everything it imported; walk backwards
    # so that each module is seen before its imports
    for depth, name, self_s in reversed(rows):
        if name == "hedgenet" or name.startswith("hedgenet."):
            owner = "init" if name == "hedgenet" else name.split(".")[1]
        else:
            owner = owner_at.get(depth - 1)
        owner_at[depth] = owner
        if owner in split:
            split[owner] += self_s
    return {f"cli.import.{k}_s": (v, "s") for k, v in split.items()}
