"""The benchmark's per-layer trace still sees every draw and every step.

perfbench/tracer.py wraps ``normals`` and ``exact_step`` where the engine
looks them up, by module attribute. If the path stream stopped looking them
up there, the ``rng.normals`` and ``models.step`` layers of a traced run
would read 0 without any error. The ``pricing.factor.power`` spans and the
``pricing.gradient`` / ``pricing.hessian`` row counts are what the benchmark
attributes the power-factor table's cost by. These tests run
perfbench/child.py with ``--trace`` on tiny configs and count the spans.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"

GBM = {"case": "C2", "d": 2, "s": [1.0, 1.0], "x0": [1.0, 1.0]}


def traced_spans(tmp_path, command, cfg):
    """The spans of one traced CLI run."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HEDGENET_SEED", None)
    subprocess.run(
        [sys.executable, str(CHILD), str(result), "--trace", str(spans),
         "--", command, "--config", str(cfg_path), "--out",
         str(tmp_path / "out")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert json.loads(result.read_text())["rc"] == 0
    return json.loads(spans.read_text())


def traced_counts(tmp_path, command, cfg):
    """(work count, span count) per span name of one traced CLI run."""
    work, calls = Counter(), Counter()
    for s in traced_spans(tmp_path, command, cfg):
        work[s["name"]] += s["count"]
        calls[s["name"]] += 1
    return work, calls


def test_rate_sweep_draws_once_per_union_step(tmp_path):
    N, d, steps = 256, 2, 64  # n = 8 ... 64 equidistant: union grid of 64
    cfg = {
        "model": GBM,
        "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
            {"kind": "call", "K": 1.0}, {"kind": "digital", "K": 1.0},
        ]}},
        "nets": {"families": [{"family": "equidistant"}],
                 "n_list": [8, 16, 32, 64]},
        "engine": {"N": N, "master_seed": 3},
    }
    work, calls = traced_counts(tmp_path, "rate", cfg)
    assert calls["rng.normals"] == calls["models.step"] == steps
    assert work["rng.normals"] == N * steps * d
    assert work["models.step"] == N * steps


def test_two_family_rate_draws_each_step_index_once(tmp_path):
    # running sup on M = n monitoring points: the equidistant family's
    # union grid is the 64 steps of n = 64, the eta family's is those 64
    # uniform steps merged with its own knots, 126 steps. The two streams
    # run in lockstep and draw the normals of a step index once.
    N, d, eq_steps, eta_steps = 256, 2, 64, 126
    cfg = {
        "model": GBM,
        "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
            {"kind": "call", "K": 1.0}, {"kind": "digital", "K": 1.0},
        ]}},
        "nets": {"families": [{"family": "equidistant"},
                              {"family": "eta", "eta": 0.75}],
                 "n_list": [8, 16, 32, 64]},
        "engine": {"N": N, "master_seed": 3, "mode": "running_sup",
                   "monitor_factor": 1},
    }
    work, calls = traced_counts(tmp_path, "rate", cfg)
    assert calls["rng.normals"] == eta_steps
    assert work["rng.normals"] == N * eta_steps * d
    assert calls["models.step"] == eq_steps + eta_steps
    assert work["models.step"] == N * (eq_steps + eta_steps)


def test_simulate_sweep_draws_once_per_union_step(tmp_path):
    # mode both: every net is hedged on its M = 4n monitoring grid, and
    # n = 4, 8, 16 nest, so the union grid is the 64 steps of n = 16. Two
    # batches, so the draws are made in the worker threads.
    N, d, steps = 16384 + 64, 2, 64
    cfg = {
        "model": GBM,
        "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
            {"kind": "call", "K": 1.0}, {"kind": "digital", "K": 1.0},
        ]}},
        "nets": {"families": [{"family": "equidistant"}],
                 "n_list": [4, 8, 16]},
        "engine": {"N": N, "master_seed": 3, "mode": "both",
                   "monitor_factor": 4, "workers": 2},
    }
    spans = traced_spans(tmp_path, "simulate", cfg)
    by_id = {s["id"]: s for s in spans}

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s["name"]

    draws = [s for s in spans if s["name"] == "rng.normals"]
    assert sum(s["count"] for s in draws) == N * steps * d
    assert all("hedging.error_curve" in ancestors(s) for s in draws)


def test_theta_scan_draws_one_step_per_grid_time(tmp_path):
    N, points = 2000, 5
    cfg = {
        "model": dict(GBM, d=1, s=[1.0], x0=[1.0]),
        "payoff": {"key": "digital", "params": {"K": 1.0}, "T": 1.0},
        "analysis": {"theta_points": points, "theta_N": N},
        "engine": {"master_seed": 3},
    }
    # every grid time is one step from x0 made from the same step-0 draw
    work, calls = traced_counts(tmp_path, "theta", cfg)
    assert calls["rng.normals"] == 1
    assert work["rng.normals"] == N
    assert calls["models.step"] == points
    assert work["models.step"] == N * points


POWER = {"kind": "power", "K": 1.0, "alpha": 0.25}


def test_power_factor_rate_sweep_attribution(tmp_path):
    N, steps = 4096, 64  # n = 8 ... 64 equidistant: union grid of 64
    cfg = {
        "model": dict(GBM, d=3, s=[1.0] * 3, x0=[1.0] * 3),
        "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
            {"kind": "call", "K": 1.0}, POWER, {"kind": "digital", "K": 1.0},
        ]}},
        "nets": {"families": [{"family": "equidistant"}],
                 "n_list": [8, 16, 32, 64]},
        "engine": {"N": N, "master_seed": 3},
    }
    work, calls = traced_counts(tmp_path, "rate", cfg)
    # one row at x0 at t = 0, then the batch at every interior union time
    assert work["pricing.gradient"] == 1 + N * (steps - 1)
    assert calls["pricing.factor.power"] == calls["pricing.factor.call"] > 0
    assert calls["pricing.factor.power"] == (calls["pricing.value"]
                                             + calls["pricing.gradient"])


def test_power_theta_scan_attribution(tmp_path):
    N, points = 4096, 5
    cfg = {
        "model": dict(GBM, d=1, s=[1.0], x0=[1.0]),
        "payoff": {"key": "power", "params": {"K": 1.0, "alpha": 0.25},
                   "T": 1.0},
        "analysis": {"theta_points": points, "theta_N": N},
        "engine": {"master_seed": 3},
    }
    work, calls = traced_counts(tmp_path, "theta", cfg)
    assert work["pricing.hessian"] == N * points
    assert calls["pricing.factor.power"] == calls["pricing.hessian"] == points
