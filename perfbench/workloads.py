"""The four benchmark workloads: their CLI configs and their output checks.

Every workload is one ``hedgenet`` CLI command on driftless geometric
Brownian motion with s = 1, x0 = 1, T = 1 and strike K = 1. The benchmark
seed becomes the config's ``master_seed``; nothing else depends on it.

The checks come from the theory the program implements, or from a
computation the benchmark makes itself. None compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GBM1 = {"case": "C2", "d": 1, "s": [1.0], "x0": [1.0]}
GBM3 = {"case": "C2", "d": 3, "s": [1.0, 1.0, 1.0], "x0": [1.0, 1.0, 1.0]}

#: one hedging batch; call_sup uses two so that its thread pool runs
BATCH = 16384

#: data artifacts per command; manifest.json is left out (it holds wall_ms)
ARTIFACTS = {
    "rate": ("rate_fit.csv", "summary.json"),
    "simulate": ("experiments.csv", "summary.json"),
    "theta": ("theta_fit.csv", "summary.json"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hedgenet subcommand
    config: dict  # without the seed
    workers: int | None  # --workers flag, for rate and simulate

    def make_config(self, seed: int) -> dict:
        cfg = json.loads(json.dumps(self.config))
        cfg.setdefault("engine", {})["master_seed"] = int(seed)
        return cfg

    def cli_args(self, config_path, out_dir) -> list[str]:
        args = [self.command, "--config", str(config_path), "--out",
                str(out_dir)]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        return args

    def delivered_path_steps(self) -> int:
        """Path-steps the outputs describe, whatever the engine simulates.

        Sweeps: sum over families and n of N x grid steps, where the grid
        is the net (terminal mode) or the M = monitor_factor x n monitoring
        grid (running-sup modes). Theta scan: theta_N x grid times.
        """
        cfg = self.config
        if self.command == "theta":
            a = cfg["analysis"]
            return a["theta_N"] * a["theta_points"]
        eng = cfg["engine"]
        per_n = eng.get("monitor_factor", 1) if eng.get("mode", "terminal") \
            != "terminal" else 1
        families = len(cfg["nets"]["families"])
        return eng["N"] * families * per_n * sum(cfg["nets"]["n_list"])

    def rebalances(self) -> int:
        """Hedge positions taken: N x n per family and n (0 for theta)."""
        if self.command == "theta":
            return 0
        cfg = self.config
        return cfg["engine"]["N"] * len(cfg["nets"]["families"]) \
            * sum(cfg["nets"]["n_list"])

    def resized(self, n_paths: int, n_list=None) -> "Workload":
        """The same workload at another path count (and n list)."""
        cfg = json.loads(json.dumps(self.config))
        if self.command == "theta":
            cfg["analysis"]["theta_N"] = n_paths
        else:
            cfg["engine"]["N"] = n_paths
            if n_list is not None:
                cfg["nets"]["n_list"] = list(n_list)
        return Workload(self.name, self.command, cfg, self.workers)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "digital_rate", "rate",
            {
                "model": GBM1,
                "payoff": {"key": "digital", "params": {"K": 1.0}, "T": 1.0},
                "nets": {
                    "families": [{"family": "equidistant"},
                                 {"family": "eta", "eta": "auto"}],
                    "n_list": [8, 16, 32, 64, 128, 256, 512],
                },
                "engine": {"N": BATCH},
            },
            workers=1,
        ),
        Workload(
            "product3_rate", "rate",
            {
                "model": GBM3,
                "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
                    {"kind": "call", "K": 1.0},
                    {"kind": "power", "K": 1.0, "alpha": 0.25},
                    {"kind": "digital", "K": 1.0},
                ]}},
                "nets": {
                    "families": [{"family": "eta", "eta": 0.75},
                                 {"family": "equidistant"}],
                    "n_list": [8, 16, 32, 64, 128],
                },
                "engine": {"N": BATCH},
            },
            workers=1,
        ),
        Workload(
            "call_sup", "simulate",
            {
                "model": GBM1,
                "payoff": {"key": "call", "params": {"K": 1.0}, "T": 1.0},
                "nets": {"families": [{"family": "equidistant"}],
                         "n_list": [4, 16, 64]},
                "engine": {"N": 2 * BATCH, "mode": "both",
                           "monitor_factor": 32},
            },
            workers=2,
        ),
        Workload(
            "power_theta", "theta",
            {
                "model": GBM1,
                "payoff": {"key": "power", "params": {"K": 1.0, "alpha": 0.25},
                           "T": 1.0},
                "analysis": {"theta_points": 20, "theta_N": 100000},
            },
            workers=None,
        ),
    )
}


# ---------------------------------------------------------------------------
# reading the artifacts
# ---------------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def artifact_bytes(workload: Workload, out_dir) -> dict[str, bytes]:
    """The data artifacts, normalised for a byte comparison between runs.

    experiments.csv carries a per-row wall_ms column; that column is
    dropped, every other byte is kept.
    """
    out = {}
    for name in ARTIFACTS[workload.command]:
        data = (Path(out_dir) / name).read_bytes()
        if name == "experiments.csv":
            lines = data.decode().splitlines()
            col = lines[0].split(",").index("wall_ms")
            data = "\n".join(
                ",".join(c for i, c in enumerate(line.split(",")) if i != col)
                for line in lines
            ).encode()
        out[name] = data
    return out


# ---------------------------------------------------------------------------
# checks: each returns [(name, ok, detail)]
# ---------------------------------------------------------------------------

def _loglog_slope(xs, ys) -> float:
    """OLS slope of log y on log x, computed apart from the program."""
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _slope_sigma(pts) -> float:
    """MC standard error of the log-log slope, by the delta method.

    Each point's log rms has standard error stderr / rms. The points are
    treated as independent, although every n reuses the same seed; over
    seeds 1 to 8 at N = 16384 this sigma (about 0.03 for product3_rate's
    eta slope) matched the slope's observed scatter.
    """
    lx = np.log([p[0] for p in pts])
    w = (lx - lx.mean()) / float(((lx - lx.mean()) ** 2).sum())
    rel = np.array([p[2] / p[1] for p in pts])
    return float(math.sqrt((w * w * rel * rel).sum()))


def _rate_checks(out_dir, windows, eta_expected):
    """Refit each family's slope from rate_fit.csv and check its window.

    A window is an acceptance criterion's (fixed there for N = 1e5 to 2e5
    paths), widened by 3 MC standard errors of the slope at this run's N.
    """
    rows = read_csv(Path(out_dir) / "rate_fit.csv")
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    results = []
    for fam in summary["families"]:
        name = fam["family"]
        pts = [(int(r["n"]), float(r["rms"]), float(r["stderr"]))
               for r in rows if r["family"] == name and int(r["n"]) >= 8]
        refit = _loglog_slope([p[0] for p in pts], [p[1] for p in pts])
        results.append((
            f"{name}.refit", len(pts) >= 4 and abs(refit - fam["slope"]) <= 1e-9,
            f"summary slope {fam['slope']:+.6f}, refit {refit:+.6f}",
        ))
        if name in windows:
            slack = 3.0 * _slope_sigma(pts)
            lo, hi = windows[name][0] - slack, windows[name][1] + slack
            results.append((
                f"{name}.slope_window", lo <= fam["slope"] <= hi,
                f"slope {fam['slope']:+.4f} in [{lo:+.4f}, {hi:+.4f}]",
            ))
        if name == "eta" and eta_expected is not None:
            results.append((
                "eta.resolved", fam["eta"] == eta_expected,
                f"eta {fam['eta']} == {eta_expected}",
            ))
    return results


def check_digital_rate(out_dir):
    # criteria 02 and 03: equidistant n^(-1/4), eta-net n^(-1/2); a digital
    # has theta = 3/4 >= 1/2, so the auto rule picks eta = theta = 0.75
    return _rate_checks(
        out_dir, {"equidistant": (-0.31, -0.19), "eta": (-0.56, -0.44)},
        eta_expected=0.75,
    )


def check_product3_rate(out_dir):
    # criterion 05: the eta = 0.75 net restores n^(-1/2); the equidistant
    # slope is informational there and is only refitted here
    return _rate_checks(out_dir, {"eta": (-0.58, -0.42)}, eta_expected=0.75)


def call_curvature_moment(t, K=1.0, T=1.0):
    """m(t) = E[(X_t^2 d2F/dx2)^2] for the unit-vol call (criterion 07)."""
    return K / (2.0 * math.pi * math.sqrt(T * T - t * t)) * math.exp(
        -(T / 2.0 + math.log(K)) ** 2 / (T + t)
    )


@functools.cache
def predicted_call_error(n, T=1.0):
    """Leading-order E[err^2] = sum_i int_{t_{i-1}}^{t_i} (t_i - r) m(r) dr."""
    from scipy.integrate import quad

    total = 0.0
    for i in range(1, n + 1):
        a, b = T * (i - 1) / n, T * i / n
        val, _ = quad(lambda r: (b - r) * call_curvature_moment(r, T=T), a, b,
                      limit=200)
        total += val
    return total


def check_call_sup(out_dir):
    rows = read_csv(Path(out_dir) / "experiments.csv")
    by = {(int(r["n"]), r["mode"]): r for r in rows}
    ns = sorted({n for n, _ in by})
    results = [("rows", len(rows) == 2 * len(ns) and all(
        (n, m) in by for n in ns for m in ("terminal", "running_sup")),
        f"{len(rows)} rows for n in {ns}")]
    for n in ns:
        term, sup = by[(n, "terminal")], by[(n, "running_sup")]
        tm, ts = float(term["mean_sq"]), float(term["stderr"])
        sm, ss = float(sup["mean_sq"]), float(sup["stderr"])
        # Doob: E[sup^2] / E[term^2] in [1, 4], with criterion 09's MC slack
        noise = ts / tm + ss / sm
        ratio = sm / tm
        results.append((
            f"doob.n{n}", 1.0 <= ratio <= 4.0 * (1.0 + 5.0 * noise),
            f"E[sup^2]/E[term^2] = {ratio:.4f}",
        ))
    n = ns[-1]
    mc = float(by[(n, "terminal")]["mean_sq"])
    se = float(by[(n, "terminal")]["stderr"])
    pred = predicted_call_error(n)
    # 4 MC standard errors plus 3% for the terms beyond leading order
    # (about 1.4% at n = 64)
    tol = 4.0 * se + 0.03 * pred
    results.append((
        f"leading_order.n{n}", abs(mc - pred) <= tol,
        f"E[err^2] {mc:.6g} vs predicted {pred:.6g} (tol {tol:.2g})",
    ))
    return results


def check_power_theta(out_dir):
    rows = read_csv(Path(out_dir) / "theta_fit.csv")
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    th = summary["theta_hat"]
    # log m(t) ~ c - 2 theta log(T - t), refitted from the exported grid
    t = np.array([float(r["t"]) for r in rows])
    m = np.array([float(r["m_t"]) for r in rows])
    refit = -_loglog_slope(1.0 - t, m) / 2.0
    return [
        ("refit", abs(refit - th) <= 1e-9,
         f"theta_hat {th:.6f}, refit {refit:.6f}"),
        # criterion 06 window around (3 - 2 alpha) / 4 = 0.625
        ("theta_window", 0.52 <= th <= 0.72, f"theta_hat {th:.4f}"),
        # theta >= 1/2 gives eta = theta
        ("eta_rule", summary["eta_chosen"] == th,
         f"eta {summary['eta_chosen']:.6f}"),
    ]


CHECKS = {
    "digital_rate": check_digital_rate,
    "product3_rate": check_product3_rate,
    "call_sup": check_call_sup,
    "power_theta": check_power_theta,
}
