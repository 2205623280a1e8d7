"""Command-line experiment runner.

Subcommands: net (emit a time-net CSV), rate (net-family sweep + rate fit),
theta (blow-up exponent scan), h2 (error-density curve), simulate (raw error
estimates), report (aggregate a directory of runs). Experiments are described
by a single JSON config; all defaults are materialized into the run manifest
so every run is self-describing and byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    choose_eta,
    default_theta_grid,
    estimate_h2,
    estimate_theta,
    fit_rate,
    theta_grid_table,
)
from .hedging import (
    HedgeExperiment,
    error_curve,
    estimate_sweep,
    family_nets,
    path_error,
)
from .models import bm_constant, gbm_diagonal
from .pricing import make_pricing
from .rng import SeedSpec
from .timenets import EtaNetParams, eta_net, refine

__all__ = ["main", "load_config", "config_hash", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "model": {
        "case": "C2",
        "d": 1,
        "s": [1.0],
        "mu": None,
        "x0": [1.0],
        "corr": None,
        "sigma": None,  # case C1 constant matrix; identity if null
        "drift": None,  # case C1 constant drift
    },
    "payoff": {"key": "digital", "params": {}, "T": 1.0},
    "nets": {
        "families": [
            {"family": "equidistant"},
            {"family": "eta", "eta": "auto"},
        ],
        "n_list": [8, 16, 32, 64, 128, 256, 512],
    },
    "engine": {
        "N": 100000,
        "monitor_factor": 32,
        "master_seed": 20260823,
        "mode": "terminal",
        "scheme": "exact",
        "workers": 1,
    },
    "analysis": {
        "theta_points": 20,
        "theta_N": 50000,
        "u_grid": None,  # defaults to 9 points across [0.1 T, 0.9 T]
    },
    "output": {"directory": ".", "formats": ["csv", "json"]},
}


class UsageError(Exception):
    """Invalid arguments or config; exit code 2."""


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def load_config(path) -> dict:
    """Parse a JSON config, materialize defaults, apply the env seed override."""
    try:
        with open(path) as f:
            user = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}")
    if not isinstance(user, dict):
        raise UsageError("config root must be a JSON object")
    for key in user:
        if key not in DEFAULT_CONFIG:
            raise UsageError(f"unknown config block {key!r}")
    cfg = _deep_merge(DEFAULT_CONFIG, user)
    env_seed = os.environ.get("HEDGENET_SEED")
    if env_seed is not None:
        try:
            cfg["engine"]["master_seed"] = int(env_seed)
        except ValueError:
            raise UsageError("HEDGENET_SEED must be an integer")
    return cfg


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical (sorted-keys) JSON; key order never matters."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_spec(cfg: dict):
    m = cfg["model"]
    if m["case"] == "C2":
        return gbm_diagonal(
            d=m["d"], s=np.asarray(m["s"], dtype=float), x0=m["x0"],
            mu=m["mu"], corr=m["corr"],
        )
    if m["case"] == "C1":
        sigma = np.eye(m["d"]) if m["sigma"] is None else np.asarray(m["sigma"])
        return bm_constant(sigma=sigma, x0=m["x0"], drift=m["drift"],
                           corr=m["corr"])
    raise UsageError(f"unknown model case {m['case']!r}")


def build_pricing(cfg: dict):
    """Payoff from the catalogue, with factor vols defaulted from the model."""
    m, p = cfg["model"], cfg["payoff"]
    params = copy.deepcopy(p["params"])
    key = p["key"]
    s = list(np.broadcast_to(np.asarray(m["s"], dtype=float), (m["d"],)))
    if key in ("call", "digital", "power"):
        params.setdefault("s", s[0])
    elif key == "product":
        for i, f in enumerate(params.get("factors", [])):
            f.setdefault("s", s[i])
    elif key == "sum_digital_2d":
        params.setdefault("s", s)
    elif key == "bm_quadratic":
        params.setdefault("d", m["d"])
    try:
        return make_pricing(key, params, p["T"])
    except (KeyError, ValueError) as e:
        raise UsageError(f"invalid payoff block: {e}")


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(
                ",".join(c if isinstance(c, str) else _fmt(c) for c in row)
                + "\n"
            )


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _manifest(outdir: Path, cfg, outputs, wall_ms):
    _write_json(
        outdir / "manifest.json",
        {
            "config": cfg,
            "config_sha256": config_hash(cfg),
            "version": __version__,
            "wall_ms": wall_ms,
            "outputs": sorted(outputs),
        },
    )


def _resolve_families(cfg, spec, pricing):
    """[(name, eta)] with 'auto' eta resolved from the hint or a theta scan."""
    out = []
    for fam in cfg["nets"]["families"]:
        name = fam.get("family")
        if name == "equidistant":
            out.append(("equidistant", 0.0))
        elif name == "eta":
            eta = fam.get("eta", "auto")
            if eta == "auto":
                hint = getattr(pricing, "theta_hint", None)
                if hint is None:
                    hint = estimate_theta(
                        spec, pricing, n_paths=50000,
                        master_seed=cfg["engine"]["master_seed"],
                    ).theta_hat
                eta = choose_eta(min(max(hint, 0.0), 1.0 - 1e-9))
            eta = float(eta)
            if not (0.0 <= eta < 1.0):
                raise UsageError("eta must be in [0, 1)")
            out.append(("eta", eta))
        else:
            raise UsageError(f"unknown net family {name!r}")
    if not out:
        raise UsageError("config lists no net families")
    return out


def _engine_mode(cfg, allowed) -> str:
    mode = cfg["engine"]["mode"]
    if mode not in allowed:
        raise UsageError(f"engine.mode must be one of {', '.join(allowed)} "
                         f"for this command, not {mode!r}")
    return mode


def _family_nets(cfg, pricing, families):
    """{eta: [net for each n]}, one entry per distinct net family.

    Every net is built here, before any path is simulated, so an
    unrepresentable net fails the run up front. The equidistant family is
    eta = 0, so an eta family that resolves to 0 shares its entry.
    """
    out = {}
    try:
        for _, eta in families:
            if eta not in out:
                out[eta] = family_nets(pricing.T, cfg["nets"]["n_list"], eta)
    except (TypeError, ValueError) as e:
        raise UsageError(f"invalid nets block: {e}")
    return out


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_net(args) -> int:
    if not (0.0 <= args.eta < 1.0):
        raise UsageError("eta must be < 1 (and >= 0)")
    if args.n < 1:
        raise UsageError("n must be >= 1")
    if args.T <= 0.0:
        raise UsageError("T must be positive")
    net = eta_net(EtaNetParams(horizon=args.T, n=args.n, eta=args.eta))
    net.to_csv(args.out)
    dt = net.spacings()
    print(
        f"wrote {args.out}: n={args.n} eta={args.eta:g} "
        f"min_dt={dt.min():.6g} max_dt={dt.max():.6g}"
    )
    return 0


def cmd_rate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    if args.workers is not None:
        cfg["engine"]["workers"] = args.workers
    spec = build_spec(cfg)
    pricing = build_pricing(cfg)
    eng = cfg["engine"]
    # one rate fit per family, so one mode
    mode = _engine_mode(cfg, ("terminal", "running_sup"))
    families = _resolve_families(cfg, spec, pricing)
    _family_nets(cfg, pricing, families)
    outdir = _outdir(args)
    rows = []
    summaries = []
    curves = {}
    for name, eta in families:
        if eta not in curves:
            points = error_curve(
                spec, pricing, cfg["nets"]["n_list"], eta, eng["N"],
                eng["master_seed"], error_mode=mode,
                scheme=eng["scheme"], workers=eng["workers"],
                monitor_factor=eng["monitor_factor"],
            )
            curves[eta] = (points, fit_rate(
                [(p.n, p.estimate.rms) for p in points],
                jackknife=[p.estimate.jackknife_rms() for p in points],
            ))
        points, fit = curves[eta]
        for p in points:
            rows.append(
                (p.n, p.estimate.rms, p.estimate.stderr_rms, name, eta)
            )
        summaries.append(
            {
                "family": name,
                "eta": eta,
                "slope": fit.slope,
                "ci95_slope": list(fit.ci95_slope),
                "intercept": fit.intercept,
                "r2": fit.r2,
            }
        )
        print(f"{name} (eta={eta:g}): slope {fit.slope:+.4f} "
              f"ci95 [{fit.ci95_slope[0]:+.4f}, {fit.ci95_slope[1]:+.4f}]")
    _write_csv(outdir / "rate_fit.csv",
               ["n", "rms", "stderr", "family", "eta"], rows)
    summary = {"command": "rate", "payoff": cfg["payoff"]["key"],
               "families": summaries}
    _write_json(outdir / "summary.json", summary)
    wall = int((time.perf_counter() - t0) * 1000)
    _manifest(outdir, cfg, ["rate_fit.csv", "summary.json"], wall)
    return 0


def cmd_theta(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    spec = build_spec(cfg)
    pricing = build_pricing(cfg)
    outdir = _outdir(args)
    T = pricing.T
    grid = default_theta_grid(T, cfg["analysis"]["theta_points"])
    n_paths = cfg["analysis"]["theta_N"]
    seed = cfg["engine"]["master_seed"]
    fit = estimate_theta(spec, pricing, grid, n_paths, seed)
    eta = choose_eta(min(max(fit.theta_hat, 0.0), 1.0 - 1e-9))
    _write_csv(outdir / "theta_fit.csv", ["t", "m_t", "stderr"],
               theta_grid_table(fit))
    summary = {
        "command": "theta",
        "payoff": cfg["payoff"]["key"],
        "theta_hat": fit.theta_hat,
        "ci95": list(fit.ci95),
        "r2": fit.r2,
        "eta_chosen": eta,
    }
    _write_json(outdir / "summary.json", summary)
    wall = int((time.perf_counter() - t0) * 1000)
    _manifest(outdir, cfg, ["theta_fit.csv", "summary.json"], wall)
    print(f"theta_hat = {fit.theta_hat:.4f}  eta = {eta:.4f}")
    return 0


def cmd_h2(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    spec = build_spec(cfg)
    pricing = build_pricing(cfg)
    outdir = _outdir(args)
    T = pricing.T
    u_grid = cfg["analysis"]["u_grid"]
    if u_grid is None:
        u_grid = list(np.linspace(0.1 * T, 0.9 * T, 9))
    curve = estimate_h2(
        spec, pricing, u_grid, cfg["analysis"]["theta_N"],
        cfg["engine"]["master_seed"],
    )
    _write_csv(outdir / "h2_curve.csv", ["u", "h2", "stderr"], curve.points)
    h2_min, se_min = curve.infimum()
    summary = {
        "command": "h2",
        "payoff": cfg["payoff"]["key"],
        "h2_inf": h2_min,
        "h2_inf_stderr": se_min,
        "positive_3se": bool(h2_min - 3.0 * se_min > 0.0),
    }
    _write_json(outdir / "summary.json", summary)
    wall = int((time.perf_counter() - t0) * 1000)
    _manifest(outdir, cfg, ["h2_curve.csv", "summary.json"], wall)
    print(f"inf H^2 = {h2_min:.5g} (stderr {se_min:.2g})")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    if args.workers is not None:
        cfg["engine"]["workers"] = args.workers
    spec = build_spec(cfg)
    pricing = build_pricing(cfg)
    eng = cfg["engine"]
    _engine_mode(cfg, ("terminal", "running_sup", "both"))
    families = _resolve_families(cfg, spec, pricing)
    nets = _family_nets(cfg, pricing, families)
    outdir = _outdir(args)
    rows = []
    outputs = ["experiments.csv", "summary.json"]
    sweeps = {}
    for name, eta in families:
        if eta not in sweeps:
            exps = [
                HedgeExperiment(
                    spec=spec, pricing=pricing, net=net, n_paths=eng["N"],
                    master_seed=eng["master_seed"], error_mode=eng["mode"],
                    monitor_points=(
                        eng["monitor_factor"] * net.n_intervals
                        if eng["mode"] != "terminal" else None
                    ),
                    scheme=eng["scheme"],
                )
                for net in nets[eta]
            ]
            te0 = time.perf_counter()
            ests = estimate_sweep(exps, workers=eng["workers"])
            wall_ms = int((time.perf_counter() - te0) * 1000)
            sweeps[eta] = (exps, ests, wall_ms)
        exps, ests, wall_ms = sweeps[eta]
        for exp, est in zip(exps, ests):
            n = exp.net.n_intervals
            M = exp.monitor_points
            for mode, e in est.items():
                rows.append(
                    (name, eta, n, M if M is not None else n,
                     eng["N"], mode, e.mean_sq, e.rms, e.stderr_mean_sq,
                     eng["master_seed"], wall_ms)
                )
    _write_csv(
        outdir / "experiments.csv",
        ["family", "eta", "n", "M", "N", "mode", "mean_sq", "rms",
         "stderr", "seed", "wall_ms"],
        [
            (r[0], r[1], str(r[2]), str(r[3]), str(r[4]), r[5],
             r[6], r[7], r[8], str(r[9]), str(r[10]))
            for r in rows
        ],
    )
    if args.dump_paths:
        net = nets[families[0][1]][0]
        grid = refine(net, eng["monitor_factor"] * net.n_intervals)
        prows = []
        for i in range(min(args.dump_paths, eng["N"])):
            term, sup = path_error(
                spec, pricing, net, grid,
                SeedSpec(eng["master_seed"], i), eng["scheme"],
            )
            prows.append((str(i), term, sup))
        _write_csv(outdir / "path_errors.csv",
                   ["path", "terminal_error", "sup_abs_error"], prows)
        outputs.append("path_errors.csv")
    summary = {"command": "simulate", "payoff": cfg["payoff"]["key"],
               "experiments": len(rows)}
    _write_json(outdir / "summary.json", summary)
    wall = int((time.perf_counter() - t0) * 1000)
    _manifest(outdir, cfg, outputs, wall)
    return 0


def cmd_report(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise UsageError(f"{root} is not a directory")
    summaries = sorted(root.glob("**/summary.json"))
    if not summaries:
        print(f"error: no run summaries found under {root}", file=sys.stderr)
        return 1
    table = []
    flags = []
    failed = []
    for s in summaries:
        try:
            with open(s) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            failed.append(f"{s}: {e}")
            continue
        run = str(s.parent.relative_to(root)) or "."
        cmd = data.get("command", "?")
        payoff = data.get("payoff", "?")
        if cmd == "rate":
            for fam in data.get("families", []):
                table.append(
                    (run, payoff, fam["family"], f"{fam['eta']:.3g}",
                     f"{fam['slope']:+.4f}",
                     f"[{fam['ci95_slope'][0]:+.3f},{fam['ci95_slope'][1]:+.3f}]")
                )
        elif cmd == "theta":
            th = data["theta_hat"]
            table.append((run, payoff, "theta", "-", f"{th:.4f}",
                          f"eta={data['eta_chosen']:.3g}"))
            if th >= 1.0:
                flags.append(f"{run}: theta_hat = {th:.3f} >= 1 "
                             "(blow-up assumption violated)")
        elif cmd == "h2":
            ok = data.get("positive_3se", False)
            table.append((run, payoff, "h2", "-", f"{data['h2_inf']:.5g}",
                          "positive" if ok else "NOT positive"))
            if not ok:
                flags.append(f"{run}: H^2 infimum not positive at 3 stderr")
        else:
            table.append((run, payoff, cmd, "-", "-", "-"))
    if failed:
        for line in failed:
            print(f"error: unreadable summary {line}", file=sys.stderr)
        return 1
    header = ("run", "payoff", "family", "eta", "estimate", "detail")
    widths = [max(len(str(r[i])) for r in table + [header]) for i in range(6)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in table:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    if flags:
        lines.append("")
        lines.append("assumption flags:")
        lines += [f"  - {f}" for f in flags]
    text = "\n".join(lines) + "\n"
    (root / "report.txt").write_text(text)
    _write_csv(root / "report.csv", list(header),
               [tuple(str(c) for c in r) for r in table])
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hedgenet",
        description="discrete-hedging error experiments on deterministic "
                    "time-nets",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("net", help="write a time-net knot CSV")
    pn.add_argument("--T", type=float, required=True)
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--eta", type=float, default=0.0)
    pn.add_argument("--out", required=True)
    pn.set_defaults(func=cmd_net)

    for name, fn, help_ in (
        ("rate", cmd_rate, "net-family sweep with a log-log rate fit"),
        ("theta", cmd_theta, "estimate the curvature blow-up exponent"),
        ("h2", cmd_h2, "estimate the error-density curve H^2(u)"),
        ("simulate", cmd_simulate, "raw error estimates per family and n"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        if name in ("rate", "simulate"):
            sp.add_argument("--workers", type=int, default=None)
        if name == "simulate":
            sp.add_argument("--dump-paths", type=int, default=0)
        sp.set_defaults(func=fn)

    pr = sub.add_parser("report", help="aggregate run summaries in a directory")
    pr.add_argument("--dir", required=True)
    pr.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize others
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failures (I/O, quadrature, ...)
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
