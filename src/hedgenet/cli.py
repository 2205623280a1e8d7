"""Command-line experiment runner.

Subcommands: net (emit a time-net CSV), rate (net-family sweep + rate fit),
theta (blow-up exponent scan), h2 (error-density curve), simulate (raw error
estimates), report (aggregate a directory of runs). Experiments are described
by a single JSON config; all defaults are materialized into the run manifest
so every run is self-describing and byte-reproducible for a fixed seed.
Exit code 2 is any ArgumentError, from a config check here or from a library
function's own checks before work; every other failure exits 1.
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
    check_dates,
    check_rate_ns,
    choose_eta,
    default_theta_grid,
    estimate_h2,
    estimate_theta,
    fit_rate,
    theta_grid_table,
)
from .hedging import M_FACTOR, error_curve, path_error
from .models import bm_constant, gbm_diagonal
from .pricing import make_pricing
from .rng import ArgumentError, SeedSpec, check_count, check_seed
from .timenets import eta_net

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
        "monitor_factor": M_FACTOR,
        "master_seed": 20260823,
        "mode": "terminal",
        "workers": 1,
    },
    "analysis": {
        "theta_points": 20,
        "theta_N": 50000,
        "u_grid": None,  # defaults to 9 points across [0.1 T, 0.9 T]
    },
}


def _fmt(v) -> str:
    return "%.17g" % float(v)


def load_config(path) -> dict:
    """Parse a JSON config, materialize defaults, apply the env seed override,
    then check the blocks' keys, the seed and that nets.n_list is a list."""
    try:
        with open(path) as f:
            user = json.load(f)
    except OSError as e:
        raise ArgumentError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ArgumentError(f"config {path} is not valid JSON: {e}")
    if not isinstance(user, dict):
        raise ArgumentError("config root must be a JSON object")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for block, body in user.items():
        if block not in DEFAULT_CONFIG:
            raise ArgumentError(f"unknown config block {block!r}")
        if not isinstance(body, dict):
            raise ArgumentError(f"config block {block!r} must be a JSON "
                                "object")
        for key in body:
            if key not in DEFAULT_CONFIG[block]:
                raise ArgumentError(f"unknown config key {block}.{key}")
        # every key is a default's, so the user's value replaces it whole
        cfg[block].update(body)
    env_seed = os.environ.get("HEDGENET_SEED")
    if env_seed is not None:
        try:
            cfg["engine"]["master_seed"] = int(env_seed)
        except ValueError:
            raise ArgumentError("HEDGENET_SEED must be an integer")
    check_seed(cfg["engine"]["master_seed"], "engine.master_seed")
    if not isinstance(cfg["nets"]["n_list"], list):
        raise ArgumentError("nets.n_list must be a JSON list")
    return cfg


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical (sorted-keys) JSON; key order never matters."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_spec(cfg: dict):
    m, case = cfg["model"], cfg["model"]["case"]
    check_count("model.d", m["d"])
    other = (("sigma", "drift") if case == "C2"
             else ("mu",) if case == "C1" else ())
    for key in other:
        if m[key] is not None:
            raise ArgumentError(f"model.{key} must be null in case {case}")
    try:
        if case == "C2":
            return gbm_diagonal(
                d=m["d"], s=np.asarray(m["s"], dtype=float), x0=m["x0"],
                mu=m["mu"], corr=m["corr"],
            )
        if case == "C1":
            sigma = (np.eye(m["d"]) if m["sigma"] is None
                     else np.asarray(m["sigma"]))
            # the library refuses any other shape, at the d of sigma's rows
            if sigma.shape[:1] != (m["d"],):
                raise ArgumentError(f"model.sigma must have shape (model.d, "
                                    f"model.d) = {(m['d'], m['d'])}, not "
                                    f"{sigma.shape}")
            return bm_constant(sigma=sigma, x0=m["x0"], drift=m["drift"],
                               corr=m["corr"])
    except (KeyError, ValueError) as e:
        raise ArgumentError(f"invalid model block: {e}")
    raise ArgumentError(f"unknown model case {case!r}")


def build_pricing(cfg: dict):
    """Payoff from the catalogue, with factor vols defaulted from the model."""
    m, p = cfg["model"], cfg["payoff"]
    params = copy.deepcopy(p["params"])
    key = p["key"]
    try:
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
        return make_pricing(key, params, p["T"])
    except (IndexError, KeyError, ValueError) as e:
        raise ArgumentError(f"invalid payoff block: {e}")


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


def _resolve_families(cfg, pricing):
    """[(name, eta)] with 'auto' eta resolved from the payoff's theta hint."""
    families = cfg["nets"]["families"]
    if not (isinstance(families, list)
            and all(isinstance(fam, dict) for fam in families)):
        raise ArgumentError("nets.families must be a JSON list of objects, "
                            f"not {families!r}")
    out = []
    for fam in families:
        name = fam.get("family")
        if name == "equidistant":
            out.append(("equidistant", 0.0))
        elif name == "eta":
            eta = fam.get("eta", "auto")
            if eta == "auto":
                eta = choose_eta(min(max(pricing.theta_hint, 0.0), 1.0 - 1e-9))
            try:
                eta = float(eta)
            except (TypeError, ValueError):
                raise ArgumentError(f"eta must be a number, not {eta!r}")
            out.append(("eta", eta))
        else:
            raise ArgumentError(f"unknown net family {name!r}")
    if not out:
        raise ArgumentError("config lists no net families")
    return out


def _engine_mode(cfg, allowed) -> str:
    """The engine block's mode, checked with the rest of the block before
    work."""
    for key in ("N", "monitor_factor", "workers"):
        check_count(f"engine.{key}", cfg["engine"][key])
    mode = cfg["engine"]["mode"]
    if mode not in allowed:
        raise ArgumentError(f"engine.mode must be one of {', '.join(allowed)}"
                            f" for this command, not {mode!r}")
    return mode


def _analysis(cfg, T) -> dict:
    """The analysis block, checked before work."""
    a = cfg["analysis"]
    check_count("analysis.theta_N", a["theta_N"], 2)
    check_count("analysis.theta_points", a["theta_points"], 3)
    u_grid = a["u_grid"]
    try:
        if u_grid is not None:
            check_dates(u_grid, T)
    except ArgumentError:
        raise ArgumentError("analysis.u_grid must be null or a non-empty list"
                            f" of dates u with 0 <= u < T, not {u_grid!r}")
    return a


def _sweeps(cfg, spec, pricing, families, mode):
    """({eta: error_curve points}, wall_ms): one sweep per distinct net
    family, all in one error_curve pass that wall_ms times. The equidistant
    family is eta = 0, so an eta family that resolves to 0 shares its sweep.
    """
    eng, n_list = cfg["engine"], cfg["nets"]["n_list"]
    etas = list(dict.fromkeys(eta for _, eta in families))
    t0 = time.perf_counter()
    curves = error_curve(
        spec, pricing, n_list, etas, eng["N"], eng["master_seed"],
        error_mode=mode, workers=eng["workers"],
        monitor_factor=eng["monitor_factor"],
    )
    return dict(zip(etas, curves)), int((time.perf_counter() - t0) * 1000)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_net(args) -> int:
    net = eta_net(args.T, args.n, args.eta)
    net.to_csv(args.out)
    dt = net.spacings()
    print(
        f"wrote {args.out}: n={args.n} eta={args.eta:g} "
        f"min_dt={dt.min():.6g} max_dt={dt.max():.6g}"
    )
    return 0


# Each config command maps (args, cfg, spec, pricing) to its artifacts,
# {file name: content}; run_config writes them.

def cmd_rate(args, cfg, spec, pricing) -> dict:
    # one rate fit per family, so one mode
    mode = _engine_mode(cfg, ("terminal", "running_sup"))
    families = _resolve_families(cfg, pricing)
    check_rate_ns(cfg["nets"]["n_list"])
    sweeps, _ = _sweeps(cfg, spec, pricing, families, mode)
    rows = []
    summaries = []
    for name, eta in families:
        points = sweeps[eta]
        fit = fit_rate(
            [(p.n, p.estimate.rms) for p in points],
            jackknife=[p.estimate.jackknife_rms() for p in points],
        )
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
    return {
        "rate_fit.csv": (["n", "rms", "stderr", "family", "eta"], rows),
        "summary.json": {"command": "rate", "payoff": cfg["payoff"]["key"],
                         "families": summaries},
    }


def cmd_theta(args, cfg, spec, pricing) -> dict:
    a = _analysis(cfg, pricing.T)
    grid = default_theta_grid(pricing.T, a["theta_points"])
    fit = estimate_theta(spec, pricing, grid, a["theta_N"],
                         cfg["engine"]["master_seed"])
    eta = choose_eta(min(max(fit.theta_hat, 0.0), 1.0 - 1e-9))
    print(f"theta_hat = {fit.theta_hat:.4f}  eta = {eta:.4f}")
    return {
        "theta_fit.csv": (["t", "m_t", "stderr"],
                          theta_grid_table(fit, pricing.T)),
        "summary.json": {
            "command": "theta",
            "payoff": cfg["payoff"]["key"],
            "theta_hat": fit.theta_hat,
            "ci95": list(fit.ci95),
            "r2": fit.r2,
            "eta_chosen": eta,
        },
    }


def cmd_h2(args, cfg, spec, pricing) -> dict:
    T = pricing.T
    a = _analysis(cfg, T)
    u_grid = a["u_grid"]
    if u_grid is None:
        u_grid = list(np.linspace(0.1 * T, 0.9 * T, 9))
    curve = estimate_h2(spec, pricing, u_grid, a["theta_N"],
                        cfg["engine"]["master_seed"])
    h2_min, se_min = curve.infimum()
    print(f"inf H^2 = {h2_min:.5g} (stderr {se_min:.2g})")
    return {
        "h2_curve.csv": (["u", "h2", "stderr"], curve.points),
        "summary.json": {
            "command": "h2",
            "payoff": cfg["payoff"]["key"],
            "h2_inf": h2_min,
            "h2_inf_stderr": se_min,
            "positive_3se": bool(h2_min - 3.0 * se_min > 0.0),
        },
    }


def cmd_simulate(args, cfg, spec, pricing) -> dict:
    eng = cfg["engine"]
    mode = _engine_mode(cfg, ("terminal", "running_sup", "both"))
    families = _resolve_families(cfg, pricing)
    sweeps, wall_ms = _sweeps(cfg, spec, pricing, families, mode)
    rows = []
    for name, eta in families:
        for p in sweeps[eta]:
            M = p.n if mode == "terminal" else eng["monitor_factor"] * p.n
            for m, e in p.estimates.items():
                rows.append(
                    (name, eta, str(p.n), str(M), str(eng["N"]), m,
                     e.mean_sq, e.rms, e.stderr_mean_sq,
                     str(eng["master_seed"]), str(wall_ms))
                )
    artifacts = {
        "experiments.csv": (
            ["family", "eta", "n", "M", "N", "mode", "mean_sq", "rms",
             "stderr", "seed", "wall_ms"],
            rows,
        ),
        "summary.json": {"command": "simulate",
                         "payoff": cfg["payoff"]["key"],
                         "experiments": len(rows)},
    }
    if args.dump_paths:
        net = eta_net(pricing.T, cfg["nets"]["n_list"][0], families[0][1])
        artifacts["path_errors.csv"] = (
            ["path", "terminal_error", "sup_abs_error"],
            [
                (str(i), *path_error(spec, pricing, net,
                                     eng["monitor_factor"],
                                     SeedSpec(eng["master_seed"], i)))
                for i in range(min(args.dump_paths, eng["N"]))
            ],
        )
    return artifacts


def run_config(args) -> int:
    """Load the config, build the model and payoff, run the command, then
    write its artifacts and the manifest into a new output directory."""
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    if getattr(args, "workers", None) is not None:
        cfg["engine"]["workers"] = args.workers
    spec, pricing = build_spec(cfg), build_pricing(cfg)
    artifacts = args.command_fn(args, cfg, spec, pricing)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        if name.endswith(".csv"):
            _write_csv(out / name, *content)
        else:
            _write_json(out / name, content)
    _write_json(out / "manifest.json", {
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "version": __version__,
        "wall_ms": int((time.perf_counter() - t0) * 1000),
        "outputs": sorted(artifacts),
    })
    return 0


def cmd_report(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ArgumentError(f"{root} is not a directory")
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
        sp.set_defaults(func=run_config, command_fn=fn)

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
    except ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failures (I/O, quadrature, ...)
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
