"""Command-line experiment runner.

Subcommands: net (emit a time-net CSV), rate (net-family sweep + rate fit),
theta (blow-up exponent scan), h2 (error-density curve), simulate (raw error
estimates), report (aggregate a directory of runs). Experiments are described
by a single JSON config; all defaults are materialized into the run manifest
so every run is self-describing and byte-reproducible for its config's
engine.master_seed. A price takes its vols and d from the model block alone.
Exit code 2 is any ArgumentError, from a config check here or from a library
function's own checks before work; every other failure exits 1.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (check_dates, check_rate_ns, choose_eta,
                       default_theta_grid, estimate_h2, estimate_theta,
                       fit_rate, theta_grid_table)
from .hedging import M_FACTOR, error_curve, path_error
from .models import a_matrix, bm_constant, gbm_diagonal
from .pricing import make_pricing
from .rng import ArgumentError, check_count, check_horizon, check_seed
from .timenets import eta_net

__all__ = ["main", "load_config", "config_hash", "DEFAULT_CONFIG", "SCHEMA"]


def _count(least=1):
    return f"integer ≥ {least}", lambda n, v, _: check_count(n, v, least)


def _rule(what, test):
    """A rule refusing, as not ``what``, a value that fails test(value,
    cfg)."""
    def check(name, value, cfg):
        if not test(value, cfg):
            raise ArgumentError(f"{name} must be {what}, not {value!r}")
    return what, check


def _one_of(*options):
    return _rule("one of " + ", ".join(options), lambda v, _: v in options)


def _is_objects(value, cfg=None) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _is_eta(value, cfg) -> bool:
    # a number, not a bool, in the range that the net owns
    return value == "auto" or (isinstance(value, (int, float))
                               and not isinstance(value, bool)
                               and eta_net(1.0, 1, value) is not None)


def _is_dates(value, cfg) -> bool:
    try:
        if value is not None:
            check_dates(value, cfg["payoff"]["T"])
    except ArgumentError:
        return False
    return True


def _sigma(name, value, cfg):
    # bm_constant takes d from sigma's rows
    d, shape = cfg["model"]["d"], np.shape(np.asarray(value, object))
    if value is not None and shape[:1] != (d,):
        raise ArgumentError(f"{name} must have shape (model.d, model.d) = "
                            f"{(d, d)}, not {shape}")


_ONE_D = ("call", "digital", "power")
_SPEC, _FACTOR = ("`DiffusionSpec`", None), ("`Factor1D`", None)

#: The config schema: (block, key, readers, default, (rule, check)).
#: Readers are the model cases, payoff keys, factor kinds or net families
#: that read the key (None: all), named by the block's first key (by
#: payoff.key for payoff.params); in any other the key is null. The rule
#: names what checks the key: ``check(name, value, cfg)`` refuses a bad
#: value, in row order, or the library code named does (check None).
#: README's validated-ranges table lists the same rows.
SCHEMA = (
    ("model", "case", None, "C2", _one_of("C2", "C1")),
    ("model", "d", None, 1, _count()),
    ("model", "x0", None, [1.0], _SPEC),
    ("model", "corr", None, None, _SPEC),
    ("model", "s", ("C2",), [1.0], _SPEC),
    ("model", "mu", ("C2",), None, _SPEC),
    ("model", "sigma", ("C1",), None,
     ("model.d rows, then `DiffusionSpec`", _sigma)),
    ("model", "drift", ("C1",), None, _SPEC),
    ("payoff", "key", None, "digital",
     _one_of(*_ONE_D, "product", "sum_digital_2d", "bm_quadratic")),
    ("payoff", "params", None, {},
     _rule("a JSON object", lambda v, _: isinstance(v, dict))),
    ("payoff", "T", None, 1.0, ("`check_horizon`",
                                lambda n, v, _: check_horizon(v))),
    ("payoff.params", "K", _ONE_D, 1.0, _FACTOR),
    ("payoff.params", "alpha", ("power",), 0.25, _FACTOR),
    ("payoff.params", "factors", ("product",), None,
     _rule("a JSON list of objects", _is_objects)),
    ("payoff.params", "K", ("sum_digital_2d",), 2.0, ("`SumDigital2D`", None)),
    ("payoff.params", "lam", ("sum_digital_2d",), [1.0, 1.0],
     ("`SumDigital2D`", None)),
    ("payoff.params.factors[i]", "kind", None, None,
     _one_of(*_ONE_D, "const")),
    ("payoff.params.factors[i]", "K", _ONE_D, 1.0, _FACTOR),
    ("payoff.params.factors[i]", "alpha", ("power",), 0.25, _FACTOR),
    ("nets", "families", None,
     [{"family": "equidistant"}, {"family": "eta", "eta": "auto"}],
     _rule("a JSON list of objects (one or more)",
           lambda v, _: _is_objects(v) and v)),
    ("nets", "n_list", None, [8, 16, 32, 64, 128, 256, 512],
     _rule("a JSON list", lambda v, _: isinstance(v, list))),
    ("nets.families[i]", "family", None, None,
     _one_of("equidistant", "eta")),
    ("nets.families[i]", "eta", ("eta",), "auto",
     _rule("'auto' or a number", _is_eta)),
    ("engine", "N", None, 100000, _count()),
    ("engine", "monitor_factor", None, M_FACTOR, _count()),
    ("engine", "master_seed", None, 20260823,
     ("`check_seed`", lambda n, v, _: check_seed(v, n))),
    ("engine", "mode", None, "terminal",
     _one_of("terminal", "running_sup", "both")),
    ("engine", "workers", None, 1, _count()),
    ("analysis", "theta_points", None, 20, _count(3)),
    ("analysis", "theta_N", None, 50000, _count(2)),
    ("analysis", "u_grid", None, None, _rule(
        "null or a non-empty list of dates u with 0 <= u < T", _is_dates)),
)


def _rows(block):
    return [row[1:] for row in SCHEMA if row[0] == block]


#: the top-level blocks' keys at their defaults; a key that only some model
#: cases read is null, and load_config gives it its case's default
DEFAULT_CONFIG = {block: {key: None if readers else default
                          for key, readers, default, _ in _rows(block)}
                  for block in ("model", "payoff", "nets", "engine",
                                "analysis")}


def _check(block, name, obj, cfg, reader=None, what=None):
    """Check the config object ``obj`` against ``block``: each key that
    ``reader`` (a ``what``; by default the first row's key and value) reads,
    at its value or default, in row order; then any other key must be one
    SCHEMA names, and null."""
    rows, read = _rows(block), set()
    for key, readers, default, (_, check) in rows:
        if readers is None or reader in readers:
            read.add(key)
            value = obj.get(key, default)
            if check is not None:
                check(f"{name}.{key}", value, cfg)
            if what is None:
                what, reader = key, value
    for key in [k for k in obj if k not in read]:
        if key in ("s", "d") and block.startswith("payoff"):
            raise ArgumentError(f"{name}.{key} is not a payoff key: a price "
                                f"takes it from model.{key}")
        if key not in {row[0] for row in rows}:
            raise ArgumentError(f"unknown config key {name}.{key}")
        if obj[key] is not None:
            raise ArgumentError(f"{name}.{key} must be null in {what} "
                                f"{reader}")


def _read(block, obj, reader) -> dict:
    """The keys of ``obj`` that ``reader`` reads, at value or default."""
    return {key: obj.get(key, default) for key, readers, default, _
            in _rows(block) if readers is None or reader in readers}


def load_config(path, workers=None) -> dict:
    """Parse a JSON config, materialize the defaults of its blocks, set
    ``engine.workers`` to ``workers`` (the --workers flag) if given, then
    check every key of every block and nested object against SCHEMA."""
    try:
        with open(path) as f:
            user = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: not valid JSON
        raise ArgumentError(f"cannot read config {path}: {e}")
    if not isinstance(user, dict):
        raise ArgumentError("config root must be a JSON object")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for block, body in user.items():
        if block not in DEFAULT_CONFIG:
            raise ArgumentError(f"unknown config block {block!r}")
        if not isinstance(body, dict):
            raise ArgumentError(f"config block {block!r} must be a JSON "
                                "object")
        cfg[block].update(body)  # a value replaces its default whole
    if workers is not None:
        cfg["engine"]["workers"] = workers
    m = cfg["model"]
    for key, readers, default, _ in _rows("model"):
        if readers and m[key] is None and m["case"] in readers:
            m[key] = copy.deepcopy(default)
    for block in cfg:
        _check(block, block, cfg[block], cfg)
    params = cfg["payoff"]["params"]
    _check("payoff.params", "payoff.params", params, cfg,
           cfg["payoff"]["key"], "payoff")
    for block, objs in (("payoff.params.factors[i]", params.get("factors")),
                        ("nets.families[i]", cfg["nets"]["families"])):
        for i, obj in enumerate(objs or ()):
            _check(block, block.replace("[i]", f"[{i}]"), obj, cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical (sorted-keys) JSON; key order never matters."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_spec(cfg: dict):
    """The model block's diffusion; a library refusal is a usage error."""
    m = cfg["model"]
    try:
        if m["case"] == "C2":
            return gbm_diagonal(
                d=m["d"], s=m["s"], x0=m["x0"], mu=m["mu"], corr=m["corr"])
        sigma = np.eye(m["d"]) if m["sigma"] is None else m["sigma"]
        return bm_constant(sigma=sigma, x0=m["x0"], drift=m["drift"],
                           corr=m["corr"])
    except ValueError as e:
        raise ArgumentError(f"invalid model block: {e}")


def build_pricing(cfg: dict, spec):
    """The payoff block's catalogue price, each key its payoff key reads at
    its value or default, at ``spec``'s vols (case C2), d and tr A (for
    ``bm_quadratic``), which the block may not set."""
    key = cfg["payoff"]["key"]
    params = _read("payoff.params", cfg["payoff"]["params"], key)
    factors = params["factors"] = [
        _read("payoff.params.factors[i]", f, f["kind"])
        for f in params.get("factors") or ()]
    # case C1 has no vols: check_priced refuses it for all but bm_quadratic
    if spec.vols is not None:
        for f, s in zip(factors, spec.vols):
            f["s"] = s
        params["s"] = spec.vols if key == "sum_digital_2d" else spec.vols[0]
    params.update(d=spec.d, tr_a=np.trace(a_matrix(spec, spec.x0)))
    try:
        return make_pricing(key, params, cfg["payoff"]["T"])
    except ValueError as e:
        raise ArgumentError(f"invalid payoff block: {e}")


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(c if isinstance(c, str) else "%.17g" % float(c)
                             for c in row) + "\n")


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _eta_for(theta) -> float:
    """The net parameter of a blow-up exponent, an estimate or hint clamped
    into [0, 1)."""
    return choose_eta(min(max(theta, 0.0), 1.0 - 1e-9))


def _resolve_families(cfg, pricing):
    """[(name, eta)]: eta 0 for the equidistant family, and an 'auto' eta
    from the payoff's theta hint."""
    fams = [_read("nets.families[i]", f, f["family"])
            for f in cfg["nets"]["families"]]
    return [(f["family"], _eta_for(pricing.theta_hint)
             if f.get("eta") == "auto" else float(f.get("eta", 0.0)))
            for f in fams]


def _sweeps(cfg, spec, pricing, families, mode):
    """({eta: error_curve points}, wall_ms): one sweep per distinct net
    family, all in one error_curve pass that wall_ms times. The equidistant
    family is eta = 0, so an eta family that resolves to 0 shares its sweep.
    """
    eng, n_list = cfg["engine"], cfg["nets"]["n_list"]
    etas = list(dict.fromkeys(eta for _, eta in families))
    t0 = time.perf_counter()
    curves = error_curve(spec, pricing, n_list, etas, eng["N"],
                         eng["master_seed"], error_mode=mode,
                         workers=eng["workers"],
                         monitor_factor=eng["monitor_factor"])
    return dict(zip(etas, curves)), int((time.perf_counter() - t0) * 1000)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_net(args) -> int:
    net = eta_net(args.T, args.n, args.eta)
    _write_csv(args.out, ["t", "tau"], zip(net.knots, net.taus))
    dt = net.spacings()
    print(f"wrote {args.out}: n={args.n} eta={args.eta:g} "
          f"min_dt={dt.min():.6g} max_dt={dt.max():.6g}")
    return 0


# Each config command maps (args, cfg, spec, pricing) to its artifacts,
# {file name: content}; run_config writes them.

def cmd_rate(args, cfg, spec, pricing) -> dict:
    mode = cfg["engine"]["mode"]
    if mode == "both":  # one rate fit per family, so one mode
        raise ArgumentError("engine.mode must be one of terminal, running_sup"
                            " for rate, not 'both'")
    families = _resolve_families(cfg, pricing)
    check_rate_ns(cfg["nets"]["n_list"])
    sweeps, _ = _sweeps(cfg, spec, pricing, families, mode)
    rows, summaries = [], []
    for name, eta in families:
        points = sweeps[eta]
        fit = fit_rate([(p.n, p.estimate.rms) for p in points],
                       jackknife=[p.estimate.jackknife_rms() for p in points])
        rows += [(p.n, p.estimate.rms, p.estimate.stderr_rms, name, eta)
                 for p in points]
        summaries.append({"family": name, "eta": eta, "slope": fit.slope,
                          "ci95_slope": list(fit.ci95_slope),
                          "intercept": fit.intercept, "r2": fit.r2})
        print(f"{name} (eta={eta:g}): slope {fit.slope:+.4f} "
              f"ci95 [{fit.ci95_slope[0]:+.4f}, {fit.ci95_slope[1]:+.4f}]")
    return {
        "rate_fit.csv": (["n", "rms", "stderr", "family", "eta"], rows),
        "summary.json": {"command": "rate", "payoff": cfg["payoff"]["key"],
                         "families": summaries},
    }


def cmd_theta(args, cfg, spec, pricing) -> dict:
    a = cfg["analysis"]
    grid = default_theta_grid(pricing.T, a["theta_points"])
    fit = estimate_theta(spec, pricing, grid, a["theta_N"],
                         cfg["engine"]["master_seed"])
    eta = _eta_for(fit.theta_hat)
    print(f"theta_hat = {fit.theta_hat:.4f}  eta = {eta:.4f}")
    return {
        "theta_fit.csv": (["t", "m_t", "stderr"],
                          theta_grid_table(fit, pricing.T)),
        "summary.json": {"command": "theta", "payoff": cfg["payoff"]["key"],
                         "theta_hat": fit.theta_hat, "ci95": list(fit.ci95),
                         "r2": fit.r2, "eta_chosen": eta},
    }


def cmd_h2(args, cfg, spec, pricing) -> dict:
    T, a = pricing.T, cfg["analysis"]
    u_grid = (list(np.linspace(0.1 * T, 0.9 * T, 9)) if a["u_grid"] is None
              else a["u_grid"])
    curve = estimate_h2(spec, pricing, u_grid, a["theta_N"],
                        cfg["engine"]["master_seed"])
    h2_min, se_min = curve.infimum()
    print(f"inf H^2 = {h2_min:.5g} (stderr {se_min:.2g})")
    return {
        "h2_curve.csv": (["u", "h2", "stderr"], curve.points),
        "summary.json": {"command": "h2", "payoff": cfg["payoff"]["key"],
                         "h2_inf": h2_min, "h2_inf_stderr": se_min,
                         "positive_3se": bool(h2_min - 3.0 * se_min > 0.0)},
    }


def cmd_simulate(args, cfg, spec, pricing) -> dict:
    eng, mode = cfg["engine"], cfg["engine"]["mode"]
    check_count("--dump-paths", args.dump_paths, 0)
    families = _resolve_families(cfg, pricing)
    sweeps, wall_ms = _sweeps(cfg, spec, pricing, families, mode)
    rows = [
        (name, eta, str(p.n),
         str(p.n if mode == "terminal" else eng["monitor_factor"] * p.n),
         str(eng["N"]), m, e.mean_sq, e.rms, e.stderr_mean_sq,
         str(eng["master_seed"]), str(wall_ms))
        for name, eta in families for p in sweeps[eta]
        for m, e in p.estimates.items()
    ]
    artifacts = {
        "experiments.csv": (["family", "eta", "n", "M", "N", "mode",
                             "mean_sq", "rms", "stderr", "seed", "wall_ms"],
                            rows),
        "summary.json": {"command": "simulate", "experiments": len(rows),
                         "payoff": cfg["payoff"]["key"]},
    }
    if args.dump_paths:
        net = eta_net(pricing.T, cfg["nets"]["n_list"][0], families[0][1])
        errors = path_error(spec, pricing, net, eng["monitor_factor"],
                            eng["master_seed"],
                            np.arange(min(args.dump_paths, eng["N"])))
        artifacts["path_errors.csv"] = (
            ["path", "terminal_error", "sup_abs_error"],
            [(str(i), *row) for i, row in enumerate(zip(*errors))],
        )
    return artifacts


def run_config(args) -> int:
    """Load the config, build the model and payoff, run the command, then
    write its artifacts and the manifest into a new output directory."""
    t0 = time.perf_counter()
    cfg = load_config(args.config, getattr(args, "workers", None))
    spec = build_spec(cfg)
    pricing = build_pricing(cfg, spec)
    artifacts = args.command_fn(args, cfg, spec, pricing)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        if name.endswith(".csv"):
            _write_csv(out / name, *content)
        else:
            _write_json(out / name, content)
    _write_json(out / "manifest.json", {
        "config": cfg, "config_sha256": config_hash(cfg),
        "version": __version__, "outputs": sorted(artifacts),
        "wall_ms": int((time.perf_counter() - t0) * 1000)})
    return 0


def cmd_report(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ArgumentError(f"{root} is not a directory")
    summaries = sorted(root.glob("**/summary.json"))
    if not summaries:
        print(f"error: no run summaries found under {root}", file=sys.stderr)
        return 1
    table, flags, failed = [], [], []
    for s in summaries:
        run = str(s.parent.relative_to(root)) or "."
        try:
            with open(s) as f:
                data = json.load(f)
            if not isinstance(data, dict):
                raise TypeError("the root is not a JSON object")
            cmd, payoff = data.get("command", "?"), data.get("payoff", "?")
            if cmd == "rate":
                table += [(run, payoff, fam["family"], f"{fam['eta']:.3g}",
                           f"{fam['slope']:+.4f}",
                           "[{:+.3f},{:+.3f}]".format(*fam["ci95_slope"]))
                          for fam in data.get("families", [])]
            elif cmd == "theta":
                th = data["theta_hat"]
                table.append((run, payoff, "theta", "-", f"{th:.4f}",
                              f"eta={data['eta_chosen']:.3g}"))
                if th >= 1.0:
                    flags.append(f"{run}: theta_hat = {th:.3f} >= 1 "
                                 "(blow-up assumption violated)")
            elif cmd == "h2":
                ok = data.get("positive_3se", False)
                table.append((run, payoff, "h2", "-",
                              f"{data['h2_inf']:.5g}",
                              "positive" if ok else "NOT positive"))
                if not ok:
                    flags.append(f"{run}: H^2 infimum not positive at 3 "
                                 "stderr")
            else:
                table.append((run, payoff, cmd, "-", "-", "-"))
        except KeyError as e:
            failed.append(f"{s}: no key {e}")
        except (OSError, ValueError, LookupError, TypeError) as e:
            failed.append(f"{s}: {e}")
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
        lines += ["", "assumption flags:", *(f"  - {f}" for f in flags)]
    text = "\n".join(lines) + "\n"
    (root / "report.txt").write_text(text)
    _write_csv(root / "report.csv", list(header),
               [tuple(str(c) for c in r) for r in table])
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hedgenet", description="discrete-hedging error experiments on "
        "deterministic time-nets")
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
