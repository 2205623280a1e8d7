"""Golden artifacts: the benchmark workloads' data files, pinned by digest.

The four workloads of ``perfbench/workloads.py`` (their commands, configs
and ``--workers`` flags, here at N = 4096 paths; ``test_golden.py`` checks
that they mirror the benchmark's) run through ``hedgenet.cli.main`` at
seeds 1 and 7, and so do two runs that write the artifacts they do not:
``h2`` on the digital workload's model and payoff, and ``call_sup`` with
``--dump-paths``. Every data artifact a run writes, all but
``manifest.json``, is hashed with SHA-256: ``experiments.csv`` without its
``wall_ms`` column (a timing), the rest as written. Each run's manifest
gives its ``config_sha256`` as ``<seed>/config_sha256``, so a change to
the materialized config (a default, a key) moves a digest too.
``golden_digests.json`` holds the digests together with the numpy and scipy
versions that made them; ``test_golden.py`` compares.

A change that moves numbers on purpose regenerates the digests with

    PYTHONPATH=src python tests/golden.py

which prints ``moved: <workload> <seed>/<artifact>`` for every digest that
differs from the committed file, or ``no digest moved``, before it writes
the file. The change names every moved artifact, with its largest relative
change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from hedgenet.cli import main as hedgenet

DIGESTS = Path(__file__).with_name("golden_digests.json")

SEEDS = (1, 7)

#: paths per workload
N = 4096

GBM1 = {"case": "C2", "d": 1, "s": [1.0], "x0": [1.0]}
GBM3 = {"case": "C2", "d": 3, "s": [1.0, 1.0, 1.0], "x0": [1.0, 1.0, 1.0]}

DIGITAL = {"key": "digital", "params": {"K": 1.0}, "T": 1.0}

CALL_SUP = {
    "model": GBM1,
    "payoff": {"key": "call", "params": {"K": 1.0}, "T": 1.0},
    "nets": {"families": [{"family": "equidistant"}],
             "n_list": [4, 16, 64]},
    "engine": {"N": N, "mode": "both", "monitor_factor": 32},
}

#: name: (command, config without the seed, extra CLI flags)
WORKLOADS = {
    "digital_rate": ("rate", {
        "model": GBM1,
        "payoff": DIGITAL,
        "nets": {"families": [{"family": "equidistant"},
                              {"family": "eta", "eta": "auto"}],
                 "n_list": [8, 16, 32, 64, 128, 256, 512]},
        "engine": {"N": N},
    }, ["--workers", "1"]),
    "product3_rate": ("rate", {
        "model": GBM3,
        "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
            {"kind": "call", "K": 1.0},
            {"kind": "power", "K": 1.0, "alpha": 0.25},
            {"kind": "digital", "K": 1.0},
        ]}},
        "nets": {"families": [{"family": "eta", "eta": 0.75},
                              {"family": "equidistant"}],
                 "n_list": [8, 16, 32, 64, 128]},
        "engine": {"N": N},
    }, ["--workers", "1"]),
    "call_sup": ("simulate", CALL_SUP, ["--workers", "2"]),
    "power_theta": ("theta", {
        "model": GBM1,
        "payoff": {"key": "power", "params": {"K": 1.0, "alpha": 0.25},
                   "T": 1.0},
        "analysis": {"theta_points": 20, "theta_N": N},
    }, []),
    "digital_h2": ("h2", {
        "model": GBM1, "payoff": DIGITAL, "analysis": {"theta_N": N},
    }, []),
    "call_sup_paths": ("simulate", CALL_SUP,
                       ["--workers", "2", "--dump-paths", "16"]),
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _drop_wall_ms(data: bytes) -> bytes:
    lines = data.decode().splitlines()
    col = lines[0].split(",").index("wall_ms")
    return "\n".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != col)
        for line in lines
    ).encode()


def workload_digests(name: str, work_dir) -> dict:
    """{"<seed>/<artifact>": sha256} of one workload at every seed, and
    {"<seed>/config_sha256": the manifest's config hash}."""
    command, config, flags = WORKLOADS[name]
    out = {}
    for seed in SEEDS:
        cfg = json.loads(json.dumps(config))
        cfg.setdefault("engine", {})["master_seed"] = seed
        run = Path(work_dir) / f"{name}-{seed}"
        cfg_path = run.with_suffix(".json")
        cfg_path.write_text(json.dumps(cfg))
        if hedgenet([command, "--config", str(cfg_path), "--out", str(run),
                     *flags]) != 0:
            raise RuntimeError(f"{name} at seed {seed} failed")
        for path in sorted(run.iterdir()):
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                out[f"{seed}/config_sha256"] = manifest["config_sha256"]
                continue
            data = path.read_bytes()
            if path.name == "experiments.csv":
                data = _drop_wall_ms(data)
            out[f"{seed}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: workload_digests(name, tmp) for name in WORKLOADS}
    committed = json.loads(DIGESTS.read_text())["digests"]
    moved = [f"{name} {key}" for name, made in digests.items()
             for key, digest in made.items()
             if committed.get(name, {}).get(key) != digest]
    for line in moved:
        print(f"moved: {line}")
    if not moved:
        print("no digest moved")
    DIGESTS.write_text(json.dumps({"versions": versions(),
                                   "digests": digests},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
