"""hedgenet benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload digital_rate --seed 1 --seconds 15 \
        --trace 0

Each repetition runs the workload's ``hedgenet`` command in a fresh
interpreter (``PYTHONPATH=<checkout>/src``, one BLAS/OpenMP thread,
``HEDGENET_SEED`` removed) until ``--seconds`` have passed, then a few more
interpreters only import ``hedgenet.cli`` to sample the set-up time. Every
repetition's outputs are checked (workloads.py) and compared byte for byte
with the first repetition's.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (one per command, per determinism
comparison and per output check) and ``metrics``. With ``--trace 0`` these
are the end-to-end metrics, medians over the run; with ``--trace 1`` the
run alternates untraced and traced repetitions and reports the per-layer
metrics from the spans (layers.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import import_split, layer_metrics  # noqa: E402
from workloads import CHECKS, WORKLOADS, artifact_bytes  # noqa: E402

#: import-only interpreters launched after the timed repetitions
SETUP_LAUNCHES = 5

#: a single launch may not take longer than this
LAUNCH_TIMEOUT_S = 150


class LaunchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HEDGENET_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Launches fresh interpreters for one workload and keeps their results."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.work_dir = Path(work_dir).resolve()
        self.env = child_env()
        self.config_path = self.work_dir / "config.json"
        self.config_path.write_text(json.dumps(workload.make_config(seed)))
        self.launches = 0

    def launch(self, cli_args=(), spans_path=None, extra_python_args=()):
        self.launches += 1
        result = self.work_dir / f"result{self.launches}.json"
        log = self.work_dir / f"log{self.launches}.txt"
        cmd = [sys.executable, *extra_python_args, str(HERE / "child.py"),
               str(result)]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
        if cli_args:
            cmd += ["--", *cli_args]
        with open(log, "w") as out:
            spawned = time.monotonic()
            proc = subprocess.run(cmd, env=self.env, cwd=self.work_dir,
                                  stdout=out, stderr=subprocess.STDOUT,
                                  timeout=LAUNCH_TIMEOUT_S)
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text()[-2000:]
            raise LaunchError(
                f"{' '.join(cmd)} exited {proc.returncode}:\n{tail}")
        rec = json.loads(result.read_text())
        rec["setup_s"] = rec["imported_at"] - spawned
        rec["log"] = log.read_text()
        return rec

    def command(self, rep, traced=False):
        """One repetition of the workload; its outputs go to out<rep>/."""
        out_dir = self.work_dir / f"out{rep}"
        spans = self.work_dir / f"spans{rep}.json" if traced else None
        rec = self.launch(self.workload.cli_args(self.config_path, out_dir),
                          spans)
        rec["out_dir"] = out_dir
        if spans is not None:
            rec["spans"] = json.loads(spans.read_text())
        return rec


class Ledger:
    """Operations attempted and failed, with a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def check_repetition(workload, rec, reference, ledger):
    """Exit code, byte equality with the first repetition, output checks."""
    ledger.record("command", rec["rc"] == 0, f"exit code {rec['rc']}")
    data = artifact_bytes(workload, rec["out_dir"])
    if reference is None:
        reference = data
    same = [name for name in data if data[name] == reference.get(name)]
    ledger.record("determinism", len(same) == len(reference) == len(data),
                  f"identical artifacts: {same}")
    for name, ok, detail in CHECKS[workload.name](rec["out_dir"]):
        ledger.record(f"check.{name}", ok, detail)
    return reference


def measure(workload, seed, seconds, trace, work_dir):
    runner = Runner(workload, seed, work_dir)
    ledger = Ledger()
    reference = None
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        rec = runner.command(len(plain) + len(traced))
        reference = check_repetition(workload, rec, reference, ledger)
        plain.append(rec)
        if trace:
            rec = runner.command(len(plain) + len(traced), traced=True)
            reference = check_repetition(workload, rec, reference, ledger)
            traced.append(rec)
        if time.monotonic() >= deadline:
            break

    if not trace:
        setup = [r["setup_s"] for r in plain]
        setup += [runner.launch()["setup_s"] for _ in range(SETUP_LAUNCHES)]
        wall = median([r["wall_s"] for r in plain])
        metrics = {
            "setup_s": (median(setup), "s"),
            "wall_s": (wall, "s"),
            "path_steps_per_s": (workload.delivered_path_steps() / wall,
                                 "1/s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
        }
    else:
        per_rep = [layer_metrics(workload, r["spans"], r["out_dir"])
                   for r in traced]
        counts = [{k: v for k, (v, unit) in m.items() if unit == "count"}
                  for m in per_rep]
        ledger.record("trace.counts_repeat",
                      all(c == counts[0] for c in counts),
                      "span counts differ between traced repetitions")
        # counts repeat exactly (checked above); times are medians
        metrics = {k: (v if unit == "count"
                       else median([m[k][0] for m in per_rep]), unit)
                   for k, (v, unit) in per_rep[0].items()}
        imports = [import_split(runner.launch(
            extra_python_args=("-X", "importtime"))["log"]) for _ in range(3)]
        for k, (_, unit) in imports[0].items():
            metrics[k] = (median([m[k][0] for m in imports]), unit)
        wall = median([r["wall_s"] for r in plain])
        metrics.update({
            "cli.import_s": (median([r["import_s"] for r in plain + traced]),
                             "s"),
            "process.cpu_s": (median([r["cpu_s"] for r in plain]), "s"),
            "process.cpu_per_wall": (
                median([r["cpu_s"] / r["wall_s"] for r in plain]), "ratio"),
            "process.rss_after_import_mb": (
                median([r["rss_after_import_mb"] for r in plain]), "MB"),
            "trace.overhead_s": (
                median([r["wall_s"] for r in traced]) - wall, "s"),
        })
    return ledger, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "hedgenet" / "cli.py").is_file():
        print(f"error: no hedgenet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    work_dir = HERE / "out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        ledger, metrics = measure(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), work_dir)
    except (LaunchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
