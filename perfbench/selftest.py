"""Fast self-test of the benchmark harness (about two minutes).

    python3 perfbench/selftest.py

Runs every workload at a reduced size through the same code the benchmark
uses, untraced and traced, and checks that the metrics printed are exactly
the ones BENCHMARK.json names, with their units. It also checks that
tampered outputs fail the output checks, that call_sup's artifacts are the
same at 1 and 2 workers, and that the benchmark refuses to run without the
hedgenet sources. Exits 0 when everything holds.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, Runner, measure  # noqa: E402
from workloads import BATCH, CHECKS, WORKLOADS, artifact_bytes  # noqa: E402

SMALL = {
    "digital_rate": WORKLOADS["digital_rate"].resized(4096),
    "product3_rate": WORKLOADS["product3_rate"].resized(4096, [8, 16, 32, 64]),
    # two batches, so that --workers 2 uses the thread pool
    "call_sup": WORKLOADS["call_sup"].resized(BATCH + 2048),
    "power_theta": WORKLOADS["power_theta"].resized(20000),
}

WORK = HERE / "out" / "selftest"
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_metrics(name, trace, ledger, metrics, spec):
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: unit for k, (_, unit) in metrics.items()}
    expect(got == want, f"{name} trace={trace}: metric names and units")
    expect(all(isinstance(v, (int, float)) and math.isfinite(v)
               for v, _ in metrics.values()),
           f"{name} trace={trace}: metric values are finite numbers")
    expect(ledger.correct and ledger.failed == 0 and ledger.attempted > 0,
           f"{name} trace={trace}: {ledger.attempted} operations, "
           f"{ledger.failed} failed")
    if not trace:
        expect(all(v > 0 for v, _ in metrics.values()),
               f"{name}: end-to-end metrics are positive")


def tamper(src, dst, edit):
    shutil.copytree(src, dst)
    edit(Path(dst))
    return dst


def failing(name, out_dir):
    return {check for check, ok, _ in CHECKS[name](out_dir) if not ok}


def rewrite_csv(path, edit):
    """Apply edit(row) to every row of a CSV file written by the program."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    for row in rows:
        edit(row)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def shift_eta_slope(delta):
    """Tilt the eta family's rms by n^delta and report the matching slope,
    so that only the theory window can tell."""
    def edit(d):
        def row(r):
            if r["family"] == "eta":
                r["rms"] = repr(float(r["rms"]) * int(r["n"]) ** delta)

        def summary(s):
            for fam in s["families"]:
                if fam["family"] == "eta":
                    fam["slope"] += delta

        rewrite_csv(d / "rate_fit.csv", row)
        edit_json(d / "summary.json", summary)
    return edit


def sup_below_terminal(d):
    term = {}

    def collect(r):
        if r["mode"] == "terminal":
            term[r["n"]] = float(r["mean_sq"])

    def lower(r):
        if r["mode"] == "running_sup":
            r["mean_sq"] = repr(0.9 * term[r["n"]])

    rewrite_csv(d / "experiments.csv", collect)
    rewrite_csv(d / "experiments.csv", lower)


def shift_theta(delta):
    """Scale m(t) by (T - t)^(-2 delta): theta_hat moves by delta."""
    def edit(d):
        def row(r):
            r["m_t"] = repr(float(r["m_t"]) * (1.0 - float(r["t"]))
                            ** (-2.0 * delta))

        def summary(s):
            s["theta_hat"] += delta
            s["eta_chosen"] = s["theta_hat"]

        rewrite_csv(d / "theta_fit.csv", row)
        edit_json(d / "summary.json", summary)
    return edit


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")
    shutil.rmtree(WORK, ignore_errors=True)

    for name, wl in SMALL.items():
        for trace in (0, 1):
            d = WORK / f"{name}-{trace}"
            d.mkdir(parents=True)
            ledger, metrics = measure(wl, 1, 0.0, bool(trace), d)
            check_metrics(name, trace, ledger, metrics, spec)
            if trace:
                expect(metrics["rng.normals.draws"][0] > 0,
                       f"{name}: the trace saw rng draws")

    # tampered outputs must fail the checks
    d = WORK / "tamper"
    d.mkdir()
    for name, edits in (
        ("digital_rate", [(shift_eta_slope(0.25), {"eta.slope_window"}),
                          (shift_eta_slope(-0.5), {"eta.slope_window"})]),
        ("product3_rate", [(shift_eta_slope(0.4), {"eta.slope_window"})]),
        ("call_sup", [(sup_below_terminal,
                       {"doob.n4", "doob.n16", "doob.n64"})]),
        ("power_theta", [(shift_theta(0.3), {"theta_window"})]),
    ):
        (d / name).mkdir()
        runner = Runner(SMALL[name], 2, d / name)
        rec = runner.command(0)
        expect(not failing(name, rec["out_dir"]),
               f"{name}: untampered output passes on another seed")
        for i, (edit, want) in enumerate(edits):
            bad = tamper(rec["out_dir"], d / name / f"bad{i}", edit)
            got = failing(name, bad)
            expect(got == want, f"{name}: tampered output {i} fails "
                   f"{sorted(got)}")

    # call_sup: the same artifacts at 1 and 2 workers
    wl = SMALL["call_sup"]
    outs = []
    for workers in (1, 2):
        w = type(wl)(wl.name, wl.command, wl.config, workers)
        (d / f"workers{workers}").mkdir()
        r = Runner(w, 3, d / f"workers{workers}")
        outs.append(artifact_bytes(w, r.command(0)["out_dir"]))
    expect(outs[0] == outs[1], "call_sup: identical artifacts at 1 and 2 "
           "workers")

    # without the program the benchmark fails and prints no result
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "digital_rate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory: exit code {proc.returncode}, no result printed")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
