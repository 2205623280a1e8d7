"""The benchmark workloads' data artifacts keep their committed bytes, and
so do those of two runs that write the artifacts no workload writes.

``golden.py`` runs each of them at seeds 1 and 7 and hashes its data
files; ``golden_digests.json`` holds the digests and the numpy and scipy
versions that made them. Other versions may round differently, so a
version mismatch fails, naming both, rather than comparing. The golden set's four benchmark workloads must
mirror those of perfbench/workloads.py, which is read, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from golden import DIGESTS, N, WORKLOADS, versions, workload_digests

GOLDEN = json.loads(DIGESTS.read_text())


def benchmark_workloads() -> dict:
    """The benchmark's ``WORKLOADS``, from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCHMARK = benchmark_workloads()


@pytest.mark.parametrize("name", sorted(BENCHMARK))
def test_golden_set_mirrors_the_benchmark(name):
    # each benchmark workload is a golden workload of the same name: the
    # same command, config and flags, at N paths
    bench = BENCHMARK[name].resized(N)
    command, config, flags = WORKLOADS[name]
    assert bench.cli_args("cfg.json", "out") == [
        command, "--config", "cfg.json", "--out", "out", *flags]
    assert bench.config == config


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_artifacts_match_the_golden_digests(name, tmp_path):
    made, here = GOLDEN["versions"], versions()
    assert here == made, (
        f"the golden digests were made with numpy {made['numpy']} and "
        f"scipy {made['scipy']}; this is numpy {here['numpy']} and scipy "
        f"{here['scipy']}; regenerate them with tests/golden.py at a "
        "commit whose numbers are trusted"
    )
    assert workload_digests(name, tmp_path) == GOLDEN["digests"][name]
