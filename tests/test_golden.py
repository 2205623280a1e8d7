"""The benchmark workloads' data artifacts keep their committed bytes, and
so do those of two runs that write the artifacts no workload writes.

``golden.py`` runs each of them at seeds 1 and 7 and hashes its data
files; ``golden_digests.json`` holds the digests and the numpy and scipy
versions that made them. Other versions may round differently, so a
version mismatch fails, naming both, rather than comparing.
"""

import json

import pytest

from golden import DIGESTS, WORKLOADS, versions, workload_digests

GOLDEN = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_artifacts_match_the_golden_digests(name, tmp_path, monkeypatch):
    made, here = GOLDEN["versions"], versions()
    assert here == made, (
        f"the golden digests were made with numpy {made['numpy']} and "
        f"scipy {made['scipy']}; this is numpy {here['numpy']} and scipy "
        f"{here['scipy']}; regenerate them with tests/golden.py at a "
        "commit whose numbers are trusted"
    )
    monkeypatch.delenv("HEDGENET_SEED", raising=False)
    assert workload_digests(name, tmp_path) == GOLDEN["digests"][name]
