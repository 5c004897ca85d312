"""Peak memory of the largest lattice runs.

The battery is consumed as a stream: each member is built, measured and
dropped before the next one is built.  At N = 15, d = 495 (the largest
lattice of the benchmark sweeps) a run therefore holds a few d x d matrices
at a time (Hamiltonian, translation, one member and the temporaries of its
measurement), far fewer than the 25 members of the battery.
"""

import tracemalloc

import pytest

from blochlab.config import validate_config
from blochlab.runner import run_scenario

DIM = 495
OPERATOR_BYTES = DIM * DIM * 16  # one dense complex128 d x d matrix, 3.74 MiB
PEAK_OPERATORS = 10

BASE = {
    "lattice": {"cells": 15, "cutoff": (DIM - 1) // 2},
    "potential": {"harmonics": [{"j": 1, "re": 0.2, "im": 0.1}, {"j": 2, "re": -0.05, "im": 0.07}]},
    "battery": {"seeds": 20},
}
CONFIGS = {
    "superselect": {**BASE, "negative_control": {"s": 1}, "fringe_points": 64},
    "wannier": {**BASE, "wannier": {"bands": [0, 1], "home_cells": [0, 1, 2]}},
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_largest_lattice_run_holds_few_operators(kind):
    cfg = validate_config({"kind": kind, **CONFIGS[kind]})
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, report.checks
    assert peak < PEAK_OPERATORS * OPERATOR_BYTES, f"peak {peak / 2**20:.1f} MiB"
