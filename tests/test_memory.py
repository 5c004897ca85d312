"""Peak memory of the largest lattice runs, and no dense operator on any run path.

Every lattice operator is held as its offset diagonals, O(d) values, and the
battery is consumed as a stream: each member is built, measured and dropped
before the next one is built.  At N = 15, d = 495 (the largest lattice of
the benchmark sweeps) what is d x d in a run is the block of Bloch states,
its Gram matrix in the solver checks, and the class-block stack of one
member; no run forms an operator's dense matrix.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from blochlab.config import validate_config
from blochlab.lattice import HermitianOperator
from blochlab.runner import run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DIM = 495
OPERATOR_BYTES = DIM * DIM * 16  # one dense complex128 d x d matrix, 3.74 MiB
PEAK_OPERATORS = 5

BASE = {
    "lattice": {"cells": 15, "cutoff": (DIM - 1) // 2},
    "potential": {"harmonics": [{"j": 1, "re": 0.2, "im": 0.1}, {"j": 2, "re": -0.05, "im": 0.07}]},
    "battery": {"seeds": 20},
}
CONFIGS = {
    "bands": {"lattice": BASE["lattice"], "potential": BASE["potential"]},
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


def _refuse_dense(self):
    raise AssertionError(f"dense matrix of {self.label!r} formed on a run path")


@pytest.mark.parametrize(
    "source", ["bands_free", "superselect_mathieu", "wannier_mathieu", *sorted(CONFIGS)]
)
def test_no_run_path_forms_a_dense_operator(source, monkeypatch, tmp_path):
    if source in CONFIGS:
        data = {"kind": source, **CONFIGS[source]}
    else:
        data = json.loads((CONFIG_DIR / f"{source}.json").read_text())
        data["output"] = {key: str(tmp_path / Path(p).name) for key, p in data["output"].items()}
    monkeypatch.setattr(HermitianOperator, "matrix", property(_refuse_dense))
    report = run_scenario(validate_config(data))
    assert report.passed, report.checks
