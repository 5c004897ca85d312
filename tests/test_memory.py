"""Peak memory of the largest lattice runs and the widest battery, and no dense operator.

Every lattice operator is held as its offset diagonals, O(d) values, and the
battery is built and measured as stacked tables: each ``OperatorTable``
holds at most ``observables._TABLE_ENTRIES`` entries (4 MiB), and is built,
measured and dropped before the next one is built.  At N = 15, d = 495 (the
largest lattice of the benchmark sweeps) the default battery is one table of
~0.4 MB, and what is d x d in a run is the block of Bloch states and its
Gram matrix in the solver checks.  No default battery member can fill a
cross-class block, so none is formed; the eigensolve writes 8 of H's 15
diagonal 33 x 33 class blocks from its diagonals (the other 7 are their
time reverses), and no run forms an operator's dense matrix: a table has
no dense form, and the one writer of diagonals into a matrix,
``add_offset_diagonal``, writes class blocks only.  The widest battery
(every battery knob at its cap, d = 501) spans dozens of tables and runs in
the memory of a few.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blochlab import bloch, observables
from blochlab.config import validate_config
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


@pytest.mark.parametrize(
    "source", ["bands_free", "superselect_mathieu", "wannier_mathieu", *sorted(CONFIGS)]
)
def test_no_run_path_forms_a_dense_operator(source, monkeypatch, tmp_path):
    if source in CONFIGS:
        data = {"kind": source, **CONFIGS[source]}
    else:
        data = json.loads((CONFIG_DIR / f"{source}.json").read_text())
        data["output"] = {key: str(tmp_path / Path(p).name) for key, p in data["output"].items()}
    cfg = validate_config(data)
    written = []
    add_offset_diagonal = bloch.add_offset_diagonal

    def refuse_dense(matrix, offset, values):
        if matrix.shape[-1] >= cfg.lattice.dim:
            raise AssertionError(f"a dense {matrix.shape} operator formed on a run path")
        written.append(matrix.shape[-1])
        return add_offset_diagonal(matrix, offset, values)

    monkeypatch.setattr(bloch, "add_offset_diagonal", refuse_dense)
    report = run_scenario(cfg)
    assert report.passed, report.checks
    assert written  # the class blocks are written through it


# seeds, max_harmonic and degree at their caps for N = 3, d = 501: 205 members of
# 81 diagonals, ~0.65 MB each.  Two bands keep the run short; the battery
# work does not depend on them.
WIDE_BATTERY = {
    "kind": "wannier",
    "lattice": {"cells": 3, "cutoff": 250},
    "potential": BASE["potential"],
    "battery": {"seeds": 200, "max_harmonic": 80, "degree": 6},
    "wannier": {"bands": [0, 1], "home_cells": [0, 1, 2]},
}
TABLE_BYTES = 16 * observables._TABLE_ENTRIES  # complex128
PEAK_TABLES = 4
# traced, the run took 2.1 s where the member-by-member battery took 5.6 s
# (0.9 s against 1.75 s untraced) on a 2-core VM; the bound leaves room for load
WIDE_BATTERY_SECONDS = 20.0


def test_widest_battery_spans_many_tables_in_the_memory_of_a_few(monkeypatch):
    cfg = validate_config(WIDE_BATTERY)
    measured = []
    tables = observables.Battery.tables

    def recording(battery):  # each table as it is built
        for table in tables(battery):
            measured.append(table.values.nbytes)
            yield table

    monkeypatch.setattr(observables.Battery, "tables", recording)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        report = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    assert report.passed, report.checks
    assert len(measured) > 10 and max(measured) <= TABLE_BYTES
    assert peak < PEAK_TABLES * TABLE_BYTES, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < WIDE_BATTERY_SECONDS


# Time bounds of the two cap runs whose time grows past the gated sweeps.
# Each was measured with run_scenario in process, BLAS at one thread, on a
# 2-core VM: the free bands run at N = 2, d = 512 (255 degenerate pairs) took
# 0.08-0.13 s (0.33-0.44 s when each cluster was re-spanned through its own
# b x b projector); the widest battery with 100 bands took 3.1-3.4 s (9.5-9.8 s
# before its Bloch states were cleared of subnormal parts, 23.3-25.7 s when
# class_form formed O ket for every member).  The bounds leave room for load.
FREE_CAP = {"kind": "bands", "lattice": {"cells": 2, "cutoff": 255, "pad_basis": True}}
FREE_CAP_SECONDS = 1.0
WIDE_BATTERY_100_BANDS = {
    **WIDE_BATTERY, "wannier": {"bands": list(range(100)), "home_cells": [0, 1, 2]}
}
WIDE_BATTERY_100_BANDS_SECONDS = 30.0


@pytest.mark.parametrize(
    "data, bound",
    [(FREE_CAP, FREE_CAP_SECONDS), (WIDE_BATTERY_100_BANDS, WIDE_BATTERY_100_BANDS_SECONDS)],
    ids=["free_cap_bands", "widest_battery_100_bands"],
)
def test_cap_run_finishes_within_its_bound(data, bound):
    cfg = validate_config(data)
    started = time.perf_counter()
    report = run_scenario(cfg)
    elapsed = time.perf_counter() - started
    assert report.passed, report.checks
    assert elapsed < bound, f"{elapsed:.2f} s"


def _random_hermitian(rng, dim: int, spectral_norm: float) -> list:
    """A random Hermitian matrix of the given spectral norm, as config JSON."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    h *= spectral_norm / np.max(np.abs(np.linalg.eigvalsh(h)))
    return [[[float(z.real), float(z.imag)] for z in row] for row in h]


# a random d = 16 drive with every Floquet knob at its cap: 65536 steps, a
# 4096-point probe grid over up to 1024 periods, and a Sambe space 129 blocks
# wide (one 2064-wide eigvalsh)
_RNG = np.random.default_rng(16)
FLOQUET_CAP = {
    "kind": "floquet",
    "floquet": {
        "omega": 1.0,
        "h0": _random_hermitian(_RNG, 16, 0.3),
        "drives": [{"harmonic": 1, "kind": "cos", "matrix": _random_hermitian(_RNG, 16, 0.3)}],
        "steps": 65536,
        "sambe_hmax": 64,
        "probe": {"pair": [0, 1], "periods": [8, 1024], "grid": 4096},
    },
}
# the run took 9.7-13.6 s traced (10.6 s untraced) at a traced peak of 98.1 MiB,
# BLAS at one thread on a 2-core VM; the bounds leave room for load
FLOQUET_CAP_SECONDS = 40.0
FLOQUET_CAP_PEAK = 160 * 2**20


def test_floquet_cap_run_finishes_within_its_time_and_memory_bounds():
    cfg = validate_config(FLOQUET_CAP)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        report = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    assert report.passed and len(report.checks) == 7, report.checks
    assert elapsed < FLOQUET_CAP_SECONDS, f"{elapsed:.2f} s"
    assert peak < FLOQUET_CAP_PEAK, f"peak {peak / 2**20:.1f} MiB"
