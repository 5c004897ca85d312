"""Scenario workloads for the blochlab benchmark.

Every workload is a pure function of (seed, pass index): the same arguments
give byte-identical config files.  The program under test only ever sees the
generated configs.  Pass 0 is the warm-up pass; every later pass draws fresh
inputs from the same seed stream, so a cache keyed on the whole input cannot
show a gain that a user running one scenario per CLI process never gets.
What stays fixed across passes is what a real parameter sweep repeats:
geometry, battery seeds 1..20 and drive dimension.

This module imports numpy (for the spectral norm of the random d=8 drive)
but never blochlab.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

# Geometry of the lattice sweeps: (cells N, basis dimension d = 2*cutoff + 1).
# d=495 is the largest odd dimension under the MAX_DIMENSION = 512 cap that
# N=15 divides; one d=495 operator is 3.9 MB (about a 4 MB L2) and the
# 25-member battery is ~98 MB (about a 105 MB L3).
LATTICE_SWEEP = ((3, 81), (7, 217), (9, 405), (15, 495))

# Battery of every superselect/wannier scenario: 5 named + 20 seeded members.
BATTERY_SEEDS = 20
BATTERY_SIZE = 5 + BATTERY_SEEDS

FLOQUET_SWEEP_STEPS = (2048, 4096, 16384)
FLOQUET_D8_STEPS = 4096
TRAJECTORY_POINTS = 257
SAMBE_HMAX = 12
PROBE = {"pair": [0, 1], "periods": [8, 16, 32, 64], "grid": 256}


@dataclass(frozen=True)
class Scenario:
    """One CLI invocation: ``blochlab <kind> --config <name>.json ...``."""

    name: str
    kind: str
    config: dict
    largest: bool = False  # the run a user of this workload waits on
    csv: bool = False  # bands: also pass --out
    fringe: bool = False  # superselect: also pass --fringe-prefix

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, indent=1, sort_keys=True) + "\n").encode()


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # str seeding hashes with SHA-512, so the stream is the same on every
    # platform and Python version
    return random.Random(f"blochlab-bench/{workload}/{seed}/{pass_index}")


def _harmonic(rng: random.Random, j: int, magnitude: float) -> dict:
    """Coefficient c_j with |c_j| in [0.5, 1] x magnitude and a random phase."""
    r = magnitude * rng.uniform(0.5, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return {"j": j, "re": r * math.cos(phi), "im": r * math.sin(phi)}


def _potential(rng: random.Random, magnitudes: tuple[float, ...]) -> dict:
    return {"harmonics": [_harmonic(rng, j + 1, m) for j, m in enumerate(magnitudes)]}


def _lattice(cells: int, dim: int) -> dict:
    return {"cells": cells, "cutoff": (dim - 1) // 2}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _random_hermitian(rng: random.Random, dim: int, spectral_norm: float) -> np.ndarray:
    a = np.array(
        [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)] for _ in range(dim)]
    )
    h = 0.5 * (a + a.conj().T)
    return h * (spectral_norm / float(np.max(np.abs(np.linalg.eigvalsh(h)))))


def _two_level_drive(rng: random.Random, steps: int) -> dict:
    """The shipped floquet_two_level drive with both amplitudes drawn in
    [0.5, 1] x the shipped 0.3 (static splitting) and 0.5 (sin drive)."""
    a = 0.3 * rng.uniform(0.5, 1.0)
    b = 0.5 * rng.uniform(0.5, 1.0)
    return {
        "omega": 1.0,
        "h0": [[[a, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-a, 0.0]]],
        "drives": [
            {"harmonic": 1, "kind": "sin", "matrix": [[[0.0, 0.0], [b, 0.0]], [[b, 0.0], [0.0, 0.0]]]}
        ],
        "steps": steps,
        "trajectory_points": TRAJECTORY_POINTS,
        "sambe_hmax": SAMBE_HMAX,
        "probe": dict(PROBE),
    }


def _d8_drive(rng: random.Random) -> dict:
    """Random d=8 static part and cos drive, each at spectral norm 0.3 hbar*omega."""
    h0 = _random_hermitian(rng, 8, 0.3)
    v = _random_hermitian(rng, 8, 0.3)
    return {
        "omega": 1.0,
        "h0": _matrix_json(h0),
        "drives": [{"harmonic": 1, "kind": "cos", "matrix": _matrix_json(v)}],
        "steps": FLOQUET_D8_STEPS,
        "trajectory_points": TRAJECTORY_POINTS,
        "sambe_hmax": SAMBE_HMAX,
        "probe": dict(PROBE),
    }


# ---------------------------------------------------------------------------
# the four workloads


def desk(seed: int, pass_index: int) -> list[Scenario]:
    """The shipped lattice configs at desk scale (d = 9, 9 and 15), with
    report, band CSV and fringe CSV files written.

    Chosen because it is the only workload where the fixed cost of one CLI
    run shows: argparse construction, config validation, report rendering
    and atomic writes are a fifth or more of a ~40 ms pass.  The seed draws
    both potentials; bands_free stays free so its exact free-particle check
    runs.  Not listed in BENCHMARK.json: being interpreter-bound, its pass_s
    moved by 4-34% (IQR/median over 5-10 runs) with the machine's load.
    """
    rng = _rng("desk", seed, pass_index)
    return [
        Scenario("bands_free", "bands", {"kind": "bands", "lattice": _lattice(3, 9)}, csv=True),
        Scenario(
            "superselect_mathieu",
            "superselect",
            {
                "kind": "superselect",
                "lattice": _lattice(3, 9),
                "potential": _potential(rng, (0.25,)),
                "battery": {"seeds": BATTERY_SEEDS},
                "negative_control": {"s": 1},
                "fringe_points": 64,
            },
            fringe=True,
        ),
        Scenario(
            "wannier_mathieu",
            "wannier",
            {
                "kind": "wannier",
                "lattice": _lattice(5, 15),
                "potential": _potential(rng, (0.25, 0.1)),
                "battery": {"seeds": BATTERY_SEEDS},
                "wannier": {"bands": [0, 1], "home_cells": [0, 1, 2]},
            },
            largest=True,
        ),
    ]


def superselect_sweep(seed: int, pass_index: int) -> list[Scenario]:
    """Superselect runs (25-member battery, s=1, 64 fringe points) over the
    lattice sweep, then the shipped two-level drive at 4096 steps.

    Chosen because it is dominated by cross-class sector pairs:
    sector_decomposition_report forms bras^H O kets for N(N-1)/2 class pairs
    per battery member, ~83% of the d=495 scenario, and norm_max is
    recomputed for every pair.  This is the workload where a sector-pair or
    norm-caching gain shows.  Its time is mostly BLAS on operators of up to
    3.9 MB, which kept its pass time within ~10% from run to run on a shared
    2-core VM whose speed drifts by up to 1.7x.  The trailing floquet run
    (~4% of a pass) puts the floquet layer and the schur kernel on a gated
    workload; floquet-sweep, where that layer dominates, swings too much on
    such a machine to gate (see NOTES.md).
    """
    rng = _rng("superselect-sweep", seed, pass_index)
    scenarios = [
        Scenario(
            f"superselect_N{cells}_d{dim}",
            "superselect",
            {
                "kind": "superselect",
                "lattice": _lattice(cells, dim),
                "potential": _potential(rng, (0.25, 0.1)),
                "battery": {"seeds": BATTERY_SEEDS},
                "negative_control": {"s": 1},
                "fringe_points": 64,
            },
            largest=(cells, dim) == LATTICE_SWEEP[-1],
        )
        for cells, dim in LATTICE_SWEEP
    ]
    scenarios.append(
        Scenario(
            "floquet_two_level_4096",
            "floquet",
            {"kind": "floquet", "floquet": _two_level_drive(rng, 4096)},
        )
    )
    return scenarios


def wannier_sweep(seed: int, pass_index: int) -> list[Scenario]:
    """Wannier runs (bands 0,1; home cells 0,1,2) over the same lattice sweep.

    Chosen because it takes the same lattice/bloch/battery path as
    superselect-sweep but forms no cross-class pairs: at d=495 battery
    assembly (observables) and diagonal expectation values
    (wannier_mixture_residual) dominate.  A sector-pair gain is predicted to
    show zero here; a battery gain shows large.
    """
    rng = _rng("wannier-sweep", seed, pass_index)
    return [
        Scenario(
            f"wannier_N{cells}_d{dim}",
            "wannier",
            {
                "kind": "wannier",
                "lattice": _lattice(cells, dim),
                "potential": _potential(rng, (0.25, 0.1)),
                "battery": {"seeds": BATTERY_SEEDS},
                "wannier": {"bands": [0, 1], "home_cells": [0, 1, 2]},
            },
            largest=(cells, dim) == LATTICE_SWEEP[-1],
        )
        for cells, dim in LATTICE_SWEEP
    ]


def floquet_sweep(seed: int, pass_index: int) -> list[Scenario]:
    """The shipped two-level drive over a step sweep, plus one random d=8 drive.

    Chosen because all of its time is in floquet and none in the lattice
    layers: at d=2 it is bound by the Python stepping loop (>= 12,288 2x2
    eigh calls per 4096-step run), at d=8 less so.  1024 steps is left out
    on purpose: it fails cross_method at 1.98e-6 against the 1e-6 bound,
    which is that check doing its job; 2048 passes at 4.9e-7.  Not listed in
    BENCHMARK.json: the Python stepping loop slows by up to 1.7x when the
    machine is loaded, and its pass_s moved by 16-28% over 5-10 runs.
    """
    rng = _rng("floquet-sweep", seed, pass_index)
    scenarios = [
        Scenario(
            f"floquet_two_level_{steps}",
            "floquet",
            {"kind": "floquet", "floquet": _two_level_drive(rng, steps)},
            largest=steps == max(FLOQUET_SWEEP_STEPS),
        )
        for steps in FLOQUET_SWEEP_STEPS
    ]
    scenarios.append(
        Scenario("floquet_d8_4096", "floquet", {"kind": "floquet", "floquet": _d8_drive(rng)})
    )
    return scenarios


# BENCHMARK.json gates superselect-sweep and wannier-sweep; desk and
# floquet-sweep run through the same command for by-hand comparisons.
WORKLOADS = {
    "desk": desk,
    "superselect-sweep": superselect_sweep,
    "wannier-sweep": wannier_sweep,
    "floquet-sweep": floquet_sweep,
}


# ---------------------------------------------------------------------------
# what a correct run reports, and the work it does (computed, not traced)


def expected_checks(scenario: Scenario) -> set[str]:
    """Check names a passing report must carry for this kind and size.

    A check missing from the report is a silently skipped check and fails
    the scenario.
    """
    cfg = scenario.config
    if scenario.kind == "bands":
        checks = {"orthonormal", "eigen_residual", "translation_eigen"}
        if not cfg.get("potential", {}).get("harmonics"):
            checks.add("free_particle_exact")
        return checks
    if scenario.kind == "superselect":
        checks = {"cross_sector_leakage", "fringe_flat"}
        if _bands_per_class(cfg) >= 2:
            checks |= {"positive_control", "fringe_matches_element"}
        if "negative_control" in cfg:
            checks.add("negative_control")
        return checks
    if scenario.kind == "wannier":
        return {"unit_norm", "translation_covariance", "mixture_identity"}
    return {
        "unitarity", "cross_method", "sambe_match", "mode_periodicity",
        "phase_relation", "average_bound", "monodromy_commuting",
    }


def _dim(cfg: dict) -> int:
    return 2 * cfg["lattice"]["cutoff"] + 1


def _bands_per_class(cfg: dict) -> int:
    return _dim(cfg) // cfg["lattice"]["cells"]


def computed_work(scenarios: list[Scenario]) -> dict[str, float]:
    """Work counts of one pass, computed from its configs.

    - bloch.eigensolves: class blocks diagonalised (N per lattice scenario).
    - superselection.sector_pairs: class pairs x battery members.
    - superselection.sector_gflop: real flops of bras^H O kets over those
      pairs, 8 per complex multiply-add, (b d^2 + b^2 d) multiply-adds per
      pair and member with b = d/N bands per class, in units of 1e9.
    - floquet.integrator_steps: midpoint + RK4 cross-check + trajectory +
      probe steps.
    """
    eigensolves = pairs = gflop = steps = 0
    for s in scenarios:
        cfg = s.config
        if s.kind in ("bands", "superselect", "wannier"):
            eigensolves += cfg["lattice"]["cells"]
        if s.kind == "superselect":
            n, d = cfg["lattice"]["cells"], _dim(cfg)
            b = d // n
            pair_members = n * (n - 1) // 2 * BATTERY_SIZE
            pairs += pair_members
            gflop += pair_members * (b * d * d + b * b * d) * 8 / 1e9
        if s.kind == "floquet":
            fl = cfg["floquet"]
            n = fl["steps"]
            segments = fl["trajectory_points"] - 1
            grid = fl["probe"]["grid"]
            steps += 2 * n + segments * -(-n // segments) + grid * -(-n // grid)
    return {
        "bloch.eigensolves": eigensolves,
        "superselection.sector_pairs": pairs,
        "superselection.sector_gflop": gflop,
        "floquet.integrator_steps": steps,
    }
