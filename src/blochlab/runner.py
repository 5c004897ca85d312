"""Scenario execution: compute and check invariants, and write nothing.

Every run returns its report as the dict that is written: self-contained
(config echo, output paths aside, plus its hash, the tolerances actually
used, per-invariant pass flags) and deterministic except for the trailing
``timing`` block.  Each result is given its JSON form where it is made (the
leakage diagonal, "not applicable", is None), and a result holding a
non-finite float is a ``NumericalFailure`` that names the float's JSON
pointer.  Nothing is written here: ``cli.main`` renders a run's files from its
report and writes them.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Iterator

import numpy as np

from . import __version__
from .bloch import solve_bands, wannier_state
from .config import ScenarioConfig
from .errors import ConfigError, NumericalFailure
from .floquet import (
    DriveTerm,
    PeriodicObservableSpec,
    propagate_period,
    quasienergy_distance,
    sambe_quasienergies,
    solve_floquet,
    temporal_overlap_probe,
)
from .lattice import OperatorTable, build_hamiltonian, build_translation
from .observables import PERIODICITY_RTOL, Battery, breaking_observable, check_cell_periodicity
from .reports import canonical_hash, render_json
from .superselection import fringe_scan, sector_decomposition_report, wannier_mixture_residual

TOOL_NAME = "blochlab"


def render_report(report: dict) -> str:
    return render_json(report) + "\n"


def stable_report_bytes(report: dict) -> bytes:
    """Rendering with the timing block dropped; the determinism contract."""
    return render_report({key: value for key, value in report.items() if key != "timing"}).encode()


def _solve_lattice(cfg: ScenarioConfig):
    spec = cfg.lattice
    try:
        h = build_hamiltonian(spec, cfg.potential)
    except ValueError as exc:  # zero on this basis: the kinetic energy underflows
        raise ConfigError(str(exc), "/lattice") from exc
    t = build_translation(spec)
    return spec, h, t, solve_bands(h, spec)


def _require_finite(value, pointer: str) -> None:
    """Raise NumericalFailure naming the JSON pointer of a non-finite float in ``value``."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalFailure(f"non-finite result {value} at {pointer}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{pointer}/{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _require_finite(item, f"{pointer}/{index}")


def _tables(battery: Battery) -> Iterator[OperatorTable]:
    """The battery's tables in order; a member the basis rejects is a config error."""
    try:
        yield from battery.tables()
    except ValueError as exc:
        raise ConfigError(str(exc), "/battery") from exc


def run_scenario(cfg: ScenarioConfig) -> dict:
    """The report of one run, keys in their written order."""
    started = time.perf_counter()
    runner = {
        "bands": _run_bands,
        "superselect": _run_superselect,
        "wannier": _run_wannier,
        "floquet": _run_floquet,
    }[cfg.kind]
    results, checks = runner(cfg)
    _require_finite(results, "/results")
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "kind": cfg.kind,
        "config_sha256": canonical_hash(cfg.echo),
        "config": cfg.echo,
        "tolerances": cfg.tolerances,
        "results": results,
        "checks": checks,
        "passed": all(checks.values()),
        "timing": {
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "wall_clock_s": time.perf_counter() - started,
        },
    }


# ---------------------------------------------------------------------------
# bands


def _run_bands(cfg: ScenarioConfig):
    spec, h, t, structure = _solve_lattice(cfg)

    psi = structure.coeffs.reshape(-1, h.dim)  # one state per row
    gram = psi.conj() @ psi.T
    ortho = float(np.max(np.abs(gram - np.eye(len(psi)))))
    eigenphases = np.repeat(np.exp(1j * structure.k_values * spec.a), structure.bands)[:, None]
    trans_resid = float(np.max(np.linalg.norm(t * psi - eigenphases * psi, axis=1)))
    # last and in place, so that H psi is the only extra d x d block alive at the peak
    (residual,) = h.apply(psi)
    residual -= structure.energies.reshape(-1, 1) * psi
    eig_resid = float(np.max(np.linalg.norm(residual, axis=1))) / float(h.norm_max[0])

    results = {
        "dimension": spec.dim,
        "bands_per_class": structure.bands,
        "k_values": list(structure.k_values),
        "energies": [list(row) for row in structure.energies],
        "deviations": {
            "orthonormality": ortho,
            "eigen_residual": eig_resid,
            "translation_eigen": trans_resid,
        },
    }
    checks = {
        "orthonormal": ortho < cfg.tolerances["solver_zero"],
        "eigen_residual": eig_resid < cfg.tolerances["eigen_residual"],
        "translation_eigen": trans_resid < cfg.tolerances["solver_zero"],
    }

    if cfg.potential.is_free:
        # class l holds the plane waves k_l + 2 pi n / a, n = (m - l) / N: an
        # expression apart from the q_m = 2 pi m / L that H was built from
        labels = np.arange(spec.cells)[:, None]
        n = (spec.indices[structure.rows] - labels) // spec.cells
        q = spec.wavevector(labels) + 2.0 * np.pi * n / spec.a
        kinetic = (spec.hbar * q) ** 2 / (2.0 * spec.mass)
        worst = float(np.max(np.abs(structure.energies - np.sort(kinetic, axis=1))))
        results["deviations"]["free_particle"] = worst
        scale = max(1.0, float(h.norm_max[0]))
        checks["free_particle_exact"] = worst < cfg.tolerances["free_particle"] * scale

    return results, checks


# ---------------------------------------------------------------------------
# superselect


def _scan_fields(scan) -> dict:
    return {
        "observable": scan.observable,
        "phases": list(scan.phases),
        "averages": list(scan.averages),
        "amplitude": scan.amplitude,
    }


def _run_superselect(cfg: ScenarioConfig):
    spec, h, t, bands = _solve_lattice(cfg)
    sector_report = sector_decomposition_report(bands, _tables(cfg.battery))
    labels, max_leak = sector_report.battery_labels, sector_report.max_offdiagonal

    leakage = sector_report.leakage.tolist()
    for sector, row in enumerate(leakage):
        row[sector] = None  # within one class: not applicable
    results: dict = {
        "dimension": spec.dim,
        "battery": list(labels),
        "leakage": leakage,
        "max_cross_leakage": max_leak,
    }
    checks = {"cross_sector_leakage": max_leak < cfg.tolerances["structural_zero"]}

    cross_member = cfg.battery.member(labels.index("cos_a") if "cos_a" in labels else 0)
    cross_scan = fringe_scan(cross_member, bands.dense(0, 0), bands.dense(1, 0), cfg.fringe_points)
    results["fringe_cross"] = _scan_fields(cross_scan)
    checks["fringe_flat"] = cross_scan.amplitude < cfg.tolerances["solver_zero"]

    within = sector_report.within_sector  # [sector, member], None for one band
    if within is not None:
        worst_sector = float(np.min(np.max(within, axis=1)))
        results["positive_control_min"] = worst_sector
        checks["positive_control"] = worst_sector > cfg.tolerances["positive_control"]

        # scan the first battery member with the strongest class-0 element, so
        # the fringe-vs-element comparison runs away from parity-forced zeros
        strongest = int(np.argmax(within[0]))
        element = float(within[0, strongest])
        within_scan = fringe_scan(
            cfg.battery.member(strongest), bands.dense(0, 0), bands.dense(0, 1), cfg.fringe_points
        )
        results["fringe_within"] = {**_scan_fields(within_scan), "cross_element": element}
        if element > cfg.tolerances["positive_control"]:
            ratio_error = float(abs(within_scan.first_harmonic - element) / element)
            results["fringe_within"]["relative_mismatch"] = ratio_error
            checks["fringe_matches_element"] = ratio_error < cfg.tolerances["fringe_match"]

    if cfg.negative_control_shift is not None:
        shift = cfg.negative_control_shift
        breaker = breaking_observable(shift, spec)
        violation = check_cell_periodicity(breaker, t)
        breaking_scan = fringe_scan(
            breaker, bands.dense(0, 0), bands.dense(shift % spec.cells, 0), cfg.fringe_points
        )
        results["negative_control"] = {
            "shift": shift,
            "periodicity_violation": violation,
            "fringe_amplitude": breaking_scan.amplitude,
        }
        checks["negative_control"] = (
            not violation < PERIODICITY_RTOL
            and breaking_scan.amplitude > cfg.tolerances["negative_control"]
        )

    return results, checks


# ---------------------------------------------------------------------------
# wannier


def _run_wannier(cfg: ScenarioConfig):
    spec, h, t, bands = _solve_lattice(cfg)

    band_index = np.array(cfg.wannier.bands)[:, None]
    pairs = wannier_state(band_index, [0, 1], bands, spec)  # (band, home cell 0 and 1, d)
    covariance = max(float(np.linalg.norm(t.conj() * w0 - w1)) for w0, w1 in pairs)
    wanniers = wannier_state(band_index, cfg.wannier.home_cells, bands, spec)  # (band, cell, d)
    norm_dev = float(np.max(np.abs(np.linalg.norm(wanniers, axis=-1) - 1.0)))
    band_blocks = bands.blocks[:, list(cfg.wannier.bands)].swapaxes(0, 1)  # (band, class, row)
    residual = wannier_mixture_residual(wanniers, band_blocks, bands.rows, _tables(cfg.battery))
    per_band_mixture = residual.max(axis=0)
    mixture = float(np.max(per_band_mixture))
    per_band = {
        str(band): {"mixture_residual": float(value)}
        for band, value in zip(cfg.wannier.bands, per_band_mixture)
    }

    results = {
        "bands": list(cfg.wannier.bands),
        "home_cells": list(cfg.wannier.home_cells),
        "per_band": per_band,
        "norm_deviation": norm_dev,
        "translation_covariance": covariance,
        "mixture_residual": mixture,
    }
    checks = {
        "unit_norm": norm_dev < cfg.tolerances["solver_zero"],
        "translation_covariance": covariance < cfg.tolerances["solver_zero"],
        "mixture_identity": mixture < cfg.tolerances["wannier_mixture"],
    }
    return results, checks


# ---------------------------------------------------------------------------
# floquet


def _default_probe_observable(dim: int) -> PeriodicObservableSpec:
    """Generic time-dependent Hermitian probe: fixed, documented choice."""
    static = np.zeros((dim, dim), dtype=complex)
    static[0, 1] = static[1, 0] = 1.0
    modulated = np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(dim)]).astype(complex)
    return PeriodicObservableSpec(
        static=static, harmonics=(DriveTerm(harmonic=1, kind="cos", matrix=0.3 * modulated),)
    )


def _run_floquet(cfg: ScenarioConfig):
    fl = cfg.floquet
    drive = fl.drive
    solution = solve_floquet(drive, steps=fl.steps, grid=fl.probe.grid)
    unitarity = solution.unitarity_defect

    other = propagate_period(drive, steps=fl.steps, method="fourth-order")
    cross = float(np.max(np.abs(solution.monodromy - other)))

    sambe = sambe_quasienergies(drive, fl.sambe_hmax)
    sambe_diff = quasienergy_distance(solution.quasienergies, sambe, drive.omega, drive.hbar)

    periodicity = float(np.max(solution.periodicity_residuals))

    results = {
        "dimension": drive.dim,
        "method": "midpoint-exponential",
        "steps": fl.steps,
        "quasienergies": list(solution.quasienergies),
        "sambe_quasienergies": list(sambe),
        "unitarity_defect": unitarity,
        "cross_method_disagreement": cross,
        "sambe_disagreement": sambe_diff,
        "mode_periodicity_residual": periodicity,
    }
    checks = {
        "unitarity": unitarity < cfg.tolerances["unitarity"],
        "cross_method": cross < cfg.tolerances["cross_method"],
        "sambe_match": sambe_diff < cfg.tolerances["sambe_match"],
        "mode_periodicity": periodicity < cfg.tolerances["mode_periodicity"],
    }

    observable = fl.probe.observable or _default_probe_observable(drive.dim)
    try:
        probe = temporal_overlap_probe(
            solution, observable, pair=fl.probe.pair, periods=fl.probe.periods
        )
    except ValueError as exc:
        raise NumericalFailure(f"temporal probe rejected: {exc}") from exc

    slack = 1.0 + cfg.tolerances["average_slack"]
    # a commensurate splitting makes bound_K zero up to rounding, so the
    # averages are also allowed an absolute floor on the scale of |F|
    floor = cfg.tolerances["average_floor"] * probe.max_overlap
    results["probe"] = asdict(probe)
    checks["phase_relation"] = probe.phase_relation_residual < cfg.tolerances["phase_relation"]
    pairs = zip(probe.period_averages, probe.geometric_bounds)
    checks["average_bound"] = all(avg <= slack * bound + floor for (_, avg), (_, bound) in pairs)
    checks["monodromy_commuting"] = (
        probe.monodromy_commuting_element < cfg.tolerances["monodromy_commuting"]
    )
    return results, checks
