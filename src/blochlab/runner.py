"""Scenario execution: compute, check invariants, emit reports.

Every run produces a RunReport that is self-contained (full config echo plus
its hash, the tolerances actually used, per-invariant pass flags) and
deterministic except for the trailing ``timing`` block.  Output files are
written atomically next to the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
    mode_trajectory,
    propagate_period,
    quasienergy_distance,
    sambe_quasienergies,
    solve_floquet,
    temporal_overlap_probe,
)
from .lattice import HermitianOperator, build_basis, build_hamiltonian, build_translation
from .observables import Battery, breaking_observable, check_cell_periodicity
from .reports import (
    atomic_write_text,
    bands_csv,
    canonical_hash,
    emit_fringe_series,
    jsonable,
    render_json,
)
from .superselection import fringe_scan, sector_decomposition_report, wannier_mixture_residual

TOOL_NAME = "blochlab"


@dataclass
class RunReport:
    kind: str
    config: dict
    config_sha256: str
    tolerances: dict
    results: dict
    checks: dict
    timing: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> dict:
        return {
            "tool": {"name": TOOL_NAME, "version": __version__},
            "kind": self.kind,
            "config_sha256": self.config_sha256,
            "config": self.config,
            "tolerances": self.tolerances,
            "results": self.results,
            "checks": self.checks,
            "passed": self.passed,
            "timing": self.timing,
        }


def render_report(report: RunReport) -> str:
    return render_json(jsonable(report.as_dict())) + "\n"


def stable_report_bytes(report: RunReport) -> bytes:
    """Rendering with the timing block dropped; the determinism contract."""
    payload = report.as_dict()
    payload.pop("timing")
    return (render_json(jsonable(payload)) + "\n").encode()


def _solve_lattice(cfg: ScenarioConfig):
    spec = cfg.lattice
    basis = build_basis(spec)
    h = build_hamiltonian(spec, cfg.potential)
    t = build_translation(spec)
    return spec, basis, h, t, solve_bands(h, spec)


def _configured_battery(cfg: ScenarioConfig, basis) -> Battery:
    """The config's battery section as a Battery; its rejections are config errors."""
    b = cfg.battery
    try:
        return Battery(
            basis, seeds=b.seeds, max_harmonic=b.max_harmonic, degree=b.degree,
            named=b.named, custom=b.custom,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "/battery") from exc


def _stream(battery: Battery) -> Iterator[HermitianOperator]:
    """The members one at a time; a member the basis rejects is a config error.

    A consumer that drops each member before taking the next holds one
    member at a time instead of the whole battery.
    """
    for i in range(len(battery)):
        try:
            op = battery.member(i)
        except ValueError as exc:
            raise ConfigError(str(exc), "/battery") from exc
        yield op


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    started = time.perf_counter()
    runner = {
        "bands": _run_bands,
        "superselect": _run_superselect,
        "wannier": _run_wannier,
        "floquet": _run_floquet,
    }[cfg.kind]
    results, checks = runner(cfg)
    timing = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_clock_s": time.perf_counter() - started,
    }
    return RunReport(
        kind=cfg.kind,
        config=cfg.echo,
        config_sha256=canonical_hash(cfg.echo),
        tolerances=cfg.resolved_tolerances(),
        results=results,
        checks=checks,
        timing=timing,
    )


# ---------------------------------------------------------------------------
# bands


def _run_bands(cfg: ScenarioConfig):
    spec, basis, h, t, structure = _solve_lattice(cfg)
    quality = _solver_quality_checks(cfg, h, t, structure)

    results = {
        "dimension": basis.dim,
        "bands_per_class": structure.bands,
        "k_values": list(structure.k_values),
        "energies": [list(row) for row in structure.energies],
        "deviations": quality["deviations"],
    }
    checks = dict(quality["checks"])

    if cfg.potential.is_free:
        kinetic = (spec.hbar * basis.momenta[structure.rows]) ** 2 / (2.0 * spec.mass)
        worst = float(np.max(np.abs(structure.energies - np.sort(kinetic, axis=1))))
        results["deviations"]["free_particle"] = worst
        checks["free_particle_exact"] = worst < 1e-12 * max(1.0, h.norm_max)

    if "csv" in cfg.output:
        atomic_write_text(cfg.output["csv"], bands_csv(structure))
    return results, checks


def _solver_quality_checks(cfg: ScenarioConfig, h, t, bands):
    psi = bands.coeffs.reshape(-1, h.dim)  # one state per row
    gram = psi.conj() @ psi.T
    ortho = float(np.max(np.abs(gram - np.eye(len(psi)))))
    energies = bands.energies.reshape(-1, 1)
    eig_resid = float(np.max(np.linalg.norm(h.apply(psi) - energies * psi, axis=1)))
    eig_resid /= max(h.norm_max, 1e-300)
    eigenphases = np.repeat(np.exp(1j * bands.k_values * cfg.lattice.a), bands.bands)[:, None]
    trans_resid = float(np.max(np.linalg.norm(t * psi - eigenphases * psi, axis=1)))
    deviations = {
        "orthonormality": ortho,
        "eigen_residual": eig_resid,
        "translation_eigen": trans_resid,
    }
    checks = {
        "orthonormal": ortho < cfg.tolerance("solver_zero"),
        "eigen_residual": eig_resid < cfg.tolerance("eigen_residual"),
        "translation_eigen": trans_resid < cfg.tolerance("solver_zero"),
    }
    return {"deviations": deviations, "checks": checks}


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
    spec, basis, h, t, bands = _solve_lattice(cfg)
    battery = _configured_battery(cfg, basis)

    sector_report = sector_decomposition_report(bands, _stream(battery))
    max_leak = sector_report.max_offdiagonal

    results: dict = {
        "dimension": basis.dim,
        "battery": list(sector_report.battery_labels),
        "leakage": [list(row) for row in sector_report.leakage],
        "max_cross_leakage": max_leak,
    }
    checks = {"cross_sector_leakage": max_leak < cfg.tolerance("structural_zero")}

    # the stream is spent: the scanned members are built again, one at a time
    scan_member = battery.labels.index("cos_a") if "cos_a" in battery.labels else 0
    cross_scan = fringe_scan(
        battery.member(scan_member), bands.state(0, 0), bands.state(1, 0), cfg.fringe_points
    )
    results["fringe_cross"] = _scan_fields(cross_scan)
    checks["fringe_flat"] = cross_scan.amplitude < cfg.tolerance("solver_zero")
    if "fringe_prefix" in cfg.output:
        emit_fringe_series(cross_scan, cfg.output["fringe_prefix"] + "_cross.csv")

    within = sector_report.within_sector  # [sector, member], None for one band
    if within is not None:
        worst_sector = float(np.min(np.max(within, axis=1)))
        results["positive_control_min"] = worst_sector
        checks["positive_control"] = worst_sector > cfg.tolerance("positive_control")

        # scan the battery member with the strongest within-sector element, so
        # the fringe-vs-element comparison runs away from parity-forced zeros
        member = int(np.argmax(within[0]))
        element = float(within[0, member])
        within_scan = fringe_scan(
            battery.member(member), bands.state(0, 0), bands.state(0, 1), cfg.fringe_points
        )
        results["fringe_within"] = {**_scan_fields(within_scan), "cross_element": element}
        if element > cfg.tolerance("positive_control"):
            ratio_error = abs(within_scan.amplitude - 2.0 * element) / (2.0 * element)
            results["fringe_within"]["relative_mismatch"] = ratio_error
            checks["fringe_matches_element"] = ratio_error < 0.01
        if "fringe_prefix" in cfg.output:
            emit_fringe_series(within_scan, cfg.output["fringe_prefix"] + "_within.csv")

    if cfg.negative_control_shift is not None:
        shift = cfg.negative_control_shift
        breaker = breaking_observable(shift, basis)
        periodicity = check_cell_periodicity(breaker, t)
        breaking_scan = fringe_scan(
            breaker, bands.state(0, 0), bands.state(shift % spec.cells, 0), cfg.fringe_points
        )
        results["negative_control"] = {
            "shift": shift,
            "periodicity_violation": periodicity.max_violation,
            "fringe_amplitude": breaking_scan.amplitude,
        }
        checks["negative_control"] = (
            not periodicity.is_cell_periodic
            and breaking_scan.amplitude > cfg.tolerance("negative_control")
        )

    return results, checks


# ---------------------------------------------------------------------------
# wannier


def _run_wannier(cfg: ScenarioConfig):
    spec, basis, h, t, bands = _solve_lattice(cfg)
    battery = _configured_battery(cfg, basis)

    norm_dev = 0.0
    covariance = 0.0
    wanniers = []  # (band, home cell, d)
    for band in cfg.wannier.bands:
        w0 = wannier_state(band, 0, bands, spec)
        w1 = wannier_state(band, 1, bands, spec)
        covariance = max(covariance, float(np.linalg.norm(t.conj() * w0 - w1)))
        rows = np.array([wannier_state(band, cell, bands, spec) for cell in cfg.wannier.home_cells])
        norm_dev = max(norm_dev, float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0))))
        wanniers.append(rows)
    wanniers = np.array(wanniers)
    band_coeffs = bands.coeffs[:, list(cfg.wannier.bands)].transpose(1, 0, 2)  # (band, class, d)
    per_band_mixture = np.zeros(len(cfg.wannier.bands))
    for op in _stream(battery):
        residual = wannier_mixture_residual(wanniers, band_coeffs, op)
        np.maximum(per_band_mixture, residual, out=per_band_mixture)
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
        "unit_norm": norm_dev < cfg.tolerance("solver_zero"),
        "translation_covariance": covariance < cfg.tolerance("solver_zero"),
        "mixture_identity": mixture < cfg.tolerance("wannier_mixture"),
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
    solution = solve_floquet(
        drive, steps=fl.steps, grids=(fl.trajectory_points - 1, fl.probe.grid)
    )
    unitarity = solution.unitarity_defect

    other = propagate_period(drive, steps=fl.steps, method="fourth-order")
    cross = float(np.max(np.abs(solution.monodromy - other.monodromy)))

    sambe = sambe_quasienergies(drive, fl.sambe_hmax)
    sambe_diff = quasienergy_distance(solution.quasienergies, sambe, drive.omega, drive.hbar)

    solution = mode_trajectory(solution, fl.trajectory_points)
    periodicity = float(np.max(solution.periodicity_residuals))

    results = {
        "dimension": drive.dim,
        "method": solution.method,
        "steps": fl.steps,
        "quasienergies": list(solution.quasienergies),
        "sambe_quasienergies": list(sambe),
        "unitarity_defect": unitarity,
        "cross_method_disagreement": cross,
        "sambe_disagreement": sambe_diff,
        "mode_periodicity_residual": periodicity,
    }
    checks = {
        "unitarity": unitarity < cfg.tolerance("unitarity"),
        "cross_method": cross < cfg.tolerance("cross_method"),
        "sambe_match": sambe_diff < cfg.tolerance("sambe_match"),
        "mode_periodicity": periodicity < cfg.tolerance("mode_periodicity"),
    }

    observable = fl.probe.observable or _default_probe_observable(drive.dim)
    try:
        probe = temporal_overlap_probe(
            solution,
            observable,
            pair=fl.probe.pair,
            periods=fl.probe.periods,
            grid_points=fl.probe.grid,
        )
    except ValueError as exc:
        raise NumericalFailure(f"temporal probe rejected: {exc}") from exc

    slack = 1.0 + cfg.tolerance("average_slack")
    averages = dict(probe.period_averages)
    bounds = dict(probe.geometric_bounds)
    results["probe"] = {
        "pair": list(probe.pair),
        "splitting": probe.splitting,
        "grid_points": probe.grid_points,
        "phase_relation_residual": probe.phase_relation_residual,
        "period_averages": [[k, averages[k]] for k in sorted(averages)],
        "geometric_bounds": [[k, bounds[k]] for k in sorted(bounds)],
        "bound_coefficient": probe.bound_coefficient,
        "monodromy_commuting_element": probe.monodromy_commuting_element,
    }
    checks["phase_relation"] = probe.phase_relation_residual < cfg.tolerance("phase_relation")
    checks["average_bound"] = all(averages[k] <= slack * bounds[k] for k in averages)
    checks["monodromy_commuting"] = (
        probe.monodromy_commuting_element < cfg.tolerance("monodromy_commuting")
    )
    return results, checks
