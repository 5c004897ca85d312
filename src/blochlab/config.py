"""Scenario configuration: strict JSON schema with pointer-carrying errors.

Configs drive the four scenario kinds (bands, superselect, wannier, floquet).
Validation is strict: unknown keys are rejected anywhere in the tree, and
every error names the offending location as a JSON pointer so misspelled
keys cannot silently disable a check.  Complex matrix entries are written as
two-element [re, im] arrays (a bare number is accepted as a real entry);
matrices nest row-major.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .floquet import MIN_STEPS, DriveSpec, DriveTerm, PeriodicObservableSpec
from .lattice import LatticeSpec, PotentialSpec, build_basis
from .observables import (
    MAX_POLY_DEGREE,
    NAMED_OBSERVABLES,
    Battery,
    ObservableSpec,
    ObservableTerm,
)

KINDS = ("bands", "superselect", "wannier", "floquet")

# Upper bounds on the fields that set a run's length, so that a typo such as
# 10**9 probe periods is a config error instead of a run that takes hours.
MAX_STEPS = 65536
MAX_TRAJECTORY_POINTS = 4097
MAX_SAMBE_HMAX = 64  # one dense eigh d (2 h + 1) wide: 2064, ~8 s at d = 16
MAX_GRID_POINTS = 4096  # probe.grid and fringe_points
MAX_PROBE_PERIODS = 1024
MAX_BATTERY_SEEDS = 200

DEFAULT_TOLERANCES: dict[str, float] = {
    # lattice side
    "structural_zero": 1e-12,  # cross-sector leakage, relative to ||O||_max
    "solver_zero": 1e-10,  # eigensolver-mediated zeros (orthonormality, flat fringes)
    "free_particle": 1e-12,  # free band energies vs q^2 / 2m, relative to max(1, ||H||_max)
    "eigen_residual": 1e-9,  # ||H psi - E psi|| relative to ||H||_max
    "positive_control": 1e-4,
    "fringe_match": 0.01,  # within-sector fringe amplitude vs 2 |element|, relative
    "negative_control": 1e-6,
    "wannier_mixture": 1e-10,
    # driven side
    "unitarity": 1e-10,
    "cross_method": 1e-6,
    "sambe_match": 1e-6,
    "mode_periodicity": 1e-8,
    "phase_relation": 1e-7,
    "average_slack": 0.10,
    "average_floor": 1e-12,  # absolute allowance on the K-period averages, times max_t |F(t)|
    "monodromy_commuting": 1e-10,
}


@dataclass(frozen=True)
class WannierConfig:
    bands: tuple[int, ...] = (0, 1)
    home_cells: tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class ProbeConfig:
    pair: tuple[int, int] = (0, 1)
    periods: tuple[int, ...] = (8, 16, 32, 64)
    grid: int = 256
    observable: PeriodicObservableSpec | None = None


@dataclass(frozen=True)
class FloquetConfig:
    drive: DriveSpec
    steps: int = 4096
    sambe_hmax: int = 12
    probe: ProbeConfig = field(default_factory=ProbeConfig)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    lattice: LatticeSpec | None = None
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    battery: Battery | None = None  # superselect and wannier only
    wannier: WannierConfig = field(default_factory=WannierConfig)
    floquet: FloquetConfig | None = None
    negative_control_shift: int | None = None
    fringe_points: int = 64
    tolerances: dict[str, float] = field(default_factory=dict)
    output: dict[str, str] = field(default_factory=dict)
    echo: dict = field(default_factory=dict)

    def tolerance(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def resolved_tolerances(self) -> dict[str, float]:
        out = dict(DEFAULT_TOLERANCES)
        out.update(self.tolerances)
        return out


# ---------------------------------------------------------------------------
# low-level validated readers; every one threads the JSON pointer through


def _expect_mapping(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {type(value).__name__}", pointer)
    return value


def _check_keys(obj: dict, allowed: set[str], pointer: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")


def _get_int(obj: dict, key: str, pointer: str, default=None, minimum=None, maximum=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", f"{pointer}/{key}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", f"{pointer}/{key}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"must be <= {maximum}, got {value}", f"{pointer}/{key}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, pointer: str) -> float:
    """float(value), rejecting NaN and infinities (JSON parsing lets them in)."""
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"expected a finite number, got {value!r}", pointer)
    return out


def _get_float(obj: dict, key: str, pointer: str, default=None, positive=False):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if not _is_number(value):
        raise ConfigError("expected a number", f"{pointer}/{key}")
    value = _finite(value, f"{pointer}/{key}")
    if positive and value <= 0:
        raise ConfigError(f"must be positive, got {value}", f"{pointer}/{key}")
    return value


def _get_str(obj: dict, key: str, pointer: str, choices=None):
    if key not in obj:
        raise ConfigError(f"missing required key {key!r}", pointer)
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError("expected a string", f"{pointer}/{key}")
    if choices is not None and value not in choices:
        raise ConfigError(f"must be one of {sorted(choices)}, got {value!r}", f"{pointer}/{key}")
    return value


def _parse_complex_entry(value, pointer: str) -> complex:
    if _is_number(value):
        return complex(_finite(value, pointer))
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_finite(value[0], f"{pointer}/0"), _finite(value[1], f"{pointer}/1"))
    raise ConfigError("expected a number or [re, im] pair", pointer)


def _parse_matrix(value, pointer: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError("expected a non-empty nested array (row-major matrix)", pointer)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError("matrix must be square, rows of equal length", f"{pointer}/{i}")
        rows.append([_parse_complex_entry(v, f"{pointer}/{i}/{j}") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# section parsers


def _parse_lattice(obj, pointer: str) -> LatticeSpec:
    obj = _expect_mapping(obj, pointer)
    _check_keys(obj, {"cells", "cutoff", "a", "mass", "hbar", "pad_basis"}, pointer)
    cells = _get_int(obj, "cells", pointer, minimum=2)
    cutoff = _get_int(obj, "cutoff", pointer, minimum=1)
    pad = obj.get("pad_basis", False)
    if not isinstance(pad, bool):
        raise ConfigError("expected a boolean", f"{pointer}/pad_basis")
    try:
        return LatticeSpec(
            cells=cells,
            cutoff=cutoff,
            a=_get_float(obj, "a", pointer, default=1.0, positive=True),
            mass=_get_float(obj, "mass", pointer, default=1.0, positive=True),
            hbar=_get_float(obj, "hbar", pointer, default=1.0, positive=True),
            pad_basis=pad,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), f"{pointer}/cutoff") from exc


def _parse_harmonics(raw, pointer: str) -> tuple[tuple[int, complex], ...]:
    """[{"j": int, "re": 0, "im": 0}, ...] for potentials and custom terms alike;
    each caller applies its own j = 0 policy."""
    if not isinstance(raw, list):
        raise ConfigError("expected an array of harmonic objects", pointer)
    harmonics = []
    for i, item in enumerate(raw):
        hp = f"{pointer}/{i}"
        item = _expect_mapping(item, hp)
        _check_keys(item, {"j", "re", "im"}, hp)
        j = _get_int(item, "j", hp)
        harmonics.append(
            (j, complex(_get_float(item, "re", hp, default=0.0), _get_float(item, "im", hp, default=0.0)))
        )
    return tuple(harmonics)


def _parse_potential(obj, pointer: str) -> PotentialSpec:
    obj = _expect_mapping(obj, pointer)
    _check_keys(obj, {"v0", "harmonics"}, pointer)
    harmonics = _parse_harmonics(obj.get("harmonics", []), f"{pointer}/harmonics")
    for i, (j, _) in enumerate(harmonics):
        if j == 0:
            raise ConfigError("harmonic index must be nonzero; use v0", f"{pointer}/harmonics/{i}/j")
    return PotentialSpec(harmonics=harmonics, v0=_get_float(obj, "v0", pointer, default=0.0))


def observable_spec_from_json(data, pointer: str = "") -> ObservableSpec:
    """Parse the documented observable schema:
    {"terms": [{"f": [{"j": 1, "re": 0.5, "im": 0.0}], "p_poly": [0.0, 1.0]}],
     "symmetrize": true}
    """
    data = _expect_mapping(data, pointer)
    _check_keys(data, {"terms", "symmetrize"}, pointer)
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ConfigError("expected a non-empty array of terms", f"{pointer}/terms")
    symmetrize = data.get("symmetrize", True)
    if not isinstance(symmetrize, bool):
        raise ConfigError("expected a boolean", f"{pointer}/symmetrize")
    terms = []
    for i, raw in enumerate(raw_terms):
        tp = f"{pointer}/terms/{i}"
        raw = _expect_mapping(raw, tp)
        _check_keys(raw, {"f", "p_poly"}, tp)
        harmonics = _parse_harmonics(raw.get("f", []), f"{tp}/f")
        poly = raw.get("p_poly", [])
        if not isinstance(poly, list) or not all(_is_number(v) for v in poly):
            raise ConfigError("expected an array of real coefficients", f"{tp}/p_poly")
        poly = tuple(_finite(v, f"{tp}/p_poly/{k}") for k, v in enumerate(poly))
        try:
            terms.append(ObservableTerm(f_harmonics=harmonics, p_poly=poly))
        except ValueError as exc:
            raise ConfigError(str(exc), tp) from exc
    return ObservableSpec(terms=tuple(terms), symmetrize=symmetrize)


def _parse_battery(obj, pointer: str, lattice: LatticeSpec) -> Battery:
    """The battery section as a Battery on the lattice's basis.

    Only the keys the section sets are passed, so every default is Battery's.
    An empty battery, and a ``max_harmonic`` whose offset j*N reaches past
    the cutoff, are config errors.
    """
    obj = _expect_mapping(obj, pointer)
    _check_keys(obj, {"seeds", "named", "max_harmonic", "degree", "custom"}, pointer)
    settings = {}
    if "named" in obj:
        named = obj["named"]
        if not isinstance(named, list) or not all(isinstance(n, str) for n in named):
            raise ConfigError("expected an array of observable names", f"{pointer}/named")
        for i, name in enumerate(named):
            if name not in NAMED_OBSERVABLES:
                raise ConfigError(
                    f"unknown named observable {name!r}; choices {list(NAMED_OBSERVABLES)}",
                    f"{pointer}/named/{i}",
                )
        settings["named"] = tuple(named)
    if "custom" in obj:
        if not isinstance(obj["custom"], list):
            raise ConfigError("expected an array of observable specs", f"{pointer}/custom")
        settings["custom"] = tuple(
            observable_spec_from_json(item, f"{pointer}/custom/{i}")
            for i, item in enumerate(obj["custom"])
        )
    for key, maximum in (
        ("seeds", MAX_BATTERY_SEEDS), ("max_harmonic", None), ("degree", MAX_POLY_DEGREE)
    ):
        if key in obj:
            settings[key] = _get_int(obj, key, pointer, minimum=0, maximum=maximum)
    try:
        battery = Battery(build_basis(lattice), **settings)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer) from exc
    if battery.max_harmonic * lattice.cells > lattice.cutoff:
        raise ConfigError(
            f"max_harmonic {battery.max_harmonic} unreachable for this lattice "
            f"(need j*cells <= cutoff)",
            f"{pointer}/max_harmonic",
        )
    return battery


def _parse_wannier(obj, pointer: str) -> WannierConfig:
    obj = _expect_mapping(obj, pointer)
    _check_keys(obj, {"bands", "home_cells"}, pointer)

    def int_list(key, default):
        raw = obj.get(key, default)
        if not isinstance(raw, list) or not raw or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in raw
        ):
            raise ConfigError(
                "expected a non-empty array of non-negative integers", f"{pointer}/{key}"
            )
        return tuple(raw)

    return WannierConfig(bands=int_list("bands", [0, 1]), home_cells=int_list("home_cells", [0, 1]))


def _parse_drive_terms(raw, pointer: str) -> tuple[DriveTerm, ...]:
    if not isinstance(raw, list):
        raise ConfigError("expected an array of drive terms", pointer)
    terms = []
    for i, item in enumerate(raw):
        tp = f"{pointer}/{i}"
        item = _expect_mapping(item, tp)
        _check_keys(item, {"harmonic", "kind", "matrix"}, tp)
        if "matrix" not in item:
            raise ConfigError("missing required key 'matrix'", tp)
        try:
            terms.append(
                DriveTerm(
                    harmonic=_get_int(item, "harmonic", tp, default=1, minimum=1),
                    kind=_get_str(item, "kind", tp, choices={"cos", "sin"}),
                    matrix=_parse_matrix(item["matrix"], f"{tp}/matrix"),
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc), f"{tp}/matrix") from exc
    return tuple(terms)


def _parse_probe(obj, pointer: str, dim: int) -> ProbeConfig:
    obj = _expect_mapping(obj, pointer)
    _check_keys(obj, {"pair", "periods", "grid", "observable"}, pointer)
    pair = obj.get("pair", [0, 1])
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        or not all(0 <= v < dim for v in pair)
        or pair[0] == pair[1]
    ):
        raise ConfigError(f"expected two distinct mode indices in [0, {dim})", f"{pointer}/pair")
    periods = obj.get("periods", [8, 16, 32, 64])
    if (
        not isinstance(periods, list)
        or not periods
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in periods)
    ):
        raise ConfigError(
            "expected a non-empty array of positive period counts", f"{pointer}/periods"
        )
    for i, count in enumerate(periods):
        if count > MAX_PROBE_PERIODS:
            raise ConfigError(
                f"must be <= {MAX_PROBE_PERIODS}, got {count}", f"{pointer}/periods/{i}"
            )
    observable = None
    if "observable" in obj:
        op = f"{pointer}/observable"
        oraw = _expect_mapping(obj["observable"], op)
        _check_keys(oraw, {"static", "harmonics"}, op)
        if "static" not in oraw:
            raise ConfigError("missing required key 'static'", op)
        try:
            observable = PeriodicObservableSpec(
                static=_parse_matrix(oraw["static"], f"{op}/static"),
                harmonics=_parse_drive_terms(oraw.get("harmonics", []), f"{op}/harmonics"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), op) from exc
    return ProbeConfig(
        pair=(pair[0], pair[1]),
        periods=tuple(periods),
        grid=_get_int(obj, "grid", pointer, default=256, minimum=8, maximum=MAX_GRID_POINTS),
        observable=observable,
    )


def _parse_floquet(obj, pointer: str) -> FloquetConfig:
    obj = _expect_mapping(obj, pointer)
    _check_keys(
        obj,
        {"omega", "hbar", "h0", "drives", "steps", "trajectory_points", "sambe_hmax", "probe"},
        pointer,
    )
    if "h0" not in obj:
        raise ConfigError("missing required key 'h0'", pointer)
    try:
        drive = DriveSpec(
            h0=_parse_matrix(obj["h0"], f"{pointer}/h0"),
            omega=_get_float(obj, "omega", pointer, positive=True),
            drives=_parse_drive_terms(obj.get("drives", []), f"{pointer}/drives"),
            hbar=_get_float(obj, "hbar", pointer, default=1.0, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), pointer) from exc
    steps = _get_int(obj, "steps", pointer, default=4096, minimum=MIN_STEPS, maximum=MAX_STEPS)
    probe = _parse_probe(obj.get("probe", {}), f"{pointer}/probe", drive.dim)
    # retired: no result reads it, but the benchmark's generated configs still
    # set it and an unknown key is a config error, so it is range-checked only
    _get_int(
        obj, "trajectory_points", pointer, default=257, minimum=2, maximum=MAX_TRAJECTORY_POINTS
    )
    return FloquetConfig(
        drive=drive,
        steps=steps,
        sambe_hmax=_get_int(
            obj, "sambe_hmax", pointer, default=12, minimum=4, maximum=MAX_SAMBE_HMAX
        ),
        probe=probe,
    )


def _parse_tolerances(obj, pointer: str) -> dict[str, float]:
    obj = _expect_mapping(obj, pointer)
    out = {}
    for key, value in obj.items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {key!r}", f"{pointer}/{key}")
        if not _is_number(value) or value <= 0:
            raise ConfigError("expected a positive number", f"{pointer}/{key}")
        out[key] = _finite(value, f"{pointer}/{key}")
    return out


def _parse_output(obj, pointer: str) -> dict[str, str]:
    obj = _expect_mapping(obj, pointer)
    _check_keys(obj, {"csv", "report", "fringe_prefix"}, pointer)
    out = {}
    for key, value in obj.items():
        if not isinstance(value, str) or not value:
            raise ConfigError("expected a non-empty path string", f"{pointer}/{key}")
        out[key] = value
    return out


_SECTIONS_BY_KIND = {
    "bands": {"kind", "lattice", "potential", "tolerances", "output"},
    "superselect": {
        "kind", "lattice", "potential", "battery", "negative_control",
        "fringe_points", "tolerances", "output",
    },
    "wannier": {"kind", "lattice", "potential", "battery", "wannier", "tolerances", "output"},
    "floquet": {"kind", "floquet", "tolerances", "output"},
}


def validate_config(data: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig."""
    data = _expect_mapping(data, "")
    kind = _get_str(data, "kind", "", choices=set(KINDS))
    allowed = _SECTIONS_BY_KIND[kind]
    known = set().union(*_SECTIONS_BY_KIND.values())
    for key in data:
        if key in allowed:
            continue
        if key in known:
            raise ConfigError(f"section {key!r} not allowed for kind {kind!r}", f"/{key}")
        raise ConfigError(f"unknown key {key!r}", f"/{key}")

    lattice = None
    if kind in ("bands", "superselect", "wannier"):
        if "lattice" not in data:
            raise ConfigError("missing required section 'lattice'", "")
        lattice = _parse_lattice(data["lattice"], "/lattice")

    potential = _parse_potential(data.get("potential", {}), "/potential")
    battery = None
    if "battery" in allowed:  # bands and floquet build no battery
        battery = _parse_battery(data.get("battery", {}), "/battery", lattice)
    wannier = _parse_wannier(data.get("wannier", {}), "/wannier")

    floquet_cfg = None
    if kind == "floquet":
        if "floquet" not in data:
            raise ConfigError("missing required section 'floquet'", "")
        floquet_cfg = _parse_floquet(data["floquet"], "/floquet")

    shift = None
    if "negative_control" in data:
        nc = _expect_mapping(data["negative_control"], "/negative_control")
        _check_keys(nc, {"s"}, "/negative_control")
        shift = _get_int(nc, "s", "/negative_control", minimum=1)
        if lattice is not None and shift % lattice.cells == 0:
            raise ConfigError(
                f"shift {shift} is a multiple of {lattice.cells}: not periodicity-breaking",
                "/negative_control/s",
            )
        if lattice is not None and shift > 2 * lattice.cutoff:
            raise ConfigError(
                f"shift must lie in [1, {2 * lattice.cutoff}] for this lattice, got {shift}",
                "/negative_control/s",
            )

    fringe_points = _get_int(
        data, "fringe_points", "", default=64, minimum=8, maximum=MAX_GRID_POINTS
    )

    if kind == "wannier":
        for key, limit in (("bands", lattice.dim // lattice.cells), ("home_cells", lattice.cells)):
            for i, index in enumerate(getattr(wannier, key)):
                if index >= limit:
                    raise ConfigError(
                        f"must be < {limit} on this lattice, got {index}", f"/wannier/{key}/{i}"
                    )

    return ScenarioConfig(
        kind=kind,
        lattice=lattice,
        potential=potential,
        battery=battery,
        wannier=wannier,
        floquet=floquet_cfg,
        negative_control_shift=shift,
        fringe_points=fringe_points,
        tolerances=_parse_tolerances(data.get("tolerances", {}), "/tolerances"),
        output=_parse_output(data.get("output", {}), "/output"),
        echo=data,
    )


def parse_config(
    path: str | Path, edits: tuple[tuple[str, str, object], ...] = ()
) -> ScenarioConfig:
    """Read, parse and validate a scenario file.

    ``edits`` are (section, key, value) settings written into the parsed JSON
    tree before validation, so they pass the file's own checks and appear in
    the echoed config and its hash.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}", "") from exc
    for section, key, value in edits:
        # a tree or section that is not an object is left for validation to reject
        if isinstance(data, dict) and isinstance(data.setdefault(section, {}), dict):
            data[section][key] = value
    return validate_config(data)
