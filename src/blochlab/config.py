"""Scenario configuration: strict JSON schema with pointer-carrying errors.

Configs drive the four scenario kinds (bands, superselect, wannier, floquet).
Validation is strict: each JSON object is read by one table of its keys, so
unknown keys are rejected anywhere in the tree, and every error names the
offending location as a JSON pointer so misspelled keys cannot silently
disable a check.  Complex matrix entries are written as
two-element [re, im] arrays (a bare number is accepted as a real entry);
matrices nest row-major.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .floquet import MIN_STEPS, DriveSpec, DriveTerm, PeriodicObservableSpec
from .lattice import LatticeSpec, PotentialSpec
from .observables import (
    MAX_MEMBER_ENTRY,
    MAX_POLY_DEGREE,
    NAMED_OBSERVABLES,
    Battery,
    ObservableSpec,
    ObservableTerm,
    breaking_observable,
)

KINDS = ("bands", "superselect", "wannier", "floquet")

# Upper bounds on the fields that set a run's length, so that a typo such as
# 10**9 probe periods is a config error instead of a run that takes hours.
MAX_STEPS = 65536
MAX_TRAJECTORY_POINTS = 4097
MAX_SAMBE_HMAX = 64  # one dense eigvalsh d (2 h + 1) wide: 2064, ~6 s at d = 16
# A drive or probe harmonic h couples Sambe blocks n and n + h, so one above
# 2 * MAX_SAMBE_HMAX couples no two blocks of the largest Sambe space (and an
# h past the float range overflowed the phase h * omega * t to an OverflowError).
MAX_DRIVE_HARMONIC = 2 * MAX_SAMBE_HMAX
MAX_GRID_POINTS = 4096  # probe.grid and fringe_points
MAX_PROBE_PERIODS = 1024
MAX_BATTERY_SEEDS = 200
# Lengths of the lists whose entries each add work (README caps table).  A
# drive term is summed into H(t) at every step sample: the d = 16 cap run
# took 10.5 s with one term and 13.3 s with 16 and 64 observable harmonics,
# which are summed on the probe grid alone.  The widest custom member sets
# every table's width: the widest battery took 11.1 s with one, 19.6 s with 100.
MAX_DRIVE_TERMS = 16
MAX_OBSERVABLE_HARMONICS = 64
MAX_BATTERY_CUSTOM = 100

# Bound on each Hamiltonian input: the kinetic energy at the largest |q|, v0,
# and the real and imaginary part of every folded potential harmonic.  H's
# entries then stay below 2e150, so ||H|| <= d max|H_ij| <= 1.1e153 for
# d <= MAX_DIMENSION, and the solver-quality norms (||H psi - E psi||^2 <=
# 4 ||H||^2 <= 5e306 the largest) stay finite, with no overflow warning.
MAX_HAMILTONIAN_ENTRY = 1e150

DEFAULT_TOLERANCES: dict[str, float] = {
    # lattice side
    "structural_zero": 1e-12,  # cross-sector leakage, relative to ||O||_max
    "solver_zero": 1e-10,  # eigensolver-mediated zeros (orthonormality, flat fringes)
    "free_particle": 1e-12,  # free band energies vs q^2 / 2m, relative to max(1, ||H||_max)
    "eigen_residual": 1e-9,  # ||H psi - E psi|| relative to ||H||_max
    "positive_control": 1e-4,
    "fringe_match": 0.01,  # within-sector fringe's first harmonic vs |element|, relative
    "negative_control": 1e-6,
    "wannier_mixture": 1e-10,  # Wannier vs band-averaged <O>, relative to max(1, ||O||_max)
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
    # every key of DEFAULT_TOLERANCES, the config's overrides merged in
    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output: dict[str, str] = field(default_factory=dict)
    echo: dict = field(default_factory=dict)  # the config as given, output section aside


# ---------------------------------------------------------------------------
# readers: reader(value, pointer) returns the value read, or raises a
# ConfigError at ``pointer``.  Each JSON object is read by one table of
# key -> (reader, default); ``_read`` documents the defaults.

_REQUIRED = object()  # the table default of a key that must be given


def _read(value, pointer: str, table: dict) -> dict:
    """The values of one JSON object, read by its table.

    Unknown keys are rejected before any value is read, then the keys are read
    in table order.  An absent key reads its default, is a missing-key error
    when the default is ``_REQUIRED``, and is left out when the default is
    None, so that the constructor the values go to supplies it.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {type(value).__name__}", pointer)
    for key in value:
        if key not in table:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")
    values = {}
    for key, (reader, default) in table.items():
        if key in value:
            values[key] = reader(value[key], f"{pointer}/{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}", pointer)
        elif default is not None:
            values[key] = reader(default, f"{pointer}/{key}")
    return values


def _built(build, pointer: str, **values):
    """build(**values), its ValueError turned into a ConfigError at ``pointer``."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer) from exc


def _object(value, pointer: str, table: dict, build, at: str = ""):
    """The object that ``build`` makes of a table's values; its errors point at pointer + at."""
    return _built(build, pointer + at, **_read(value, pointer, table))


def _int(value, pointer: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", pointer)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", pointer)
    if maximum is not None and value > maximum:
        raise ConfigError(f"must be <= {maximum}, got {value}", pointer)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value, pointer: str, positive: bool = False) -> float:
    """float(value), rejecting NaN and infinities (JSON parsing lets them in)."""
    if not _is_number(value):
        raise ConfigError("expected a number", pointer)
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"expected a finite number, got {value!r}", pointer)
    if positive and out <= 0:
        raise ConfigError(f"must be positive, got {out}", pointer)
    return out


_positive = partial(_float, positive=True)


def _bool(value, pointer: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError("expected a boolean", pointer)
    return value


def _str(value, pointer: str, choices=None) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError("expected a non-empty string", pointer)
    if choices is not None and value not in choices:
        raise ConfigError(f"must be one of {list(choices)}, got {value!r}", pointer)
    return value


# The output keys each kind writes, in the order their files are written
# (the report last), and the files each key names, as suffixes of its value.
OUTPUT_KEYS = {
    "bands": {"csv": ("",), "report": ("",)},
    "superselect": {"fringe_prefix": ("_cross.csv", "_within.csv"), "report": ("",)},
    "wannier": {"report": ("",)},
    "floquet": {"report": ("",)},
}


def output_path(value, pointer: str, suffixes: tuple[str, ...]) -> str:
    """An output path, naming its value plus each suffix, checked before any solve runs.

    No file it names may be a directory or end in a separator (pathlib
    drops it, so "afile/" would replace the file afile), and the nearest
    ancestor of each that exists must be a directory, so that the missing
    ones can be made.
    """
    path = _str(value, pointer)
    if "\0" in path:  # pathlib reads such a path as absent, and open() refuses it
        raise ConfigError("output path holds a NUL byte", pointer)
    for suffix in suffixes:
        if (path + suffix).endswith(("/", os.sep)):
            raise ConfigError(f"output path {path + suffix!r} names a directory", pointer)
        target = Path(path + suffix)
        try:
            if target.is_dir():
                raise ConfigError(f"output path {str(target)!r} is a directory", pointer)
            ancestor = next((p for p in target.parents if p.exists()), None)
            if ancestor is not None and not ancestor.is_dir():
                raise ConfigError(
                    f"output path {str(target)!r} lies under the file {str(ancestor)!r}", pointer
                )
        except OSError as exc:  # e.g. a name too long
            raise ConfigError(f"cannot use output path {path!r}: {exc}", pointer) from exc
    return path


def _list(
    value, pointer: str, item, nonempty: bool = False, distinct: bool = False, maximum=None
) -> tuple:
    """The array's entries, each read by ``item``.

    With ``distinct``, a repeat is an error at its own pointer; with
    ``maximum``, an array longer than that is an error at the array's.
    """
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"expected {'a non-empty' if nonempty else 'an'} array", pointer)
    if maximum is not None and len(value) > maximum:
        raise ConfigError(f"must hold <= {maximum} entries, got {len(value)}", pointer)
    entries, first = [], {}  # first: the index each entry was first read at
    for i, v in enumerate(value):
        entry = item(v, f"{pointer}/{i}")
        if distinct and first.setdefault(entry, i) != i:
            raise ConfigError(f"repeats entry {first[entry]} ({entry!r})", f"{pointer}/{i}")
        entries.append(entry)
    return tuple(entries)


def _complex(value, pointer: str) -> complex:
    if _is_number(value):
        return complex(_float(value, pointer))
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_float(value[0], f"{pointer}/0"), _float(value[1], f"{pointer}/1"))
    raise ConfigError("expected a number or [re, im] pair", pointer)


def _matrix(value, pointer: str) -> np.ndarray:
    rows = _list(value, pointer, partial(_list, item=_complex), nonempty=True)
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ConfigError("matrix must be square, rows of equal length", f"{pointer}/{i}")
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# builders, and the rules that span more than one key


def _check_momentum_scale(spec: LatticeSpec) -> None:
    """Refuse a lattice whose operators overflow at the largest |q| of its grid.

    The kinetic energy (hbar q)^2 / 2m must stay within MAX_HAMILTONIAN_ENTRY,
    and the battery's momentum powers up to MAX_POLY_DEGREE finite.  The
    spec's momenta are first formed here, so a lattice constant that
    overflows them warns nowhere.
    """
    with np.errstate(over="ignore"):
        p = spec.hbar * float(np.max(np.abs(spec.momenta)))
        kinetic = p * p / (2.0 * spec.mass)
        power = np.float64(p) ** MAX_POLY_DEGREE
        if not (kinetic <= MAX_HAMILTONIAN_ENTRY and np.isfinite(power)):
            raise ConfigError(
                f"momentum scale hbar*q_max = {p:.3g} gives a kinetic energy beyond "
                f"{MAX_HAMILTONIAN_ENTRY:.0e}, or overflows the momentum power {MAX_POLY_DEGREE}",
                "/lattice",
            )


def _check_potential_scale(potential: PotentialSpec) -> None:
    """Refuse a potential with an entry beyond MAX_HAMILTONIAN_ENTRY.

    Checked on v0 and on the folded harmonics, whose entries on one index are
    summed: two finite inputs can fold to an infinite coefficient.
    """
    parts = [potential.v0] + [x for _, c in potential.harmonics for x in (c.real, c.imag)]
    worst = max(abs(x) for x in parts)
    if not worst <= MAX_HAMILTONIAN_ENTRY:
        raise ConfigError(
            f"potential entry of magnitude {worst:.3g} (v0 or a folded harmonic) "
            f"exceeds {MAX_HAMILTONIAN_ENTRY:.0e}",
            "/potential",
        )


def _harmonic(j: int, re: float, im: float) -> tuple[int, complex]:
    return j, complex(re, im)


def _potential_harmonic(j: int, re: float, im: float) -> tuple[int, complex]:
    # PotentialSpec refuses j = 0 too, but only this check can point at the item
    if j == 0:
        raise ValueError("harmonic index must be nonzero; use v0")
    return _harmonic(j, re, im)


def _floquet(probe: ProbeConfig, trajectory_points=None, **values) -> FloquetConfig:
    """The floquet section, its probe checked against the drive's dimension.

    The Sambe diagonal h*hbar*omega, up to |h| = MAX_SAMBE_HMAX, is a
    Hamiltonian entry and stays within MAX_HAMILTONIAN_ENTRY (past the float
    range the Sambe eigensolve raised LinAlgError), and the probe observable
    is bounded as a battery member is: every real and imaginary part of its
    entries within MAX_MEMBER_ENTRY (near the float range its period sums
    overflowed to inf).  ``trajectory_points`` is retired: no result reads
    it, but the benchmark's generated configs still set it and an unknown key
    is a config error, so it is range-checked by the table and dropped here.
    """
    run = {key: values.pop(key) for key in ("steps", "sambe_hmax") if key in values}
    drive = DriveSpec(**values)
    zone = drive.hbar * drive.omega  # Python floats: an overflow is inf, with no warning
    if not zone * MAX_SAMBE_HMAX <= MAX_HAMILTONIAN_ENTRY:
        raise ConfigError(
            f"hbar*omega = {zone:.3g} times the Sambe cap {MAX_SAMBE_HMAX} exceeds "
            f"{MAX_HAMILTONIAN_ENTRY:.0e}",
            "/floquet",
        )
    d, pair = drive.dim, probe.pair
    if len(pair) != 2 or pair[0] == pair[1] or max(pair) >= d:
        raise ConfigError(f"expected two distinct mode indices in [0, {d})", "/floquet/probe/pair")
    observable = probe.observable
    if observable is not None:
        if observable.static.shape != drive.h0.shape:
            raise ConfigError(
                f"observable dimension {len(observable.static)} differs from the drive's {d}",
                "/floquet/probe/observable",
            )
        parts = np.array([observable.static] + [term.matrix for term in observable.harmonics])
        worst = float(np.max(np.abs([parts.real, parts.imag])))
        if not worst <= MAX_MEMBER_ENTRY:
            raise ConfigError(
                f"observable entry part of magnitude {worst:.3g} exceeds {MAX_MEMBER_ENTRY:.0e}",
                "/floquet/probe/observable",
            )
    return FloquetConfig(drive=drive, probe=probe, **run)


# ---------------------------------------------------------------------------
# the schema: one table per JSON object

_HARMONIC = {"j": (_int, _REQUIRED), "re": (_float, 0.0), "im": (_float, 0.0)}

_TERM = {
    "f": (partial(_list, item=partial(_object, table=_HARMONIC, build=_harmonic)), []),
    "p_poly": (partial(_list, item=_float), []),
}

# {"terms": [{"f": [{"j": 1, "re": 0.5, "im": 0.0}], "p_poly": [0.0, 1.0]}]}
# reads a sum of terms, each the symmetrized product (F*P + P*F)/2
_OBSERVABLE = {
    "terms": (
        partial(
            _list,
            item=partial(_object, table=_TERM, build=lambda f, p_poly: ObservableTerm(f, p_poly)),
            nonempty=True,
        ),
        [],
    ),
}

_LATTICE = {
    "cells": (partial(_int, minimum=2), _REQUIRED),
    "cutoff": (partial(_int, minimum=1), _REQUIRED),
    "a": (_positive, None),
    "mass": (_positive, None),
    "hbar": (_positive, None),
    "pad_basis": (_bool, None),
}

_POTENTIAL = {
    "v0": (_float, None),
    "harmonics": (
        partial(
            _list, item=partial(_object, table=_HARMONIC, build=_potential_harmonic, at="/j")
        ),
        None,
    ),
}

_BATTERY = {  # no defaults: Battery keeps the only ones
    "seeds": (partial(_int, minimum=0, maximum=MAX_BATTERY_SEEDS), None),
    "named": (partial(_list, item=partial(_str, choices=NAMED_OBSERVABLES), distinct=True), None),
    "max_harmonic": (partial(_int, minimum=0), None),
    "degree": (partial(_int, minimum=0, maximum=MAX_POLY_DEGREE), None),
    "custom": (
        partial(
            _list,
            item=partial(_object, table=_OBSERVABLE, build=ObservableSpec),
            maximum=MAX_BATTERY_CUSTOM,
        ),
        None,
    ),
}

_indices = partial(_list, item=partial(_int, minimum=0), nonempty=True, distinct=True)
_WANNIER = {"bands": (_indices, None), "home_cells": (_indices, None)}

_DRIVE_TERM = {
    "harmonic": (partial(_int, minimum=1, maximum=MAX_DRIVE_HARMONIC), 1),
    "kind": (partial(_str, choices=("cos", "sin")), _REQUIRED),
    "matrix": (_matrix, _REQUIRED),
}
_drive_term = partial(_object, table=_DRIVE_TERM, build=DriveTerm, at="/matrix")

_PROBE = {
    "pair": (partial(_list, item=partial(_int, minimum=0)), None),
    "periods": (
        partial(
            _list,
            item=partial(_int, minimum=1, maximum=MAX_PROBE_PERIODS),
            nonempty=True,
            distinct=True,
        ),
        None,
    ),
    "grid": (partial(_int, minimum=8, maximum=MAX_GRID_POINTS), None),
    "observable": (
        partial(
            _object,
            table={
                "static": (_matrix, _REQUIRED),
                "harmonics": (
                    partial(_list, item=_drive_term, maximum=MAX_OBSERVABLE_HARMONICS), None
                ),
            },
            build=PeriodicObservableSpec,
        ),
        None,
    ),
}

_FLOQUET = {
    "h0": (_matrix, _REQUIRED),
    "omega": (_positive, _REQUIRED),
    "drives": (partial(_list, item=_drive_term, maximum=MAX_DRIVE_TERMS), None),
    "hbar": (_positive, None),
    "steps": (partial(_int, minimum=MIN_STEPS, maximum=MAX_STEPS), None),
    "trajectory_points": (partial(_int, minimum=2, maximum=MAX_TRAJECTORY_POINTS), None),
    "sambe_hmax": (partial(_int, minimum=4, maximum=MAX_SAMBE_HMAX), None),
    "probe": (partial(_object, table=_PROBE, build=ProbeConfig), {}),
}

_TOLERANCES = {key: (_positive, None) for key in DEFAULT_TOLERANCES}

_SECTIONS = {
    "kind": (partial(_str, choices=KINDS), _REQUIRED),
    # LatticeSpec's own errors are divisibility and the dimension cap
    "lattice": (partial(_object, table=_LATTICE, build=LatticeSpec, at="/cutoff"), _REQUIRED),
    "potential": (partial(_object, table=_POTENTIAL, build=PotentialSpec), {}),
    "battery": (partial(_read, table=_BATTERY), {}),  # built on the lattice
    "negative_control": (
        partial(_read, table={"s": (partial(_int, minimum=1), _REQUIRED)}), None
    ),
    "fringe_points": (partial(_int, minimum=8, maximum=MAX_GRID_POINTS), None),
    "wannier": (partial(_object, table=_WANNIER, build=WannierConfig), {}),
    "floquet": (partial(_object, table=_FLOQUET, build=_floquet), _REQUIRED),
    "tolerances": (partial(_read, table=_TOLERANCES), None),
}

# the sections each kind reads; each also reads "output", by its OUTPUT_KEYS table
_SECTIONS_BY_KIND = {
    "bands": ("kind", "lattice", "potential", "tolerances"),
    "superselect": (
        "kind", "lattice", "potential", "battery", "negative_control",
        "fringe_points", "tolerances",
    ),
    "wannier": ("kind", "lattice", "potential", "battery", "wannier", "tolerances"),
    "floquet": ("kind", "floquet", "tolerances"),
}


def validate_config(data: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object, got {type(data).__name__}", "")
    if "kind" not in data:
        raise ConfigError("missing required key 'kind'", "")
    kind = _str(data["kind"], "/kind", choices=KINDS)
    sections = _SECTIONS_BY_KIND[kind]
    for key in data:
        if key in _SECTIONS and key not in sections:
            raise ConfigError(f"section {key!r} not allowed for kind {kind!r}", f"/{key}")
    table = {key: _SECTIONS[key] for key in sections}
    output = {key: (partial(output_path, suffixes=s), None) for key, s in OUTPUT_KEYS[kind].items()}
    values = _read(data, "", {**table, "output": (partial(_read, table=output), None)})

    lattice = values.get("lattice")
    if lattice is not None:
        if not math.isfinite(lattice.circumference):  # every momentum would read 0
            raise ConfigError(
                f"circumference cells * a overflows for a = {lattice.a!r}", "/lattice/a"
            )
        _check_momentum_scale(lattice)
        _check_potential_scale(values["potential"])
    if "battery" in values:  # superselect and wannier
        battery = _built(partial(Battery, lattice), "/battery", **values["battery"])
        values["battery"] = battery
        if battery.max_harmonic * lattice.cells > lattice.cutoff:
            raise ConfigError(
                f"max_harmonic {battery.max_harmonic} unreachable for this lattice "
                f"(need j*cells <= cutoff)",
                "/battery/max_harmonic",
            )
    if "negative_control" in values:
        shift, at = values.pop("negative_control")["s"], "/negative_control/s"
        _built(breaking_observable, at, shift=shift, lattice=lattice)
        # the run scans class 0 against class s mod N, which the entries (m, m + s)
        # join only from a class-0 plane wave m at or below the top index minus s
        reach = int(lattice.indices[-1] - lattice.indices[lattice.class_rows[0, 0]])
        if shift > reach:
            raise ConfigError(f"must be <= {reach} to reach class 0 on this basis, got {shift}", at)
        values["negative_control_shift"] = shift
    if kind == "wannier":
        for key, limit in (("bands", lattice.dim // lattice.cells), ("home_cells", lattice.cells)):
            for i, index in enumerate(getattr(values["wannier"], key)):
                if index >= limit:
                    raise ConfigError(
                        f"must be < {limit} on this lattice, got {index}", f"/wannier/{key}/{i}"
                    )
    # merged once: every run reads, and its report echoes, the resolved map
    values["tolerances"] = {**DEFAULT_TOLERANCES, **values.get("tolerances", {})}
    # output paths are where a run is written, not what it computes: the file's
    # output section stays out of the echo and its hash, as the flags do
    echo = {key: value for key, value in data.items() if key != "output"}
    return ScenarioConfig(**values, echo=echo)


def _distinct_keys(pairs) -> dict:
    """One JSON object's dict; a repeated key raises ValueError instead of the last one winning."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_config(
    path: str | Path, edits: tuple[tuple[str, str, object], ...] = ()
) -> ScenarioConfig:
    """Read, parse and validate a scenario file.

    A key repeated within one object is malformed JSON here, so that a
    repeat cannot silently replace a value (a check's tolerance, say).
    ``edits`` are (section, key, value) settings written into the parsed JSON
    tree before validation, so they pass the file's own checks and appear in
    the echoed config and its hash.
    """
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_distinct_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "") from exc
    # bad JSON or UTF-8, a repeated key, an integer past Python's digit limit,
    # or too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON: {exc}", "") from exc
    for section, key, value in edits:
        # a tree or section that is not an object is left for validation to reject
        if isinstance(data, dict) and isinstance(data.setdefault(section, {}), dict):
            data[section][key] = value
    return validate_config(data)
