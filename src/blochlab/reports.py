"""Deterministic report rendering and artifact writing.

Reports must be byte-identical across reruns (modulo the timing block), so
floats are rendered explicitly at 17 significant digits (enough to round-trip
any double) instead of relying on repr, complex numbers become two-element
[re, im] arrays, matrices nest row-major, and files are written atomically
(unique temp file, fsync, rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

_UMASK = os.umask(0)
os.umask(_UMASK)


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering; round-trips float64 exactly."""
    if x != x:  # NaN: never emitted into reports, but keep rendering total
        return "nan"
    return f"{float(x):.17g}"


def jsonable(obj):
    """Normalize numpy scalars/arrays and complex values for rendering."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return None if value != value else value
    return obj


def render_json(obj, indent: int = 0) -> str:
    """Render a normalized structure with explicit float formatting.

    Dicts keep insertion order; the caller controls key order, which makes
    the byte stream reproducible.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in obj]
        if all(not isinstance(v, (dict, list)) for v in obj) and sum(map(len, rendered)) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(f"{inner}{r}" for r in rendered) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def canonical_hash(obj) -> str:
    """SHA-256 of the canonical rendering; used to echo configs verifiably."""
    return hashlib.sha256(render_json(jsonable(obj)).encode()).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write through a unique, fsynced temp file in the target's directory,
    then rename it over the target; a failed write leaves the target as it
    was and removes the temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(fd, 0o666 & ~_UMASK)  # mkstemp creates 0600; match a plain open()
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def bands_csv(band_structure) -> str:
    """CSV table `l,k,band,energy`, one row per state, lexicographic order."""
    lines = ["l,k,band,energy"]
    for (sector, band), energy in np.ndenumerate(band_structure.energies):
        k = band_structure.k_values[sector]
        lines.append(f"{sector},{format_float(k)},{band},{format_float(energy)}")
    return "\n".join(lines) + "\n"


def fringe_csv(scan) -> str:
    """CSV series `lambda,average` for one relative-phase sweep."""
    lines = ["lambda,average"]
    for lam, avg in zip(scan.phases, scan.averages):
        lines.append(f"{format_float(lam)},{format_float(avg)}")
    return "\n".join(lines) + "\n"


def emit_fringe_series(scan, path: str | Path) -> None:
    """Write a fringe scan as plot-ready CSV (atomic)."""
    atomic_write_text(path, fringe_csv(scan))
