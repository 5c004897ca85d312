"""Deterministic report rendering and artifact writing.

Reports must be byte-identical across reruns (modulo the timing block), so
floats are rendered explicitly at 17 significant digits (enough to round-trip
any double) instead of relying on repr, complex numbers become two-element
[re, im] arrays, matrices nest row-major, and a run's files are written in
one stage (a unique, fsynced temp file each, then the renames).
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


# values that render as JSON arrays or objects: a list holding one is never inlined
_NESTED = (dict, list, tuple, np.ndarray, complex, np.complexfloating)


def render_json(obj, indent: int = 0) -> str:
    """Render a report structure with explicit float formatting, in one pass.

    numpy scalars render as the Python values they hold, arrays and tuples as
    lists, complex values as [re, im] pairs and NaN as null.  Dicts keep
    insertion order; the caller controls key order, which makes the byte
    stream reproducible.
    """
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "null" if obj != obj else format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, (complex, np.complexfloating)):
        obj = (obj.real, obj.imag)
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
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (float, np.floating)) for v in obj):  # the scalar rule, inline
            rendered = ["null" if v != v else format_float(v) for v in obj]
        else:
            rendered = [render_json(v, indent + 1) for v in obj]
        if not any(isinstance(v, _NESTED) for v in obj) and sum(map(len, rendered)) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(f"{inner}{r}" for r in rendered) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def canonical_hash(obj) -> str:
    """SHA-256 of the canonical rendering; used to echo configs verifiably."""
    return hashlib.sha256(render_json(obj).encode()).hexdigest()


def atomic_write_text(files: dict[str | Path, str]) -> None:
    """Write ``files`` (path -> text) via unique, fsynced temps beside them, renamed in order.

    A failure before the first rename leaves every target as it was, a failed
    rename the ones before it replaced; no temp file is left either way, and
    the parent directories this call created are removed again if empty."""
    temps, made = [], []  # (temp, target); directories created here
    try:
        for path, text in files.items():
            path = Path(path)
            missing = [d for d in (path.parent, *path.parent.parents) if not d.is_dir()]
            path.parent.mkdir(parents=True, exist_ok=True)
            made += reversed(missing)  # outermost first
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            temps.append((tmp, path))
            with os.fdopen(fd, "w") as f:
                os.fchmod(fd, 0o666 & ~_UMASK)  # mkstemp creates 0600; match a plain open()
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
        while temps:
            os.replace(*temps[0])  # a renamed temp is its target: no longer ours to remove
            del temps[0]
    except BaseException:
        for tmp, _ in temps:
            os.unlink(tmp)
        for directory in reversed(made):  # innermost first; a renamed target keeps its own
            if not any(directory.iterdir()):
                directory.rmdir()
        raise


def bands_csv(results: dict) -> str:
    """CSV table `l,k,band,energy` of a bands run's results, one row per state."""
    lines = ["l,k,band,energy"]
    for sector, (k, energies) in enumerate(zip(results["k_values"], results["energies"])):
        for band, energy in enumerate(energies):
            lines.append(f"{sector},{format_float(k)},{band},{format_float(energy)}")
    return "\n".join(lines) + "\n"


def fringe_csv(scan: dict) -> str:
    """CSV series `lambda,average` of one relative-phase sweep in a report's results."""
    lines = ["lambda,average"]
    for lam, avg in zip(scan["phases"], scan["averages"]):
        lines.append(f"{format_float(lam)},{format_float(avg)}")
    return "\n".join(lines) + "\n"
