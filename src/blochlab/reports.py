"""Deterministic report rendering and artifact writing.

Reports must be byte-identical across reruns (modulo the timing block).  They
are strict JSON from the standard encoder, two-space indented with one list
entry per line, and their floats are written as ``repr``: the shortest
decimal that round-trips the double, the same on every platform.  A
non-finite float raises ValueError and a value JSON has no form for (a numpy
integer or bool, a complex) raises TypeError, so the caller gives each value
its JSON form.  A run's files are written in one stage (a unique, fsynced
temp file each, then the renames).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

_UMASK = os.umask(0)
os.umask(_UMASK)


def render_json(obj) -> str:
    """``obj`` as strict JSON; dicts keep insertion order, which the caller controls."""
    return json.dumps(obj, indent=2, allow_nan=False)


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
            lines.append(f"{sector},{float(k)!r},{band},{float(energy)!r}")
    return "\n".join(lines) + "\n"


def fringe_csv(scan: dict) -> str:
    """CSV series `lambda,average` of one relative-phase sweep in a report's results."""
    lines = ["lambda,average"]
    for lam, avg in zip(scan["phases"], scan["averages"]):
        lines.append(f"{float(lam)!r},{float(avg)!r}")
    return "\n".join(lines) + "\n"
