"""Outside-in tracer: spans around the calls into blochlab's layers.

The tracer never edits the program.  While installed it replaces each traced
public name, in every blochlab module namespace that binds it, with a
wrapper that records one span (name, start, end, parent).  Modules look
these names up at call time, so calls from ``runner`` into a layer and calls
between layers (``random_cell_periodic`` -> ``build_observable``, or
``solve_floquet`` -> ``propagate_period``) are both seen.  The LAPACK
boundary is traced as the pseudo-layer ``kernel`` by replacing
``numpy.linalg.eigh`` and ``scipy.linalg.schur`` on their modules.

Spans stay in memory; ``write_spans`` stores them when the run ends.  A
span's self time is its duration minus the part of it its child spans
cover.  Everything runs on one thread, so a plain stack gives the parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (metric name, module that defines it, attribute path).  The metric name's
# first part is the layer the time is charged to.  render_report is defined
# in runner, but its work is report rendering (reports.jsonable and
# reports.render_json), so it is charged to the reports layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "blochlab.cli", "main"),
    ("config.parse_config", "blochlab.config", "parse_config"),
    ("runner.run_scenario", "blochlab.runner", "run_scenario"),
    ("reports.render_report", "blochlab.runner", "render_report"),
    ("reports.atomic_write_text", "blochlab.reports", "atomic_write_text"),
    ("lattice.build_hamiltonian", "blochlab.lattice", "build_hamiltonian"),
    ("lattice.HermitianOperator.init", "blochlab.lattice", "HermitianOperator.__init__"),
    ("lattice.HermitianOperator.norm_max", "blochlab.lattice", "HermitianOperator.norm_max"),
    ("bloch.solve_bands", "blochlab.bloch", "solve_bands"),
    ("bloch.wannier_state", "blochlab.bloch", "wannier_state"),
    ("observables.named_observables", "blochlab.observables", "named_observables"),
    ("observables.random_cell_periodic", "blochlab.observables", "random_cell_periodic"),
    ("observables.build_observable", "blochlab.observables", "build_observable"),
    ("observables.check_cell_periodicity", "blochlab.observables", "check_cell_periodicity"),
    ("observables.breaking_observable", "blochlab.observables", "breaking_observable"),
    ("superselection.sector_decomposition_report", "blochlab.superselection",
     "sector_decomposition_report"),
    ("superselection.matrix_element", "blochlab.superselection", "matrix_element"),
    ("superselection.fringe_scan", "blochlab.superselection", "fringe_scan"),
    ("superselection.wannier_mixture_residual", "blochlab.superselection",
     "wannier_mixture_residual"),
    ("floquet.solve_floquet", "blochlab.floquet", "solve_floquet"),
    ("floquet.propagate_period", "blochlab.floquet", "propagate_period"),
    ("floquet.mode_trajectory", "blochlab.floquet", "mode_trajectory"),
    ("floquet.temporal_overlap_probe", "blochlab.floquet", "temporal_overlap_probe"),
    ("floquet.sambe_quasienergies", "blochlab.floquet", "sambe_quasienergies"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.schur", "scipy.linalg", "schur"),
)

LAYERS = (
    "lattice", "bloch", "observables", "superselection", "floquet",
    "config", "runner", "reports", "cli", "kernel",
)


@dataclass
class _Patch:
    owner: object  # module or class
    attr: str
    original: object


class Tracer:
    """Span recorder for the traced names; install it around a traced pass."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.absent: list[str] = []  # traced names the program no longer has
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a new pass."""
        return len(self.start)

    def _wrap(self, idx: int, fn):
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _patches(self) -> list[_Patch]:
        patches: list[_Patch] = []
        self.absent = []
        for idx, (name, module_name, path) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in path:  # a method or property on a class
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                member = vars(cls).get(attr) if isinstance(cls, type) else None
                if isinstance(member, property) and member.fget is not None:
                    patches.append(_Patch(cls, attr, member))
                    setattr(cls, attr, property(self._wrap(idx, member.fget)))
                elif callable(member):
                    patches.append(_Patch(cls, attr, member))
                    setattr(cls, attr, self._wrap(idx, member))
                else:
                    self.absent.append(name)
                continue
            original = getattr(module, path, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, original)
            owners = [module] + [
                m for key, m in sorted(sys.modules.items())
                if (key == "blochlab" or key.startswith("blochlab.")) and m is not module
            ]
            for owner in owners:
                if vars(owner).get(path) is original:
                    patches.append(_Patch(owner, path, original))
                    setattr(owner, path, wrapper)
        return patches

    @contextmanager
    def installed(self):
        patches = self._patches()
        try:
            yield self
        finally:
            for p in reversed(patches):
                setattr(p.owner, p.attr, p.original)

    def summary(self, first: int, last: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per traced name over spans [first, last)."""
        self_time = [self.end[i] - self.start[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                overlap = min(self.end[i], self.end[p]) - max(self.start[i], self.start[p])
                self_time[p - first] -= max(overlap, 0.0)
        out = {name: [0, 0.0] for name in self.names}
        for i in range(first, last):
            entry = out[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += self_time[i - first]
        return {name: (calls, s) for name, (calls, s) in out.items()}

    def write_spans(self, path: Path) -> None:
        """One line per span: id, name, start_s, end_s, parent id (-1 = root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (n, s, e, p) in enumerate(zip(self.name_id, self.start, self.end, self.parent)):
                f.write(f"{i}\t{self.names[n]}\t{s!r}\t{e!r}\t{p}\n")
