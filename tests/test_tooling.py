"""The benchmark's tracer still finds every program name it traces.

``perfbench/tracer.py`` wraps program functions by name; a name it cannot
find is reported absent, and its per-layer metrics read zero.  A renamed or
deleted function would so look like a gain.  The tracer is imported from
its file and used as it is.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# traced names the program no longer has, each listed in ROADMAP.md
ALREADY_MISSING = {
    "lattice.HermitianOperator.init",
    "lattice.HermitianOperator.norm_max",
    "observables.named_observables",
    "observables.random_cell_periodic",
    "observables.build_observable",
    "superselection.matrix_element",
    "floquet.mode_trajectory",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_program_name_resolves():
    tracer = load_tracer()
    traced = {name for name, module, _ in tracer.TARGETS if module.startswith("blochlab")}
    assert ALREADY_MISSING <= traced
    with tracer.Tracer().installed() as installed:
        absent = set(installed.absent)
    assert absent <= ALREADY_MISSING, f"traced names not found: {sorted(absent - ALREADY_MISSING)}"
