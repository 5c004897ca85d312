"""Guards on the program's names: traced ones resolve, and defined ones are reached.

``perfbench/tracer.py`` wraps program functions by name; a name it cannot
find is reported absent, and its per-layer metrics read zero.  A renamed or
deleted function would so look like a gain.  The tracer is imported from
its file and used as it is.

Every function defined in the package is either called by a run of the
shipped configs (every output written) or listed in ``UNREACHED`` with the
reason it stays; a function no run reaches and no reason keeps is dead code.

The shipped runs write strict JSON reports (no NaN or Infinity token, the
leakage diagonal null) and CSV floats in ``repr`` form.

An ``OperatorTable``'s padded diagonal layout is read in ``lattice.py``
alone: every other module reads a table through its methods.
"""

import ast
import cProfile
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import blochlab
from blochlab import cli
from blochlab.lattice import OperatorTable
from test_cli import run_python

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

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


# functions no shipped run calls, by module and qualified name, each with the
# reason it is kept
UNREACHED = {
    "bloch.winding_number": "the paper's topological claim (acceptance criterion 5, on the "
    "product rule), which a run is planned to carry; no run samples a state yet",
    "bloch.ring_phase_samples": "the states of the paper's topological claim, which "
    "winding_number is tested on; kept for the same planned run",
    "cli._Parser.error": "error path: an argparse usage error exits 1",
    "cli.entrypoint": "the console script; the runs call main",
    "config._bool": "parses pad_basis, which no shipped config sets",
    "errors.ConfigError.__init__": "error path: an invalid config",
    "observables.ObservableTerm.__post_init__": "runs at import for the named members, and for "
    "custom members, which no shipped config has",
    "runner.stable_report_bytes": "the determinism contract, which the tests compare reports by",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function in the package's sources."""
    found = {}
    for path in sorted(Path(blochlab.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for inner in code.co_consts:
                if inspect.iscode(inner):
                    stack.append(inner)
                    if inner.co_flags & inspect.CO_NEWLOCALS and not inner.co_name.startswith("<"):
                        found[str(path), inner.co_firstlineno] = f"{path.stem}.{inner.co_qualname}"
    return found


def shipped_runs(tmp_path) -> list[list[str]]:
    """The CLI arguments of each shipped config, every output it names moved into tmp_path."""
    (tmp_path / "out").mkdir()
    argvs = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        data = json.loads(config.read_text())
        data["output"] = {key: str(tmp_path / p) for key, p in data["output"].items()}
        path = tmp_path / config.name
        path.write_text(json.dumps(data))
        argvs.append([data["kind"], "--config", str(path)])
    return argvs


def test_every_function_is_reached_by_a_shipped_run_or_kept_for_a_reason(tmp_path):
    cli._build_parser.cache_clear()  # built once per process: maybe by an earlier test
    profile = cProfile.Profile()
    for argv in shipped_runs(tmp_path):
        profile.enable()
        code = cli.main(argv)
        profile.disable()
        assert code == 0, argv
    codes = [entry.code for entry in profile.getstats() if inspect.iscode(entry.code)]
    called = {(code.co_filename, code.co_firstlineno) for code in codes}
    unreached = {name for key, name in defined_functions().items() if key not in called}
    assert unreached - set(UNREACHED) == set(), "dead code: no run and no reason reaches it"
    assert set(UNREACHED) - unreached == set(), "listed as unreached, but a run reaches it"


# every module a CLI process loads counts towards the benchmark's setup time:
# scipy.linalg alone takes longer to import than the rest of a run's setup
LOADED_BY_RUNS = """
import json, sys
from blochlab import cli

for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_shipped_runs_load_no_scipy_and_no_numpy_ma(tmp_path):
    proc = run_python("-c", LOADED_BY_RUNS, json.dumps(shipped_runs(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "out").glob("*.json"))) == 4
    loaded = json.loads(proc.stdout.splitlines()[-1])  # after the runs' summaries
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def test_shipped_runs_write_strict_json_and_repr_floats(tmp_path):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for argv in shipped_runs(tmp_path):
        assert cli.main(argv) == 0, argv
    reports = sorted((tmp_path / "out").glob("*.json"))
    tables = sorted((tmp_path / "out").glob("*.csv"))
    assert len(reports) == 4 and len(tables) == 3
    for path in reports:
        report = json.loads(path.read_text(), parse_constant=refuse)
        if report["kind"] == "superselect":
            leakage = report["results"]["leakage"]
            assert all(row[sector] is None for sector, row in enumerate(leakage))
    for path in tables:
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        floats = [i for i, column in enumerate(header) if column not in ("l", "band")]
        fields = [row[i] for row in rows for i in floats]
        assert fields and all(field == repr(float(field)) for field in fields), path.name


def test_only_the_lattice_module_reads_a_tables_layout():
    # no .offsets and no .values outside lattice.py, but a call such as dict.values()
    found = []
    for path in sorted(Path(blochlab.__file__).parent.glob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (node.attr == "offsets" or node.attr == "values" and id(node) not in called)
        ]
    assert found == [], "a table's layout read outside lattice.py"


def test_only_the_bands_run_applies_an_operator(tmp_path, monkeypatch):
    # measurements contract diagonals with bra-ket products (expectation and
    # class_form); O v is formed once, for the bands run's eigen residual
    calls = []
    apply = OperatorTable.apply

    def counted(self, vectors):
        calls[-1][1] += 1
        return apply(self, vectors)

    monkeypatch.setattr(OperatorTable, "apply", counted)
    (tmp_path / "out").mkdir()
    for config in sorted((ROOT / "configs").glob("*.json")):
        data = json.loads(config.read_text())
        data["output"] = {key: str(tmp_path / p) for key, p in data["output"].items()}
        path = tmp_path / config.name
        path.write_text(json.dumps(data))
        calls.append([data["kind"], 0])
        assert cli.main([data["kind"], "--config", str(path)]) == 0, config.name
    assert sorted(map(tuple, calls)) == [
        ("bands", 1), ("floquet", 0), ("superselect", 0), ("wannier", 0)
    ]


def test_fringe_scans_hand_expectation_only_the_rows_their_states_occupy(tmp_path, monkeypatch):
    # a superselect run's expectation calls are its three fringe scans: the
    # cross and breaker scans read two classes' rows, the within-class scan
    # one class's, never all d rows of a dense superposition
    calls = []
    expectation = OperatorTable.expectation

    def counted(self, vectors, rows=None):
        calls.append(self.dim if rows is None else len(rows))
        return expectation(self, vectors, rows)

    monkeypatch.setattr(OperatorTable, "expectation", counted)
    data = json.loads((ROOT / "configs" / "superselect_mathieu.json").read_text())
    data["output"] = {key: str(tmp_path / p) for key, p in data["output"].items()}
    path = tmp_path / "superselect.json"
    path.write_text(json.dumps(data))
    assert cli.main(["superselect", "--config", str(path)]) == 0
    cells = data["lattice"]["cells"]
    d = 2 * data["lattice"]["cutoff"] + 1
    assert calls == [2 * d // cells, d // cells, 2 * d // cells]  # cross, within, breaker
