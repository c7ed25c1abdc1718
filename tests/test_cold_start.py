"""Fresh-interpreter guards: one table of entry points, one probe.

Each row of ``ROWS`` is a CLI command, a demo or a library snippet.  The
``probe`` fixture runs each row once per session, in a new interpreter that
imports only ``sys`` before the row runs and profiles every call with
``sys.setprofile``; it reports the exit code, whether the row printed, which
of ``WATCHED`` are loaded, and where each function of the package that a call
entered starts.  Three kinds of checks read those reports:

- module guards: no module of the package imports numpy, and no row loads
  ``dataclasses`` or ``inspect``; ``cli`` loads each command's modules in its
  handler, so ``count`` by enumeration loads no series, no probability, no
  ``fractions`` and no ``json``, and no scan over a discrete value set loads
  the series;
- the surface: a name stays in ``src/leastchange`` only if a command or a
  demo row enters it; what only the tests read lives in ``tests/oracles.py``;
- the demos run to completion and print.

This test session imported numpy long ago, hence the new interpreters.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leastchange"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

NEVER = ("numpy", "dataclasses", "inspect")  # loaded by no row but the control
COUNTING = ("leastchange.genfunc", "leastchange.probability", "fractions", "json")
SERIES = ("leastchange.genfunc",)
WATCHED = NEVER + COUNTING + ("leastchange.values", "leastchange.dags")


class Row(NamedTuple):
    code: str
    exit: int = 0
    loads: tuple = ()  # modules the row must load
    absent: tuple = ()  # modules it must not load, beyond NEVER
    surface: bool = False  # whether the functions it enters count as called
    filename: str = "<string>"


def command(argv: str, exit: int = 0, **modules) -> Row:
    code = f"from leastchange.cli import main\nraise SystemExit(main({argv.split()!r}))"
    return Row(code, exit, surface=True, **modules)


ROWS = {
    "import-cli": Row("import leastchange.cli", absent=COUNTING),
    "curve": command("curve --n 4 --step 1/100"),
    "curve-fine": command("curve --n 4 --step 1/5000"),
    "curve-to-file": command("curve --n 3 --out curve.csv"),
    "count-enumeration-A5": command("count --family A --n 5", absent=COUNTING),
    "count-all-A4": command("count --family A --n 4 --route all --workers 2"),
    "count-all-B5-json": command("count --family B --n 5 --route all --format json"),
    "count-all-C4": command("count --family C --n 4 --route all", absent=("leastchange.values",)),
    "count-all-C5": command("count --family C --n 5 --route all"),
    "count-all-C5-csv": command("count --family C --n 5 --route all --format csv --out c5.csv"),
    "count-all-past-census": command("count --family C --n 7 --route all"),
    "count-dag-C6": command("count --family C --n 6 --route dag"),
    "count-gf": command(
        "count --family C --n 6 --route gf", loads=SERIES, absent=("leastchange.probability",)
    ),
    "count-gf-C24": command("count --family C --n 24 --route gf"),
    "count-gf-a": command("count --family A --n 6 --route gf"),
    "least-interval-C4": command("least --family C --n 4 --values [0:2]"),
    "least-interval-B4": command("least --family B --n 4 --values [0:2]"),
    "least-discrete-C4": command("least --family C --n 4 --values 0,1", absent=SERIES),
    "least-discrete-A3": command("least --family A --n 3 --values 0,1/2,1,2", absent=SERIES),
    "least-discrete-C3-json": command("least --family C --n 3 --values 0,1/2,2 --format json"),
    "verify-tables": command("verify tables"),
    "verify-routes": command("verify routes"),
    "verify-routes-6": command("verify routes --n 6"),
    "routes-cap": command("verify routes --n 7", exit=2),
    # exit 1: the pinned one-digit misprint of the published A5 total
    "verify-oeis": command("verify oeis", exit=1),
    "verify-acyclic": command("verify acyclic"),
    "verify-acyclic-5-json": command("verify acyclic --n 5 --format json"),
    "verify-witnesses": command("verify witnesses", absent=SERIES),
    "verify-inclusion": command("verify inclusion", absent=SERIES),
    "verify-complement": command("verify complement", absent=SERIES),
    "verify-all": command("verify all", exit=1),  # the oeis suite's pinned misprint
    "library-value-sets": Row(
        "import leastchange as lc\n"
        "spec, zero_one = lc.TypeSpec('C', 3), lc.ValueSet.discrete([0, 1])\n"
        "assert lc.least_determinant(spec, zero_one) == 0\n"
        "assert len(lc.attaining_matrices(spec, zero_one).members) > 0\n"
        "lc.check_inclusion('A', 2, zero_one, lc.ValueSet.continuous(0, 1))\n"
        "assert all(c.ok for c in lc.counterexample_report().claims)"
    ),
    "library-complement": Row(
        "import leastchange\nassert leastchange.complement_identity_check().ok", absent=SERIES
    ),
    # family C is counted by the row DP, which shares no kernel with dags
    "library-count-C5": Row(
        "import leastchange\nleastchange.count_pertinent(leastchange.TypeSpec('C', 5))",
        absent=("leastchange.dags",),
    ),
    "every-export": Row(
        "import leastchange\nassert leastchange.__all__\nfor name in leastchange.__all__:\n"
        "    assert getattr(leastchange, name) is not None, name"
    ),
    # the benchmark's tracer reaches modules as attributes of the package
    "modules-by-attribute": Row(
        "import leastchange\nfor name in ('enumeration', 'dags', 'valuesets'):\n"
        "    assert getattr(leastchange, name).__name__ == 'leastchange.' + name"
    ),
    "dir-lists-exports": Row(
        "import leastchange\nassert set(leastchange.__all__) <= set(dir(leastchange))\n"
        "try:\n    leastchange.no_such_name\nexcept AttributeError:\n    pass\n"
        "else:\n    raise AssertionError('no_such_name resolved')"
    ),
    # every submodule but __main__, which runs the CLI when imported
    "every-submodule": Row(
        "import importlib, os, leastchange\n"
        "for name in os.listdir(os.path.dirname(leastchange.__file__)):\n"
        "    if name.endswith('.py') and name not in ('__init__.py', '__main__.py'):\n"
        "        importlib.import_module('leastchange.' + name[:-3])"
    ),
    # the positive control: the probe reports numpy once it is imported
    "import-numpy": Row("import numpy", loads=("numpy",)),
    **{demo.stem: Row(demo.read_text(), surface=True, filename=str(demo)) for demo in DEMOS},
}

PROBE = f"""
import sys

class Sink(list):
    write = list.append
    def flush(self):
        pass

filename, code = sys.argv[1:]
entered, sys.stdout = set(), Sink()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
try:
    exec(compile(code, filename, "exec"), {{"__name__": "__main__", "__file__": filename}})
    status = 0
except SystemExit as stop:
    status = stop.code or 0
sys.setprofile(None)
printed, sys.stdout = bool("".join(sys.stdout).strip()), sys.__stdout__
loaded = [m for m in {WATCHED!r} if m in sys.modules]
starts = {{(c.co_filename, c.co_firstlineno) for c in entered}}
print((status, printed, loaded, sorted(s for s in starts if s[0].startswith({str(PACKAGE)!r}))))
"""


class Report(NamedTuple):
    printed: bool
    modules: frozenset
    entered: frozenset


@pytest.fixture(scope="session")
def probe(tmp_path_factory):
    """Each row's report, from one fresh interpreter per row and session;
    a row that exits with another code than its own fails every check on it."""
    cwd = tmp_path_factory.mktemp("rows")  # where --out files land
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src

    @functools.cache
    def report(name: str) -> Report:
        row = ROWS[name]
        result = subprocess.run(
            [sys.executable, "-c", PROBE, row.filename, row.code],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        status, printed, modules, entered = ast.literal_eval(result.stdout)
        assert status == row.exit, result.stderr
        return Report(printed, frozenset(modules), frozenset(entered))

    return report


def loaded(probe, name: str, modules) -> list[str]:
    return sorted(probe(name).modules & set(modules))


def guard(probe, name: str) -> None:
    """A row loads all of its ``loads`` and none of its ``absent``."""
    row = ROWS[name]
    assert loaded(probe, name, row.loads + row.absent) == sorted(row.loads)


CONTROL = "import-numpy"
COUNT_ROWS = [name for name in ROWS if name.startswith("count-")]


@pytest.mark.parametrize("name", [name for name in ROWS if name != CONTROL])
def test_numpy_is_not_loaded(probe, name):
    assert loaded(probe, name, ("numpy",)) == []


def test_probe_sees_numpy(probe):
    # the probe reports numpy once it is imported, so the guards above can fail
    guard(probe, CONTROL)


@pytest.mark.parametrize("name", COUNT_ROWS)
def test_every_count_route_loads_no_dataclasses(probe, name):
    # the counting path's records are frozen without dataclasses, which imports inspect
    assert loaded(probe, name, ("dataclasses", "inspect")) == []


@pytest.mark.parametrize("name", [n for n in ROWS if n not in COUNT_ROWS and n != CONTROL])
def test_every_command_loads_no_dataclasses(probe, name):
    # every record of the package is a matrices._Record
    assert loaded(probe, name, ("dataclasses", "inspect")) == []


@pytest.mark.parametrize("name", [name for name, row in ROWS.items() if row.absent == COUNTING])
def test_counting_loads_no_series_probability_fractions_or_json(probe, name):
    guard(probe, name)


@pytest.mark.parametrize("name", [name for name, row in ROWS.items() if row.absent == SERIES])
def test_value_set_scans_load_no_series(probe, name):
    # the complement identity reads nonzero counts, not polynomials
    guard(probe, name)


def test_series_count_loads_no_probability(probe):
    guard(probe, "count-gf")


def test_count_does_not_load_value_sets(probe):
    guard(probe, "count-all-C4")


def test_c_count_does_not_load_the_census(probe):
    guard(probe, "library-count-C5")


def test_every_export_resolves(probe):
    probe("every-export")  # the row asserts each export; the probe, its exit code


def test_array_modules_resolve_by_attribute(probe):
    probe("modules-by-attribute")


def test_dir_lists_the_exports(probe):
    probe("dir-lists-exports")


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("name", [demo.stem for demo in DEMOS])
def test_demo_runs(probe, name):
    assert probe(name).printed


# functions left unreached on purpose, with the reason
ALLOWED = {
    "__init__.__dir__": "dir(leastchange) lists the lazy exports; no command lists names",
    "dags.is_acyclic": "perfbench/trace_op.py TRACED wraps it; leaves src when that list drops it",
    "dags.Digraph.__init__": "checks the Digraph that is_acyclic reads; goes with it",
    "enumeration.has_perfect_matching": "perfbench/trace_op.py TRACED wraps it; leaves with it",
    "matrices._Record.__repr__": "a record's repr, as @dataclass writes it; no command prints one",
    "matrices._Record.__setattr__": "refuses assignment to a frozen record; no command tries one",
    "matrices._Record.__delattr__": "refuses deletion from a frozen record; no command tries one",
    "valuesets.AttainingSet.partition": "perfbench/trace_op.py TRACED wraps it; leaves with it",
}


def unreached(node, path: str, prefix: str, reached) -> list[str]:
    """The functions (nested ones included) under ``node`` that no call entered."""
    names = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            # a decorated function's code starts at its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if (path, first) not in reached:
                names.append(prefix + child.name)
            names += unreached(child, path, prefix + child.name + ".", reached)
        elif isinstance(child, ast.ClassDef):
            names += unreached(child, path, prefix + child.name + ".", reached)
        else:
            names += unreached(child, path, prefix, reached)
    return names


def test_every_function_is_called(probe):
    reached = set().union(*(probe(name).entered for name, row in ROWS.items() if row.surface))
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        names += unreached(ast.parse(path.read_text()), str(path), path.stem + ".", reached)
    assert sorted(names) == sorted(ALLOWED)
