"""Cold-start guards: what a fresh interpreter loads for each entry point.

No module of the package imports numpy, so no CLI command (``count`` on
every route, ``curve``, ``least`` over an interval or a discrete set, every
``verify`` suite) and no public export loads it; the package loads its
submodules on first access, and ``cli`` loads each command's modules in its
handler, so ``count`` by enumeration loads no series, no probability, no
``fractions`` and no ``json``, no command and no submodule loads
``dataclasses`` or ``inspect``, and no scan over a discrete value set loads
the series.  Every check runs in a new interpreter: this test session
imported numpy long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; its stdout lines."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def numpy_loaded_after(code: str) -> bool:
    last = run_fresh(code + "\nimport sys\nprint('numpy' in sys.modules)")[-1]
    return {"True": True, "False": False}[last]


MAIN = "from leastchange.cli import main\n"


@pytest.mark.parametrize(
    "code",
    [
        "import leastchange.cli",
        MAIN + "assert main(['curve', '--n', '4', '--step', '1/100']) == 0",
        MAIN + "assert main(['count', '--family', 'C', '--n', '6', '--route', 'gf']) == 0",
        MAIN + "assert main(['count', '--family', 'C', '--n', '7', '--route', 'all']) == 0",
        MAIN + "assert main(['count', '--family', 'A', '--n', '6', '--route', 'gf']) == 0",
        MAIN + "assert main(['verify', 'routes', '--n', '7']) == 2",
        MAIN + "assert main(['least', '--family', 'C', '--n', '4', '--values', '[0:2]']) == 0",
        MAIN + "assert main(['least', '--family', 'B', '--n', '4', '--values', '[0:2]']) == 0",
        MAIN + "assert main(['count', '--family', 'A', '--n', '5']) == 0",
        MAIN + "assert main(['count', '--family', 'C', '--n', '5', '--route', 'all']) == 0",
        MAIN + "assert main(['count', '--family', 'C', '--n', '6', '--route', 'dag']) == 0",
        MAIN + "assert main(['verify', 'tables']) == 0",
        MAIN + "assert main(['verify', 'routes']) == 0",
        # exit 1: the pinned one-digit misprint of the published A5 total
        MAIN + "assert main(['verify', 'oeis']) == 1",
        MAIN + "assert main(['verify', 'acyclic']) == 0",
        MAIN + "assert main(['least', '--family', 'C', '--n', '4', '--values', '0,1']) == 0",
        MAIN + "assert main(['least', '--family', 'A', '--n', '3', '--values', '0,1/2,1,2']) == 0",
        MAIN + "assert main(['verify', 'witnesses']) == 0",
        MAIN + "assert main(['verify', 'inclusion']) == 0",
        MAIN + "assert main(['verify', 'complement']) == 0",
        # exit 1: the oeis suite's pinned misprint
        MAIN + "assert main(['verify', 'all']) == 1",
        "import leastchange as lc\n"
        "spec, zero_one = lc.TypeSpec('C', 3), lc.ValueSet.discrete([0, 1])\n"
        "assert lc.least_determinant(spec, zero_one) == 0\n"
        "assert len(lc.attaining_matrices(spec, zero_one).members) > 0\n"
        "lc.check_inclusion('A', 2, zero_one, lc.ValueSet.continuous(0, 1))\n"
        "assert all(c.ok for c in lc.counterexample_report().claims)",
        "import leastchange\nfor name in leastchange.__all__:\n    getattr(leastchange, name)",
    ],
    ids=[
        "import-cli", "curve", "count-gf", "count-all-past-census", "count-gf-a", "routes-cap",
        "least-interval-C4", "least-interval-B4", "count-enumeration-A5", "count-all-C5",
        "count-dag-C6", "verify-tables", "verify-routes", "verify-oeis", "verify-acyclic",
        "least-discrete-C4", "least-discrete-A3", "verify-witnesses", "verify-inclusion",
        "verify-complement", "verify-all", "library-value-sets", "every-export",
    ],
)
def test_numpy_is_not_loaded(code):
    assert not numpy_loaded_after(code)


def loaded_after(code: str, modules) -> list[str]:
    """Which of ``modules`` a new interpreter has loaded after running ``code``."""
    probe = f"\nimport sys\nprint(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))"
    return run_fresh(code + probe)[-1].split()


NOT_FOR_COUNTING = (
    "leastchange.genfunc", "leastchange.probability", "fractions", "json", "dataclasses", "inspect",
)


@pytest.mark.parametrize(
    "code",
    ["import leastchange.cli", MAIN + "assert main(['count', '--family', 'A', '--n', '5']) == 0"],
    ids=["import-cli", "count-enumeration-A5"],
)
def test_counting_loads_no_series_probability_fractions_or_json(code):
    assert loaded_after(code, NOT_FOR_COUNTING) == []


@pytest.mark.parametrize(
    "code",
    [
        MAIN + "assert main(['count', '--family', 'C', '--n', '6', '--route', 'dag']) == 0",
        MAIN + "assert main(['count', '--family', 'C', '--n', '24', '--route', 'gf']) == 0",
        MAIN + "assert main(['count', '--family', 'C', '--n', '5', '--route', 'all']) == 0",
    ],
    ids=["count-dag-C6", "count-gf-C24", "count-all-C5"],
)
def test_every_count_route_loads_no_dataclasses(code):
    # the counting path's records are frozen without dataclasses, which
    # imports inspect
    assert loaded_after(code, ("dataclasses", "inspect")) == []


@pytest.mark.parametrize(
    "code",
    [
        MAIN + "assert main(['curve', '--n', '4', '--step', '1/5000']) == 0",
        MAIN + "assert main(['least', '--family', 'C', '--n', '4', '--values', '0,1']) == 0",
        MAIN + "assert main(['least', '--family', 'A', '--n', '3', '--values', '0,1/2,1,2']) == 0",
        MAIN + "assert main(['least', '--family', 'B', '--n', '4', '--values', '[0:2]']) == 0",
        MAIN + "assert main(['verify', 'witnesses']) == 0",
        MAIN + "assert main(['verify', 'inclusion']) == 0",
        MAIN + "assert main(['verify', 'complement']) == 0",
        MAIN + "assert main(['verify', 'tables']) == 0",
        MAIN + "assert main(['verify', 'routes']) == 0",
        # exit 1: the pinned one-digit misprint of the published A5 total
        MAIN + "assert main(['verify', 'oeis']) == 1",
        MAIN + "assert main(['verify', 'acyclic']) == 0",
        MAIN + "assert main(['verify', 'all']) == 1",
        # every submodule but __main__, which runs the CLI when imported
        "import importlib, os, leastchange\n"
        "for name in os.listdir(os.path.dirname(leastchange.__file__)):\n"
        "    if name.endswith('.py') and name not in ('__init__.py', '__main__.py'):\n"
        "        importlib.import_module('leastchange.' + name[:-3])",
    ],
    ids=[
        "curve", "least-discrete-C4", "least-discrete-A3", "least-interval-B4",
        "verify-witnesses", "verify-inclusion", "verify-complement", "verify-tables",
        "verify-routes", "verify-oeis", "verify-acyclic", "verify-all", "every-submodule",
    ],
)
def test_every_command_loads_no_dataclasses(code):
    # every record of the package is a matrices._Record
    assert loaded_after(code, ("dataclasses", "inspect")) == []


def test_series_count_loads_no_probability():
    code = MAIN + "assert main(['count', '--family', 'C', '--n', '6', '--route', 'gf']) == 0"
    loaded = loaded_after(code, ("leastchange.genfunc", "leastchange.probability"))
    assert loaded == ["leastchange.genfunc"]


@pytest.mark.parametrize(
    "code",
    [
        MAIN + "assert main(['least', '--family', 'C', '--n', '4', '--values', '0,1']) == 0",
        MAIN + "assert main(['least', '--family', 'A', '--n', '3', '--values', '0,1/2,1,2']) == 0",
        MAIN + "assert main(['verify', 'witnesses']) == 0",
        MAIN + "assert main(['verify', 'inclusion']) == 0",
        MAIN + "assert main(['verify', 'complement']) == 0",
        "import leastchange\nassert leastchange.complement_identity_check().ok",
    ],
    ids=[
        "least-discrete-C4", "least-discrete-A3", "verify-witnesses", "verify-inclusion",
        "verify-complement", "library-complement",
    ],
)
def test_value_set_scans_load_no_series(code):
    # the complement identity reads nonzero counts, not polynomials
    assert loaded_after(code, ("leastchange.genfunc",)) == []


def test_probe_sees_numpy():
    # the probe reports numpy once it is imported, so the guards above can fail
    assert numpy_loaded_after("import numpy")


def test_every_export_resolves():
    lines = run_fresh(
        "import leastchange\n"
        "for name in leastchange.__all__:\n"
        "    assert getattr(leastchange, name) is not None, name\n"
        "print(len(leastchange.__all__))"
    )
    assert int(lines[-1]) > 0


def test_array_modules_resolve_by_attribute():
    # the benchmark's tracer reaches modules as attributes of the package
    lines = run_fresh(
        "import leastchange\n"
        "for name in ('enumeration', 'dags', 'valuesets'):\n"
        "    print(getattr(leastchange, name).__name__)"
    )
    assert lines == ["leastchange.enumeration", "leastchange.dags", "leastchange.valuesets"]


def test_dir_lists_the_exports():
    lines = run_fresh(
        "import leastchange\n"
        "print(sorted(set(leastchange.__all__) - set(dir(leastchange))))\n"
        "try:\n"
        "    leastchange.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')"
    )
    assert lines == ["[]", "AttributeError"]


def test_count_does_not_load_value_sets():
    lines = run_fresh(
        "import sys\n"
        "from leastchange.cli import main\n"
        "assert main(['count', '--family', 'C', '--n', '4', '--route', 'all']) == 0\n"
        "print('leastchange.values' in sys.modules)"
    )
    assert lines[-1] == "False"


def test_c_count_does_not_load_the_census():
    # family C is counted by the row DP, which shares no kernel with dags
    lines = run_fresh(
        "import sys\n"
        "import leastchange\n"
        "leastchange.count_pertinent(leastchange.TypeSpec('C', 5))\n"
        "print('leastchange.dags' in sys.modules)"
    )
    assert lines[-1] == "False"
