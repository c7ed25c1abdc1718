"""Cold-start guards: what a fresh interpreter loads for each entry point.

Only ``valuesets`` imports numpy, and the package loads its submodules on
first access, so importing the CLI, drawing curves, ``count`` on every
route, ``least`` over an interval and the ``verify`` suites that count
(tables, routes, oeis, acyclic) never load numpy; ``least`` over a discrete
set does.  Every check runs in a new interpreter: this test session
imported numpy long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str, **env_vars) -> list[str]:
    """Run ``code`` in a new interpreter; ``env_vars`` set (str) or unset (None)."""
    env = dict(os.environ)
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
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
    ],
    ids=[
        "import-cli", "curve", "count-gf", "count-all-past-census", "count-gf-a", "routes-cap",
        "least-interval-C4", "least-interval-B4", "count-enumeration-A5", "count-all-C5",
        "count-dag-C6", "verify-tables", "verify-routes", "verify-oeis", "verify-acyclic",
    ],
)
def test_numpy_is_not_loaded(code):
    assert not numpy_loaded_after(code)


def test_discrete_least_loads_numpy():
    # a discrete set is scanned by the determinant array, unlike an interval;
    # the probe itself can see numpy, so the guards above can fail
    code = MAIN + "assert main(['least', '--family', 'C', '--n', '3', '--values', '0,1']) == 0"
    assert numpy_loaded_after(code)


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


def test_c_count_does_not_load_the_census():
    # family C is counted by the row split, which shares no kernel with dags
    lines = run_fresh(
        "import sys\n"
        "import leastchange\n"
        "leastchange.count_pertinent(leastchange.TypeSpec('C', 5))\n"
        "print('leastchange.dags' in sys.modules)"
    )
    assert lines[-1] == "False"


THREADS = "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
# a discrete ``least`` starts numpy
LEAST_01 = MAIN + "assert main(['least', '--family', 'C', '--n', '3', '--values', '0,1']) == 0\n"


def test_cli_starts_numpy_with_one_blas_thread():
    # no routine calls BLAS, so the CLI does not start OpenBLAS's thread pool
    assert run_fresh(LEAST_01 + THREADS, OPENBLAS_NUM_THREADS=None)[-1] == "1"


def test_cli_keeps_the_users_blas_threads():
    assert run_fresh(LEAST_01 + THREADS, OPENBLAS_NUM_THREADS="3")[-1] == "3"


def test_library_leaves_blas_threads_alone():
    code = (
        "import leastchange\n"
        "spec, values = leastchange.TypeSpec('C', 3), leastchange.ValueSet.discrete([0, 1])\n"
        "leastchange.least_determinant(spec, values)\n"
        "import sys\n"
        "assert 'numpy' in sys.modules\n" + THREADS
    )
    assert run_fresh(code, OPENBLAS_NUM_THREADS=None)[-1] == "None"
