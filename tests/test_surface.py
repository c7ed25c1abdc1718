"""The library surface: every function the package defines is called.

A name stays in ``src/leastchange`` only if a CLI command or a demo calls
it; what only the tests read lives in ``tests/oracles.py``.  One fresh
interpreter, every cache cold, runs under ``sys.setprofile`` a command
matrix that covers every subcommand, route and ``verify`` suite, then the
three demos, and prints each function or method of the package (nested ones
included) that no call entered.
"""

from test_cold_start import ROOT, run_fresh

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

# (argv, exit code): the three routes, every subcommand and format, every suite
COMMANDS = [
    ("count --family A --n 4 --route all --workers 2", 0),
    ("count --family B --n 5 --route all --format json", 0),
    ("count --family C --n 5 --route all --format csv --out {out}/c5.csv", 0),
    ("curve --n 3 --out {out}/curve.csv", 0),
    ("curve --n 4", 0),
    ("least --family C --n 3 --values 0,1/2,2 --format json", 0),
    ("least --family B --n 4 --values [0:2]", 0),
    ("verify all", 1),  # the pinned misprint of the published A5 total
    ("verify routes --n 6", 0),
    ("verify acyclic --n 5 --format json", 0),
]

PROBE = """
import ast, contextlib, io, runpy, sys
from pathlib import Path

entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
import leastchange.cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv, code in {commands!r}:
        assert leastchange.cli.main(argv.split()) == code, argv
    for demo in sorted(Path({demos!r}).glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
sys.setprofile(None)

reached = {{(c.co_filename, c.co_firstlineno) for c in entered}}


def walk(node, path, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            # a decorated function's code starts at its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if (str(path), first) not in reached:
                print(prefix + child.name)
            walk(child, path, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            walk(child, path, prefix + child.name + ".")
        else:
            walk(child, path, prefix)


for path in sorted(Path(leastchange.__file__).parent.glob("*.py")):
    walk(ast.parse(path.read_text()), path, path.stem + ".")
"""


def test_every_function_is_called(tmp_path):
    commands = [(argv.format(out=tmp_path), code) for argv, code in COMMANDS]
    unreached = run_fresh(PROBE.format(commands=commands, demos=str(ROOT / "demos")))
    assert sorted(unreached) == sorted(ALLOWED)
