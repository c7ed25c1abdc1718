"""Workloads of the leastchange CLI benchmark and the checks on their outputs.

Every op is one ``python -m leastchange ...`` invocation.  ``{out}`` in an
argv stands for a file the op writes; the runner substitutes a path in its
scratch directory and hands the file's bytes to the checks.
"""

from __future__ import annotations

import ast
import hashlib
import runpy
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]

    @property
    def writes_file(self) -> bool:
        return "{out}" in self.argv


def _op(op_id: str, cmdline: str) -> Op:
    return Op(op_id, tuple(cmdline.split()))


# Why each workload exists (also the "why" lines in BENCHMARK.json):
# - census: exhaustive counting with numpy; enumeration (the 2^25 Hall scan)
#   and the dags mask census dominate.  Row-DP and peeling changes show here;
#   Bernstein, Bareiss and attaining-set changes must not.
# - exact: exact rational arithmetic.  The curve ops spend their time in
#   Bernstein sums over ~5,000 grid points per family (the tables are tiny at
#   n <= 4, so enumeration is bypassed); the least/verify ops in value-set
#   scans (integer Bareiss, Fraction Bareiss, attaining sets) and in one
#   scalar predicate call per pattern instead of the batched scan of census.
#   Curves and least-|det| share one workload because the curve ops alone
#   vary too much from run to run on a shared 2-core machine for a bound.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "census": (
        _op("count-A5-w1", "count --family A --n 5 --workers 1"),
        _op("count-A5-w2", "count --family A --n 5 --workers 2"),
        _op("count-B5", "count --family B --n 5"),
        _op("count-C5-all", "count --family C --n 5 --route all"),
        _op("count-C24-gf", "count --family C --n 24 --route gf"),
    ),
    "exact": (
        _op("curve-n3", "curve --n 3 --step 1/5000 --out {out}"),
        _op("curve-n4", "curve --n 4 --step 1/5000 --out {out}"),
        _op("verify-witnesses", "verify witnesses"),
        _op("least-C4-01", "least --family C --n 4 --values 0,1"),
        _op("least-C4-interval", "least --family C --n 4 --values [0:2]"),
        _op("least-B4-interval", "least --family B --n 4 --values [0:2]"),
        _op("verify-inclusion", "verify inclusion"),
        _op("verify-complement", "verify complement"),
    ),
}

# Ops whose outputs must be byte-identical within one pass.
IDENTICAL_OUTPUTS = (("count-A5-w1", "count-A5-w2"),)


def load_reference(src: Path) -> dict:
    """REFERENCE_COUNTS from the package's data module, without importing the package."""
    return runpy.run_path(str(src / "leastchange" / "reference.py"))["REFERENCE_COUNTS"]


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def record(stdout: bytes, out_file: bytes | None) -> dict:
    """What expected.json stores for one op: exact stdout, digest of any file."""
    entry = {"stdout": stdout.decode("utf-8")}
    if out_file is not None:
        entry["file"] = digest(out_file)
    return entry


def _count_tables(stdout: str) -> list[tuple[str, tuple[int, ...]]]:
    """(header, coeffs) per table in ``count --format text`` output."""
    lines = stdout.splitlines()
    tables = []
    for k in range(0, len(lines), 3):
        header, coeffs, total = lines[k : k + 3]
        values = tuple(int(v) for v in coeffs.removeprefix("coeffs: ").split())
        if total != f"total: {sum(values)}":
            raise ValueError(f"{total!r} is not the sum of the coefficients")
        tables.append((header, values))
    return tables


def _check_count(stdout: str, family: str, n: int, routes: tuple[str, ...], reference) -> list[str]:
    tables = _count_tables(stdout)
    found = tuple(header.rsplit("route=", 1)[-1] for header, _ in tables)
    if found != routes:
        return [f"routes {found}, expected {routes}"]
    row = reference[family][n]
    return [
        f"route {route}: {family}{n} row differs from REFERENCE_COUNTS"
        for route, (_, coeffs) in zip(routes, tables)
        if coeffs != row
    ]


def _check_by_nonzeros(stdout: str, family: str, n: int, reference) -> list[str]:
    fields = dict(line.split(": ", 1) for line in stdout.splitlines())
    got = ast.literal_eval(fields["by_nonzeros"])
    want = {str(i): c for i, c in enumerate(reference[family][n]) if c}
    return [] if got == want else [f"by_nonzeros {got} != reference {family}{n} row {want}"]


def _check_verify(stdout: str) -> list[str]:
    bad = [line for line in stdout.splitlines() if not line.startswith("PASS")]
    return [f"verify line not PASS: {line!r}" for line in bad]


def _check_curve(stdout: str, out_file: bytes) -> list[str]:
    lines = out_file.decode("utf-8").splitlines()
    if lines[0] != "r,P_A,P_B,P_C" or len(lines) != 5000:
        return [f"curve CSV has header {lines[0]!r} and {len(lines)} lines, expected 5000"]
    return []


_SEMANTIC = {
    "count-A5-w1": lambda out, f, ref: _check_count(out, "A", 5, ("enumeration",), ref),
    "count-A5-w2": lambda out, f, ref: _check_count(out, "A", 5, ("enumeration",), ref),
    "count-B5": lambda out, f, ref: _check_count(out, "B", 5, ("enumeration",), ref),
    "count-C5-all": lambda out, f, ref: _check_count(
        out, "C", 5, ("enumeration", "dag", "gf"), ref
    ),
    "curve-n3": lambda out, f, ref: _check_curve(out, f),
    "curve-n4": lambda out, f, ref: _check_curve(out, f),
    "least-C4-interval": lambda out, f, ref: _check_by_nonzeros(out, "C", 4, ref),
    "least-B4-interval": lambda out, f, ref: _check_by_nonzeros(out, "B", 4, ref),
    "verify-witnesses": lambda out, f, ref: _check_verify(out),
    "verify-inclusion": lambda out, f, ref: _check_verify(out),
    "verify-complement": lambda out, f, ref: _check_verify(out),
}


def check(op: Op, stdout: bytes, out_file: bytes | None, expected: dict, reference) -> list[str]:
    """Problems with one op's outputs; empty when they are correct."""
    want = expected.get(op.id)
    if want is None:
        return [f"no expected output recorded for {op.id}"]
    problems = []
    if record(stdout, out_file) != want:
        problems.append("output differs from expected.json")
    semantic = _SEMANTIC.get(op.id)
    if semantic is not None:
        try:
            problems += semantic(stdout.decode("utf-8"), out_file, reference)
        except (ValueError, KeyError, SyntaxError, UnicodeDecodeError, IndexError) as exc:
            problems.append(f"unparsable output: {exc!r}")
    return problems
