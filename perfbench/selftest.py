#!/usr/bin/env python3
"""Self-test of the benchmark's own gates.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. A deliberately wrong expected output must make ops fail: one pass of
   ``exact`` checked against it reports ``correct: false`` and
   ``failed / attempted`` above 0.
2. In a directory holding only BENCHMARK.json and perfbench/ (no program to
   measure), the benchmark must exit non-zero without printing a result.

Takes about fifteen seconds: one pass of the ``exact`` workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, ROOT, run_workload


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def wrong_expected_fails(scratch: Path) -> None:
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    expected["curve-n3"]["stdout"] = expected["curve-n3"]["stdout"].replace("no sampled", "some")
    bad = scratch / "expected-wrong.json"
    bad.write_text(json.dumps(expected))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_workload("exact", 0, 1, False, spec, bad)["result"]
    error_rate = result["failed"] / result["attempted"]
    if result["correct"] or not error_rate > 0:
        raise SystemExit(f"wrong expected output went unnoticed: {result}")
    print(f"ok: wrong expected output gives error_rate {error_rate:g}")


def bare_directory_refuses(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", "census", "--seed", "0", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"benchmark ran without a program:\n{proc.stdout}{proc.stderr}")
    print(f"ok: bare directory exits {proc.returncode} without a result")


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        bare_directory_refuses(scratch)
        wrong_expected_fails(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
