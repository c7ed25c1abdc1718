#!/usr/bin/env python3
"""Write perfbench/expected.json from one untraced run of every op.

Usage: python3 perfbench/record_expected.py

Only for an intended change of the CLI's output; the benchmark itself never
rewrites the file.  Review the diff of expected.json before committing it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from ops import WORKLOADS, record
from run import BENCH_DIR, ROOT, Runner


def main() -> int:
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    expected = {}
    try:
        runner = Runner(Path(scratch), {}, {})
        runner.check_program()
        for ops in WORKLOADS.values():
            pass_ = runner.run_pass(list(ops), False, 0)
            for op_id, problems in pass_.failures.items():
                print(f"{op_id}: {'; '.join(problems)}", file=sys.stderr)
            if pass_.failures:
                return 1
            for op in ops:
                expected[op.id] = record(*pass_.outputs[op.id])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
