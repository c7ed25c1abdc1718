#!/usr/bin/env python3
"""Benchmark of the leastchange command-line interface.

Usage (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload census --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each workload (see ops.py) is a closed loop with one client: its ops run one
after another, each as a fresh ``python -m leastchange ...`` process, so every
op pays interpreter start-up, imports and cold in-process caches, as a user
does.  The runner repeats passes over the ops, in an order drawn from
``--seed``, for about ``--seconds`` seconds, checks every output, and prints
a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate (traced ops run through
trace_op.py) and the metrics are the per-layer ones.  The program is always
the one in ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

from ops import IDENTICAL_OUTPUTS, WORKLOADS, Op, check, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 60.0
MIN_TRACED_PASSES = 2
MODULES = ("cli", "enumeration", "dags", "genfunc", "probability", "valuesets", "matrices")


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    timed_out: bool


@dataclass
class Pass:
    traced: bool
    order: list[str]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0
    op_wall_s: dict[str, float] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    # stdout and written file (or None) of every op that exited 0
    outputs: dict[str, tuple[bytes, bytes | None]] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    span_files: dict[str, Path] = field(default_factory=dict)


class Runner:
    def __init__(self, workdir: Path, expected: dict, reference: dict):
        self.workdir = workdir
        self.expected = expected
        self.reference = reference
        self.env = {k: v for k, v in os.environ.items() if k != "LEASTCHANGE_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(workdir)

    def spawn(self, argv: list[str], stdout_path: Path) -> Proc:
        """Run one process to completion; rusage covers the children it reaped."""
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=self.workdir, env=self.env,
                start_new_session=True,
            )
            killed = threading.Event()
            timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid, killed))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid, killed)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            _wait_group_gone(proc.pid)
        return Proc(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, killed.is_set()
        )

    def check_program(self) -> None:
        """One untimed import: fills bytecode caches and proves which copy is used."""
        path = self.workdir / "whereis.out"
        probe = "import leastchange.cli, leastchange; print(leastchange.__file__)"
        res = self.spawn([sys.executable, "-c", probe], path)
        where = path.read_text().strip()
        if res.exit_code != 0 or Path(where).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"leastchange did not import from {SRC}: {where or res.exit_code}")

    def setup_time(self) -> float:
        res = self.spawn([sys.executable, "-c", "import leastchange.cli"], self.workdir / "setup.out")
        if res.exit_code != 0:
            raise SystemExit("importing leastchange.cli failed")
        return res.wall_s

    def run_pass(self, ops: list[Op], traced: bool, index: int, setup: bool = False) -> Pass:
        """Run every op once, in the given order, without checking outputs.

        With ``setup``, one import-only launch precedes each op, so that the
        setup samples are spread over the whole run.  ``wall_s`` is the sum of
        the ops' own times from spawn to exit: what a user waits for the ops,
        without these launches or the benchmark's work between ops.
        """
        result = Pass(traced, [op.id for op in ops])
        for op in ops:
            if setup:
                result.setup_s.append(self.setup_time())
            stem = self.workdir / f"p{index}-{op.id}"
            out_path = stem.with_suffix(".csv")
            argv = [a.replace("{out}", str(out_path)) for a in op.argv]
            if traced:
                spans = stem.with_suffix(".spans.json")
                cmd = [sys.executable, str(BENCH_DIR / "trace_op.py"), str(spans), "--", *argv]
                result.span_files[op.id] = spans
            else:
                cmd = [sys.executable, "-m", "leastchange", *argv]
            res = self.spawn(cmd, stem.with_suffix(".out"))
            result.op_wall_s[op.id] = res.wall_s
            result.wall_s += res.wall_s
            result.cpu_s += res.cpu_s
            result.peak_rss_kb = max(result.peak_rss_kb, res.maxrss_kb)
            if res.timed_out:
                result.failures[op.id] = [f"timed out after {OP_TIMEOUT_S:.0f} s"]
            elif res.exit_code != 0:
                err = stem.with_suffix(".err").read_text(errors="replace").strip()
                result.failures[op.id] = [f"exit code {res.exit_code}: {err[-300:]}"]
            elif op.writes_file and not out_path.exists():
                result.failures[op.id] = ["output file missing"]
            else:
                out_file = out_path.read_bytes() if op.writes_file else None
                result.outputs[op.id] = (stem.with_suffix(".out").read_bytes(), out_file)
        return result

    def check_pass(self, result: Pass, ops: list[Op]) -> None:
        """Add to ``result.failures`` every op whose outputs are wrong."""
        for op in ops:
            if op.id in result.outputs:
                problems = check(op, *result.outputs[op.id], self.expected, self.reference)
                if problems:
                    result.failures[op.id] = problems
        stdout = {op_id: out for op_id, (out, _) in result.outputs.items()}
        for first, second in IDENTICAL_OUTPUTS:
            if first in stdout and second in stdout and stdout[first] != stdout[second]:
                result.failures.setdefault(second, []).append(f"output differs from {first}")


def _kill_group(pid: int, killed: threading.Event) -> None:
    killed.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """Killed pool workers are not our children; wait until the group is empty."""
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_at_start": os.getloadavg(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def end_to_end_metrics(passes: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": median([p.wall_s for p in passes]),
        "setup_s": median([t for p in passes for t in p.setup_s]),
        "cpu_s": median([p.cpu_s for p in passes]),
        "peak_rss_mb": median([p.peak_rss_kb for p in passes]) / 1024,
    }


def layer_profile(pass_: Pass) -> tuple[dict[str, int], dict[str, float], dict[str, dict]]:
    """Counts, per-function self times and, per op, per-module self times of one traced pass."""
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_op: dict[str, dict[str, float]] = {}
    for op_id, path in pass_.span_files.items():
        if not path.exists():  # the op failed before writing spans; counted as failed
            continue
        data = json.loads(path.read_text())
        names = data["names"]
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for fid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        modules = by_op[op_id] = {m: 0.0 for m in MODULES}
        for (fid, start, end, _), children in zip(spans, child_ns):
            name = names[fid]
            seconds = (end - start - children) / 1e9
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            self_s[name] = self_s.get(name, 0.0) + seconds
            modules[name.split(".", 1)[0]] += seconds
        for key, value in data["counters"].items():
            counts[key] = counts.get(key, 0) + value
    return counts, self_s, by_op


def _shares(modules: dict[str, float]) -> dict[str, float]:
    total = sum(modules.values())
    return {m: 100 * t / total for m, t in modules.items()}


def per_layer_metrics(passes: list[Pass], wanted: list[str]):
    """Per-layer metrics, count mismatches between traced passes, module shares."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    profiles = [layer_profile(p) for p in traced]
    problems = []
    counts = profiles[0][0]
    for k, (other, _, _) in enumerate(profiles[1:], start=2):
        if other != counts:
            diff = sorted(n for n in set(counts) | set(other) if counts.get(n) != other.get(n))
            problems.append(f"work counts of traced pass {k} differ from traced pass 1: {diff}")
    module_s = [
        {m: sum(op[m] for op in by_op.values()) for m in MODULES} for _, _, by_op in profiles
    ]
    metrics: dict[str, float] = {}
    for name in wanted:
        stem, stat = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            value = median([p.wall_s for p in traced]) - median([p.wall_s for p in untraced])
        elif stat == "self_s" and stem in MODULES:
            value = median([mod[stem] for mod in module_s])
        elif stat == "self_s":
            value = median([prof[1].get(stem, 0.0) for prof in profiles])
        elif stat == "pertinent_ratio":
            assignments = counts.get(stem + ".assignments", 0)
            value = counts.get(stem + ".pertinent", 0) / assignments if assignments else 0.0
        else:
            value = counts.get(name, 0)
        metrics[name] = value
    # share, in percent, of the time inside cli.main that each module's code
    # takes: over the whole workload, and per op
    per_pass = [
        {"all": _shares(mod), **{op: _shares(t) for op, t in by_op.items()}}
        for mod, (_, _, by_op) in zip(module_s, profiles)
    ]
    keys = dict.fromkeys(key for p in per_pass for key in p)  # an op that failed has no spans
    shares = {
        key: {m: round(median([p[key][m] for p in per_pass if key in p]), 2) for m in MODULES}
        for key in keys
    }
    return metrics, problems, shares


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, expected_path: Path) -> dict:
    ops = list(WORKLOADS[name])
    rng = random.Random(seed)
    expected = json.loads(expected_path.read_text())
    reference = load_reference(SRC)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(scratch, expected, reference)
        runner.check_program()
        passes: list[Pass] = []
        start = time.perf_counter()
        # Stop before a round (one pass; with tracing, an untraced/traced
        # pair) that would end after --seconds, so a run lasts about
        # --seconds on any machine; the first MIN_TRACED_PASSES rounds with
        # tracing, or the first round without, always run.
        kinds = (False, True) if trace else (False,)
        min_rounds = MIN_TRACED_PASSES if trace else 1
        round_s: list[float] = []
        while True:
            round_start = time.perf_counter()
            for traced in kinds:
                order = rng.sample(ops, len(ops))
                pass_ = runner.run_pass(order, traced, len(passes), setup=not trace)
                runner.check_pass(pass_, order)
                passes.append(pass_)
            now = time.perf_counter()
            round_s.append(now - round_start)
            if len(round_s) >= min_rounds and now - start + median(round_s) > seconds:
                break
        shares = None
        if trace:
            metrics, problems, shares = per_layer_metrics(
                passes, [m["name"] for m in spec["per_layer"]]
            )
        else:
            metrics, problems = end_to_end_metrics(passes), []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.order) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": [
            {"traced": p.traced, "order": p.order, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.peak_rss_kb / 1024, "op_wall_s": p.op_wall_s}
            for p in passes
        ],
        "error_rate": failed / attempted,
    }
    if not trace:
        summary["setup_launches_s"] = [t for p in passes for t in p.setup_s]
    else:
        summary["module_share_pct"] = shares
    return {
        "summary": summary,
        "failures": [f"pass {k} {op}: {msg}" for k, p in enumerate(passes)
                     for op, msgs in p.failures.items() for msg in msgs] + problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def parse_args(argv, run_seconds: int):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="fixes the order of ops in every pass")
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "leastchange" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no leastchange sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # so that a terminated run still kills its op process and removes its scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, spec["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine:", json.dumps(machine_info()), flush=True)
    results = {}
    for name in names:
        out = run_workload(
            name, args.seed, args.seconds, bool(args.trace), spec, BENCH_DIR / "expected.json"
        )
        print("run:", json.dumps(out["summary"]))
        for line in out["failures"]:
            print("FAIL", name, line)
        res = out["result"]
        for metric, m in res["metrics"].items():
            print(f"{name:7s} {metric:48s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:7s} {'error_rate':48s} {out['summary']['error_rate']:>14.6g} "
              f"({res['failed']} failed / {res['attempted']} ops)", flush=True)
        results[name] = res
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
