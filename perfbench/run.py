"""Benchmark of the four wavedamp CLI commands, one fresh interpreter per operation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one command run by `child.py` in a new interpreter, as a
CLI user runs it.  An untimed set-up-only interpreter warms the page cache
and bytecode; then operations run one at a time until `--seconds` have
passed, followed (untraced runs only) by set-up-only interpreters that add
set-up samples.  Every operation's artifacts are checked (see checks.py)
outside its timed region.  With
`--trace 1` traced and untraced operations alternate: the traced ones give
the per-layer metrics, and the difference of the two medians is the
tracing overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_operation
from tracing import layer_metrics
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"  # fixed, and never more than the cores of any machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4  # set-up-only interpreters per run, besides one per operation
RUN_DEADLINE_S = 170.0
MIB = float(1 << 20)
WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"


class OperationError(RuntimeError):
    """A child interpreter ended without writing its result."""


class Runner:
    """Spawns the operations of one run, one at a time, and checks them."""

    def __init__(self, root: Path, inputs, work: Path, deadline: float):
        self.src = root / "src"
        self.inputs = inputs
        self.deadline = deadline
        self.work = work
        self.work.mkdir(parents=True)
        self.config = self.work / "run.cfg"
        self.config.write_text(inputs.config_text())
        self.env = dict(os.environ, **{var: BLAS_THREADS for var in BLAS_VARS})
        self.count = 0

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        op_dir = self.work / f"op{self.count}"
        op_dir.mkdir()
        out = op_dir / "out"
        spec = {
            "src": str(self.src),
            "config": str(self.config),
            "argv": self.inputs.argv(str(self.config), str(out)),
            "result": str(op_dir / "result.json"),
            "trace": trace,
            "setup_only": setup_only,
        }
        (op_dir / "spec.json").write_text(json.dumps(spec))
        t_spawn = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json")],
                              env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, self.deadline - t_spawn))
        try:
            result = json.loads((op_dir / "result.json").read_text())
        except FileNotFoundError:
            raise OperationError(f"child exited with {proc.returncode}:\n{proc.stderr}") from None
        result["setup_s"] = result["setup_end"] - t_spawn
        result["trace"] = trace
        if not setup_only:
            result["failed"] = result["rc"] != 0
            result["errors"] = [] if result["failed"] else check_operation(
                out, self.inputs, result.get("closed_form_defect"))
            files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
            result["out_bytes"] = sum(p.stat().st_size for p in files)
            result["files"] = sum(1 for p in files if p.name != "manifest.json")
            if result["failed"]:
                print(f"operation failed (rc {result['rc']}): {result.get('error', '')}"
                      f"{proc.stderr}", file=sys.stderr)
            print(f"operation {self.count}: set-up {result['setup_s']:.3f} s, "
                  f"command {result['op_s']:.3f} s wall, {result['op_cpu_s']:.3f} s cpu",
                  file=sys.stderr)
            for err in result["errors"]:
                print(f"check failed: {err}", file=sys.stderr)
        shutil.rmtree(op_dir)
        return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "wavedamp" / "cli.py").is_file():
        print(f"no wavedamp sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(root, make_inputs(args.workload, args.seed), work, started + RUN_DEADLINE_S)
    try:
        runner.spawn(setup_only=True)  # warm-up: page cache and bytecode, not timed
        kinds = (True, False) if args.trace else (False,)
        t0 = time.monotonic()
        ops = []
        while not ops or time.monotonic() - t0 < args.seconds or len(ops) < len(kinds):
            ops.append(runner.spawn(trace=kinds[len(ops) % len(kinds)]))
        setup = [op["setup_s"] for op in ops]
        if not args.trace:
            setup += [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    except (OperationError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    done = [op for op in ops if not op["failed"]]
    plain = [op for op in done if not op["trace"]]
    traced = [op for op in done if op["trace"]]
    if not plain or (args.trace and not traced):
        print("every timed operation failed", file=sys.stderr)
        return 1
    if args.trace:
        per_op = [layer_metrics(op["spans"], op["step_us"], op["import_s"], op["files"])
                  for op in traced]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = (statistics.median(op["op_s"] for op in traced)
                                       - statistics.median(op["op_s"] for op in plain))
        results = root / RESULTS_DIR
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps([op["spans"] for op in traced]))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.median(op["op_s"] for op in plain),
            "peak_rss_mb": max(op["maxrss_kb"] for op in plain) / 1024.0,
            "out_mb": statistics.median(op["out_bytes"] for op in plain) / MIB,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print(f"{args.workload}: {len(ops)} timed operations, {len(setup)} set-up samples, "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": all(not op["errors"] for op in ops if not op["failed"]),
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
