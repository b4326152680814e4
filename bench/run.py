"""Benchmark of the nambu command line.

    python3 bench/run.py --workload h1_top --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; without ``--workload`` every workload runs
in turn, each printing its own result line.  A run writes the seeded models
under ``.bench_work/``, times set-up in several fresh processes, then starts
one fresh worker process that runs the workload's commands closed loop
through ``nambu.cli.main`` for ``--seconds``.  Times are scaled to a fixed
reference speed with the calibration kernel in calibrate.py.  ``--trace 1``
reports the per-layer metrics of a traced run instead of the end-to-end
metrics.  A summary goes to standard error; the last line of standard output
is the JSON result.  A run in which any command fails its check exits with
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import BENCH_DIR, generate, load_design

SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "slowest_command_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def _worker(args: list[str], timeout: float) -> dict:
    # one hash seed for every run, so set and dict order never differ between runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _setup_s(root: Path, models: list[str]) -> float:
    """Median over several fresh processes, scaled like the command times."""
    # the first process compiles and caches bytecode, so it is not timed
    samples = [_worker(["setup", "--root", str(root), *models], 60)
               for _ in range(SETUP_RUNS + 1)][1:]
    kernel_s = statistics.median(t for sample in samples for t in sample["kernel_s"])
    return statistics.median(sample["setup_s"] for sample in samples) * REFERENCE_S / kernel_s


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or all (the default) to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write the seed-0 golden transcripts instead of measuring")
    return parser.parse_args()


def main() -> int:
    args = _parse_args()
    root = Path.cwd()
    if not (root / "src" / "nambu" / "cli.py").is_file() or not (root / "models").is_dir():
        print(f"error: {root} is not a nambu checkout (no src/nambu or models/)",
              file=sys.stderr)
        return 2
    workloads = load_design()["workloads"]
    if args.workload != "all" and args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != 0:
        print("error: golden transcripts are recorded at seed 0", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    failed = 0
    for name in names:
        failed += _run_workload(root, name, workloads[name]["commands"], args)
    return 0 if failed == 0 else 1


def _run_workload(root: Path, name: str, commands: list[dict], args) -> int:
    """Measure one workload and print its result line; return the failed count."""
    work = root / ".bench_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    try:
        commands = generate(root, commands, args.seed, work)
        plan = {"root": str(root), "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "commands": commands,
                "spans_out": str(work.parent / f"spans-{name}.jsonl")}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        if args.record_golden:
            print(json.dumps(_worker(["record-golden", str(plan_path)], WORKER_TIMEOUT_S)))
            return 0
        models = sorted({command["model_path"] for command in commands})
        setup_s = None if args.trace else _setup_s(root, models)
        outcome = _worker(["run", str(plan_path)], WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {metric: {"value": value, "unit": _layer_unit(metric)}
                   for metric, value in outcome["layers"].items()}
    else:
        values = {"wall_s": outcome["wall_s"], "slowest_command_s": outcome["slowest_command_s"],
                  "peak_rss_mb": outcome["peak_rss_mb"], "setup_s": setup_s}
        metrics = {metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
                   for metric, value in values.items()}
    failed = len(outcome["failures"])
    _summary(name, args, outcome, metrics, failed)
    print(json.dumps({"correct": failed == 0, "attempted": outcome["attempted"],
                      "failed": failed, "metrics": metrics}), flush=True)
    return failed


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _summary(name: str, args, outcome: dict, metrics: dict, failed: int) -> None:
    err = sys.stderr
    print(f"workload {name}, seed {args.seed}, trace {args.trace}: "
          f"{outcome['passes']} closed-loop passes, one client; "
          f"times are medians over passes, scaled to the reference speed", file=err)
    print(f"  calibration kernel median {outcome['kernel_s']:.4f} s, reference {REFERENCE_S} s; "
          f"wall before scaling {outcome['measured_wall_s']:.4f} s", file=err)
    if args.trace:
        print(f"  {outcome['traced_passes']} traced passes, {outcome['spans']} spans",
              file=err)
        for target in outcome["missing"]:
            print(f"  warning: {target} not found, its spans are missing", file=err)
    for position, column in enumerate(zip(*outcome["samples"])):
        print(f"  command {position}, unscaled: " + " ".join(f"{t:.3f}" for t in column) + " s",
              file=err)
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:<30} {metric['value']:>14.6g} {metric['unit']}", file=err)
    print(f"  failed_frac {failed}/{outcome['attempted']} = "
          f"{failed / outcome['attempted']:.4g}", file=err)
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}", file=err)


if __name__ == "__main__":
    sys.exit(main())
