"""Fresh-process half of the benchmark.

``setup``: time ``import nambu.cli`` plus parsing the given model files,
then the calibration kernel.
``run``: the closed-loop client.  It issues every command of a pass through
``nambu.cli.main`` in this process, one after another, checks each answer,
and repeats passes while the next one is expected to end within the run's
time.  With tracing on, the time is split: untraced passes are followed by
traced ones, so both sides of the overhead ratio come from one process.

Both modes print one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds
from workloads import GOLDEN_DIR, check_json, check_text, golden_stem, pass_order


# calibration kernel runs after each command: more runs, a steadier median
KERNEL_RUNS = 2


def _use_source(root: str) -> None:
    sys.path.insert(0, str(Path(root) / "src"))


def setup(root: str, models: list[str]) -> dict:
    _use_source(root)
    started = time.perf_counter()
    import nambu.cli  # noqa: F401
    from nambu.model import parse_model

    for path in models:
        parse_model(Path(path).read_text(encoding="utf-8"))
    setup_s = time.perf_counter() - started
    return {"setup_s": setup_s, "kernel_s": [kernel_seconds() for _ in range(3)]}


def _invoke(main, argv: list[str]) -> tuple[object, str]:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a crash is a failed command, not the end of the run
        code = "raised " + traceback.format_exc(limit=-3)
    return code, buffer.getvalue()


class Client:
    def __init__(self, plan: dict):
        import nambu.cli

        # main is looked up on every call, so the traced passes use the wrapped one
        self.cli = nambu.cli
        self.plan = plan
        self.commands = plan["commands"]
        self.golden_json = None
        if plan["seed"] == 0:
            self.golden_json = [json.loads((GOLDEN_DIR / f"{golden_stem(c['argv'])}.json")
                                           .read_text(encoding="utf-8"))
                                for c in self.commands]
        self.passes = 0
        self.kernel_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None) -> list[float]:
        """Run every command once, closed loop; return each command's time."""
        order = pass_order(self.plan["seed"], self.passes, len(self.commands))
        outputs = {}
        times = [0.0] * len(self.commands)
        for position in order:
            if tracer is not None:
                tracer.command = self.passes * len(self.commands) + position
            argv = self.commands[position]["run_argv"] + ["--json"]
            started = time.perf_counter()
            outputs[position] = _invoke(self.cli.main, argv)
            times[position] = time.perf_counter() - started
            self.kernel_times += [kernel_seconds() for _ in range(KERNEL_RUNS)]
        for position, (code, stdout) in outputs.items():
            golden = self.golden_json[position] if self.golden_json else None
            self._record(position, check_json(self.commands[position], code, stdout, golden))
        self.passes += 1
        return times

    def text_pass(self) -> None:
        """Untimed pass comparing the text reports with the golden transcripts."""
        for position, spec in enumerate(self.commands):
            code, stdout = _invoke(self.cli.main, spec["run_argv"])
            golden = (GOLDEN_DIR / f"{golden_stem(spec['argv'])}.txt").read_text(encoding="utf-8")
            self._record(position, check_text(spec, code, stdout, golden))

    def _record(self, position: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            argv = " ".join(self.commands[position]["argv"])
            self.failures.append(f"{argv}: {'; '.join(problems)}")


def _timed_passes(client: Client, seconds: float, tracer=None) -> dict:
    """Passes while the next one is expected to end in time; at least one.

    Each command's median over the passes is scaled by the calibration
    kernel's median over the same stretch of time (see calibrate.py).  On a
    shared 2-vCPU Xeon virtual machine other tenants slowed whole runs by
    half for minutes at a time; over ten runs of a workload, unscaled pass
    times spread by up to 35% (quartile distance over median), scaled ones
    by 4 to 9%.
    """
    samples = []
    client.kernel_times = []
    started = time.perf_counter()
    while True:
        samples.append(client.one_pass(tracer))
        elapsed = time.perf_counter() - started
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    medians = [statistics.median(column) for column in zip(*samples)]
    kernel_s = statistics.median(client.kernel_times)
    scale = REFERENCE_S / kernel_s
    return {"passes": len(samples), "wall_s": sum(medians) * scale,
            "slowest_command_s": max(medians) * scale, "kernel_s": kernel_s,
            "measured_wall_s": sum(medians), "samples": samples}


def run(plan: dict) -> dict:
    _use_source(plan["root"])
    client = Client(plan)
    share = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    result = _timed_passes(client, share)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if plan["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        traced = _timed_passes(client, share, tracer)
        tracer.write(plan["spans_out"])
        layers = layer_metrics(tracer.spans, tracer.counts, traced["passes"])
        layers["trace.overhead_frac"] = traced["wall_s"] / result["wall_s"] - 1
        result.update(layers=layers, traced_passes=traced["passes"],
                      spans=len(tracer.spans), missing=tracer.missing)
    elif plan["seed"] == 0:
        client.text_pass()
    result.update(attempted=client.attempted, failures=client.failures)
    return result


def record_golden(plan: dict) -> dict:
    """Write the seed-0 transcripts that the checks compare against."""
    _use_source(plan["root"])
    from nambu.cli import main

    GOLDEN_DIR.mkdir(exist_ok=True)
    for spec in plan["commands"]:
        stem = GOLDEN_DIR / golden_stem(spec["argv"])
        code, text = _invoke(main, spec["run_argv"])
        if code != spec["exit"]:
            raise SystemExit(f"{spec['argv']}: exit code {code}, expected {spec['exit']}")
        stem.with_suffix(".txt").write_text(text, encoding="utf-8")
        _, report = _invoke(main, spec["run_argv"] + ["--json"])
        payload = json.loads(report)
        payload.pop("timing_ms")
        stem.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n",
                                             encoding="utf-8")
    return {"recorded": len(plan["commands"])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--root", required=True)
    p.add_argument("models", nargs="+")
    for mode in ("run", "record-golden"):
        sub.add_parser(mode).add_argument("plan", help="plan file written by run.py")
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.root, args.models)
    else:
        plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        result = run(plan) if args.mode == "run" else record_golden(plan)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
