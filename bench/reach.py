"""Reach: the largest degree bound each probe answers within 10 s.

Informational and ungated: reach moves in whole bounds, so it is measured
once when a baseline is taken, not on every benchmark run.  Run from the
root of a checkout:

    python3 bench/reach.py        # writes bench/reach.json

Each probe runs in a fresh process on the bundled (unpermuted) model and is
killed at the limit.  The search doubles the bound until a probe fails, then
bisects, so it assumes that time grows with the bound.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

LIMIT_S = 10.0
PROBES = {
    "h1-top singular_r3": ["h1-top", "models/singular_r3.nmb"],
    "duality singular_r3": ["duality", "models/singular_r3.nmb", "L", "V"],
    "potential singular_r3": ["potential", "models/singular_r3.nmb", "L", "V"],
}


def _seconds(root: Path, argv: list[str], bound: int) -> float | None:
    """Engine time of one answer, or None when it fails or exceeds the limit."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, "-m", "nambu.cli", *argv, "--degree-bound", str(bound), "--json"]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                              timeout=LIMIT_S + 5)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode not in (0, 1):
        return None
    seconds = json.loads(done.stdout)["timing_ms"] / 1000
    return seconds if seconds <= LIMIT_S else None


def reach(root: Path, argv: list[str]) -> dict:
    timings: dict[int, float | None] = {}

    def ok(bound: int) -> bool:
        timings[bound] = _seconds(root, argv, bound)
        print(f"  bound {bound}: {timings[bound]}", file=sys.stderr)
        return timings[bound] is not None

    good, bad = 0, 1
    while ok(bad):
        good, bad = bad, bad * 2
    while bad - good > 1:
        middle = (good + bad) // 2
        good, bad = (middle, bad) if ok(middle) else (good, middle)
    return {"reach": good, "seconds_by_bound": {str(b): timings[b] for b in sorted(timings)}}


def _processor() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "nambu" / "cli.py").is_file():
        print(f"error: {root} is not a nambu checkout", file=sys.stderr)
        return 2
    report = {"limit_s": LIMIT_S,
              "measured": time.strftime("%Y-%m-%d", time.gmtime()),
              "machine": {"cpus": os.cpu_count(), "processor": _processor(),
                          "python": platform.python_version()},
              "probes": {}}
    for name, argv in PROBES.items():
        print(name, file=sys.stderr)
        report["probes"][name] = reach(root, argv)
    out = Path(__file__).resolve().parent / "reach.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: probe["reach"] for name, probe in report["probes"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
