"""Golden CLI transcripts: the exit code, text stdout, --json report and stderr.

Every case runs ``nambu.cli.main`` from the repository root twice, once as
text and once with ``--json``, and both runs must end with the case's exit
code.  ``tests/transcripts/<name>.out`` holds the text stdout byte for byte,
``<name>.json`` the JSON report without its ``timing_ms`` field (absent when
the JSON run prints nothing) and ``<name>.err`` the stderr of either run
(absent when empty).  After an intended change of a report, re-record with

    PYTHONPATH=src python tests/test_transcripts.py --record [NAME...]

which re-records only the named cases, or every case when none is named.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = ROOT / "tests" / "transcripts"

SINGULAR = "models/singular_r3.nmb"
REGULAR3 = "models/regular_r3.nmb"
REGULAR4 = "models/regular_r4.nmb"
PLANE = "tests/transcripts/plane.nmb"
SPACE = "tests/transcripts/space.nmb"
R5 = "tests/transcripts/r5.nmb"
PROBES = "tests/transcripts/probes.nmb"
RATIONAL = "tests/transcripts/rational.nmb"
PRODUCT = "tests/transcripts/product.nmb"

# (name, argv, exit code)
CASES = [
    # the README command-line block (duality at a smaller bound)
    ("check", f"check {SINGULAR} L", 0),
    ("sharp", f"sharp {SINGULAR} a", 0),
    ("hamiltonian", f"hamiltonian {SINGULAR} --scalars r2,h", 0),
    ("modular", f"modular {SINGULAR}", 0),
    ("potential-infeasible", f"potential {SINGULAR} L V --degree-bound 8", 1),
    ("h1-top", f"h1-top {SINGULAR} --degree-bound 6", 0),
    ("duality-singular", f"duality {SINGULAR} L V --degree-bound 3", 1),
    ("subcomplex-weighted", f"subcomplex {REGULAR3} L W --degree-bound 2", 0),
    ("flow", f"flow {SINGULAR} --scalars r2,h --start 1,0,0", 0),
    ("flow-probes", f"flow {SINGULAR} --scalars r2,h --start 1,0,0 --probes f:r2:h", 0),
    ("flow-coordinate-probes", f"flow {PROBES} --scalars r2,h --start 1,0,0 --probes u:v:w", 0),
    # the other subcommands and verdicts
    ("bracket", f"bracket {SINGULAR} a b", 0),
    ("check-violated", f"check {R5} L", 1),
    ("basic-volume-regular", f"basic-volume {REGULAR4}", 0),
    ("basic-volume-singular", f"basic-volume {SINGULAR}", 1),
    ("delta", f"delta {SPACE} M", 0),
    ("foliated", f"foliated {SINGULAR} --degree 1 --degree-bound 3", 0),
    ("foliated-bound-0", f"foliated {SINGULAR} --degree 1 --degree-bound 0", 0),
    ("canonical-homology", f"canonical-homology {SINGULAR} --degree 2 --degree-bound 3", 0),
    ("naka-pair", f"naka-pair {PLANE} P Q", 0),
    ("naka-pair-violated", f"naka-pair {PLANE} P R", 1),
    ("naka-triple", f"naka-triple {SPACE} A B C", 0),
    ("naka-triple-violated", f"naka-triple {SPACE} A C B", 1),
    ("potential-feasible", f"potential {REGULAR4} --degree-bound 2", 0),
    ("subcomplex-certificate", f"subcomplex {SINGULAR} --degree-bound 3", 1),
    ("duality-regular", f"duality {REGULAR3} --volume V --degree-bound 2", 0),
    ("modular-standard-volume", f"modular {SPACE}", 0),
    ("duality-regular-r4", f"duality {REGULAR4} --degree-bound 2", 0),
    # a non-constant polynomial volume: rational-function arithmetic
    ("modular-rational", f"modular {RATIONAL}", 0),
    ("potential-rational", f"potential {RATIONAL} --degree-bound 3", 1),
    ("delta-rational", f"delta {RATIONAL} M", 0),
    # a cycle matrix whose row order depends on the pivot row rule
    ("h1-top-product", f"h1-top {PRODUCT} --degree-bound 4", 0),
    # usage errors
    ("modular-lambda-overrides", f"modular {SINGULAR} nosuch --lambda L", 2),
    ("sharp-lambda-overrides", f"sharp {SINGULAR} a nosuch --lambda L", 2),
    ("sharp-too-many-names", f"sharp {SINGULAR} a L extra", 2),
    ("sharp-missing-operand", f"sharp {SINGULAR}", 2),
    ("sharp-unknown-binding", f"sharp {SINGULAR} nosuch", 2),
    ("h1-top-wrong-kind", f"h1-top {SINGULAR} --lambda a --degree-bound 3", 2),
    ("hamiltonian-positional", f"hamiltonian {SINGULAR} L --scalars r2,h", 2),
    ("modular-several-volumes", f"modular {REGULAR3}", 2),
    ("missing-model-file", "check tests/transcripts/missing.nmb", 2),
    ("duality-negative-bound", f"duality {SINGULAR} --degree-bound -1", 2),
    ("duality-below-top-degree", f"duality {SINGULAR} L V --degree-bound 0", 2),
    ("duality-weighted-volume", f"duality {REGULAR3} --volume W --degree-bound 2", 2),
    ("flow-bad-start", f"flow {SINGULAR} --scalars r2,h --start 1,x,0", 2),
    ("flow-nan-start", f"flow {SINGULAR} --scalars r2,h --start nan,0,0", 2),
    ("flow-probe-arity", f"flow {SINGULAR} --scalars r2,h --start 1,0,0 --probes r2:h", 2),
    ("naka-pair-wrong-chart", f"naka-pair {SPACE} A B", 2),
    ("h1-top-missing-flag", f"h1-top {SINGULAR}", 2),
    ("unknown-command", f"frobnicate {SINGULAR}", 2),
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    from nambu.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _without_timing(stdout: str) -> str:
    if not stdout:
        return ""
    payload = json.loads(stdout)
    payload.pop("timing_ms")
    return json.dumps(payload, indent=2) + "\n"


def _expected(name: str, suffix: str) -> str:
    path = TRANSCRIPTS / f"{name}{suffix}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name, argv, exit_code", CASES, ids=[case[0] for case in CASES])
def test_transcript(name, argv, exit_code):
    code, out, err = _run(argv.split())
    assert code == exit_code
    assert out == _expected(name, ".out")
    assert err == _expected(name, ".err")
    code, out, err = _run([*argv.split(), "--json"])
    assert code == exit_code
    assert _without_timing(out) == _expected(name, ".json")
    assert err == _expected(name, ".err")


def _record(names: list[str]) -> None:
    """Re-record the named cases, or every case when no name is given."""
    unknown = sorted(set(names) - {case[0] for case in CASES})
    if unknown:
        sys.exit(f"unknown transcript case: {', '.join(unknown)}")
    for name, argv, exit_code in CASES:
        if names and name not in names:
            continue
        code, out, err = _run(argv.split())
        json_code, json_out, _ = _run([*argv.split(), "--json"])
        if {code, json_code} != {exit_code}:
            print(f"{name}: exit {code} (json {json_code}), table says {exit_code}")
        for suffix, text in ((".out", out), (".err", err),
                             (".json", _without_timing(json_out))):
            path = TRANSCRIPTS / f"{name}{suffix}"
            if text:
                path.write_text(text, encoding="utf-8")
            elif path.exists():
                path.unlink()


def test_record_writes_only_the_named_cases(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "TRANSCRIPTS", tmp_path)
    (tmp_path / "check.out").write_text("kept\n", encoding="utf-8")
    _record(["unknown-command", "sharp"])
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["check.out", "sharp.json", "sharp.out", "unknown-command.err"]
    assert (tmp_path / "check.out").read_text(encoding="utf-8") == "kept\n"
    for path in tmp_path.glob("[su]*"):
        assert path.read_text(encoding="utf-8") == \
            (ROOT / "tests" / "transcripts" / path.name).read_text(encoding="utf-8")
    with pytest.raises(SystemExit, match="unknown transcript case: no-such-case"):
        _record(["no-such-case"])


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: python tests/test_transcripts.py --record [NAME...]")
    _record(sys.argv[2:])
