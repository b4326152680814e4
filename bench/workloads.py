"""Workload definitions, the seeded input generator and the answer checks.

The command lists and their expected answers live in ``design.json``.  A
seed draws a signed permutation of the coordinates for each chart dimension
(applied to every model and to the flow start point) and the order of the
commands within each pass.  Seed 0 is the identity.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

_MODEL_ARG = re.compile(r"^models/(\w+)\.nmb$")
_NAME = re.compile(r"@\d+|[A-Za-z_]\w*")


def load_design() -> dict:
    return json.loads((BENCH_DIR / "design.json").read_text(encoding="utf-8"))


def golden_stem(argv: list[str]) -> str:
    """File stem of a command's golden transcripts, from its unpermuted argv."""
    parts = []
    for token in argv:
        match = _MODEL_ARG.match(token)
        token = match.group(1) if match else token.lstrip("-")
        parts.append(re.sub(r"[^A-Za-z0-9_.-]", "-", token))
    return "_".join(parts)


def _space_coordinates(text: str) -> list[str]:
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if fields and fields[0] == "space":
            return fields[3:]
    raise ValueError("model has no space declaration")


def signed_permutation(seed: int, dimension: int) -> list[tuple[int, int]]:
    """``perm[k] = (j, s)``: old coordinate k becomes ``s`` times new coordinate j."""
    if seed == 0:
        return [(k, 1) for k in range(dimension)]
    rng = random.Random(f"coordinates:{seed}:{dimension}")
    targets = rng.sample(range(dimension), dimension)
    return [(j, rng.choice((1, -1))) for j in targets]


def permute_model(text: str, perm: list[tuple[int, int]]) -> str:
    """Rewrite every coordinate, differential and ``@k`` field through ``perm``."""
    coords = _space_coordinates(text)

    def image(k: int, stem: str) -> str:
        j, sign = perm[k]
        new = f"{stem}{j + 1}" if stem == "@" else stem + coords[j]
        return new if sign > 0 else f"(-{new})"

    def substitute(match: re.Match) -> str:
        token = match.group(0)
        if token.startswith("@"):
            return image(int(token[1:]) - 1, "@")
        if token in coords:
            return image(coords.index(token), "")
        if token.startswith("d") and token[1:] in coords:
            return image(coords.index(token[1:]), "d")
        return token

    out = []
    for line in text.splitlines(keepends=True):
        body, hash_, comment = line.partition("#")
        if body.split()[:1] != ["space"]:
            body = _NAME.sub(substitute, body)
        out.append(body + hash_ + comment)
    return "".join(out)


def permute_point(listing: str, perm: list[tuple[int, int]]) -> str:
    values = listing.split(",")
    out = ["0"] * len(values)
    for k, value in enumerate(values):
        j, sign = perm[k]
        if sign < 0 and float(value) != 0:
            value = value[1:] if value.startswith("-") else "-" + value
        out[j] = value
    return ",".join(out)


def generate(root: Path, commands: list[dict], seed: int, out_dir: Path) -> list[dict]:
    """Write the seeded models into ``out_dir``; return the commands to run.

    Each returned entry is the design entry plus ``run_argv``, the argv the
    engine receives, and ``model_path``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    perms: dict[str, list[tuple[int, int]]] = {}
    generated = []
    for spec in commands:
        argv = list(spec["argv"])
        name = _MODEL_ARG.match(argv[1]).group(1)
        target = out_dir / f"{name}.nmb"
        if name not in perms:
            text = (root / "models" / f"{name}.nmb").read_text(encoding="utf-8")
            perms[name] = signed_permutation(seed, len(_space_coordinates(text)))
            target.write_text(permute_model(text, perms[name]), encoding="utf-8")
        argv[1] = str(target)
        if "--start" in argv:
            at = argv.index("--start")
            # one token, so that a leading minus is not read as an option
            argv[at:at + 2] = [f"--start={permute_point(argv[at + 1], perms[name])}"]
        generated.append(dict(spec, run_argv=argv, model_path=str(target)))
    return generated


def pass_order(seed: int, pass_index: int, count: int) -> list[int]:
    order = list(range(count))
    if seed != 0:
        random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


def _subset_problems(expected, actual, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        problems = []
        for key, value in expected.items():
            problems += _subset_problems(value, actual.get(key), f"{where}.{key}")
        return problems
    return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]


def check_json(spec: dict, exit_code, stdout: str, golden: dict | None) -> list[str]:
    """Problems with one ``--json`` run; an empty list means it passed."""
    if exit_code != spec["exit"]:
        return [f"exit code {exit_code}, expected {spec['exit']}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"unreadable --json output: {exc}"]
    problems = _subset_problems(spec.get("result", {}), payload.get("result"), "result")
    for path in spec.get("nonempty", []):
        value = payload
        for key in path.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not value or value == "0":
            problems.append(f"{path} is empty")
    if golden is not None:
        payload.pop("timing_ms", None)
        if payload != golden:
            problems.append("--json report differs from the golden transcript")
    return problems


def check_text(spec: dict, exit_code, stdout: str, golden_text: str) -> list[str]:
    if exit_code != spec["exit"]:
        return [f"exit code {exit_code}, expected {spec['exit']}"]
    if stdout != golden_text:
        return ["text report differs from the golden transcript"]
    return []
