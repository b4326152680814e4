"""Command-line interface: one subcommand per engine operation.

Exit codes form the contract for shell pipelines: 0 means the computation
succeeded and any verdict passed, 1 means a mathematical failure (identity
violation, infeasible potential, duality failure, drift beyond tolerance),
2 means a usage error.  Text reports are byte-deterministic for identical
inputs; JSON reports carry the same numbers plus a timing field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from .algebra import Polynomial
from .cohomology import (
    canonical_homology_dim,
    duality_report,
    foliated_cohomology_dim,
    naka_pair,
    naka_triple,
    np_h1_top,
    subcomplex_check,
)
from .exterior import FORM, MULTIVECTOR, Chart, GradedTensor, format_tensor
from .flows import (
    DivergentFlowError,
    FlowConfig,
    conservation_report,
    integrate_hamiltonian,
)
from .model import ModelError, ModelFile, parse_model
from .modular import (
    basic_volume,
    delta,
    modular_potential,
    modular_tensor,
)
from .structures import (
    check_decomposability,
    check_fundamental_identity,
    default_function_family,
    hamiltonian_vf,
    leibniz_bracket,
    sharp,
)

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_USAGE = 2


@dataclass
class Report:
    command: str
    inputs: dict
    result: object
    certificates: object = None
    degree_bound: int | None = None
    exit_code: int = EXIT_OK
    lines: list[str] = field(default_factory=list)

    def to_json(self, timing_ms: int) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "certificates": self.certificates,
            "degree_bound": self.degree_bound,
            "timing_ms": timing_ms,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _certificate_report(report: Report, chart: Chart, certificate) -> Report:
    """Attach a labelled certificate functional: one JSON entry and one line per weight."""
    report.certificates = [
        {"component": format_tensor(GradedTensor.basis(chart, MULTIVECTOR, index)),
         "monomial": str(Polynomial.monomial(chart.coordinates, exponent)),
         "weight": str(weight)}
        for (index, exponent), weight in certificate]
    report.lines.extend(f"  {entry['weight']} * <{entry['component']}, {entry['monomial']}>"
                        for entry in report.certificates)
    return report


def _family(model: ModelFile, choice: str):
    include_quadratics = choice != "coords"
    return default_function_family(model.chart, include_quadratics)


def _scalars_of(model: ModelFile, listing: str) -> list[Polynomial]:
    names = listing.split(",")
    if not all(names):
        raise KeyError(f"expected a comma-separated list of scalar names, got {listing!r}")
    return [model.scalar(name) for name in names]


# -- command handlers ------------------------------------------------------------

def _cmd_check(model: ModelFile, args, structure) -> Report:
    family = _family(model, args.family)
    identity = check_fundamental_identity(structure, family)
    shape = check_decomposability(structure)
    passed = identity.passed and shape.passed
    lines = [f"check: {'pass' if passed else 'FAIL'}",
             f"fundamental identity on family [{', '.join(identity.family)}]: "
             f"{'pass' if identity.passed else 'FAIL'}"]
    for violation in identity.violations:
        lines.append(f"  violated at outer ({', '.join(violation.outer)}) "
                     f"inner ({', '.join(violation.inner)}): "
                     f"residual {violation.residual}")
    lines.append(f"decomposability: {'pass' if shape.passed else 'FAIL'}")
    if not shape.passed:
        witness = format_tensor(GradedTensor.basis(model.chart, FORM, shape.witness_indices))
        lines.append(f"  witness form {witness}, residual {shape.residual}")
    lines.append("note: the identity check certifies the named family only")
    result = {
        "passed": passed,
        "identity": {"passed": identity.passed, "family": list(identity.family),
                     "violations": len(identity.violations)},
        "decomposability": {"passed": shape.passed},
    }
    return Report("check", {"structure": str(structure.tensor), "family": args.family},
                  result, exit_code=EXIT_OK if passed else EXIT_MATH_FAILURE,
                  lines=lines)


def _cmd_sharp(model: ModelFile, args, structure) -> Report:
    form = model.binding(args.form, "form")
    image = sharp(structure, form.degree, form)
    text = format_tensor(image)
    return Report("sharp", {"form": args.form, "degree": form.degree},
                  {"image": text}, lines=[f"sharp({args.form}) = {text}"])


def _cmd_hamiltonian(model: ModelFile, args, structure) -> Report:
    scalars = _scalars_of(model, args.scalars)
    field_tensor = hamiltonian_vf(structure, *scalars)
    text = format_tensor(field_tensor)
    return Report("hamiltonian", {"scalars": args.scalars}, {"field": text},
                  lines=[f"hamiltonian field of ({args.scalars}) = {text}"])


def _cmd_bracket(model: ModelFile, args, structure) -> Report:
    left = model.binding(args.left, "form")
    right = model.binding(args.right, "form")
    value = leibniz_bracket(structure, left, right)
    text = format_tensor(value)
    return Report("bracket", {"left": args.left, "right": args.right},
                  {"bracket": text},
                  lines=[f"[[{args.left}, {args.right}]] = {text}"])


def _cmd_modular(model: ModelFile, args, structure, volume) -> Report:
    tensor = modular_tensor(structure, volume)
    text = format_tensor(tensor)
    return Report("modular", {"volume": str(volume)}, {"tensor": text},
                  lines=[f"modular tensor = {text}"])


def _cmd_potential(model: ModelFile, args, structure, volume) -> Report:
    outcome = modular_potential(structure, volume, args.degree_bound)
    if outcome.feasible:
        text = str(outcome.potential)
        return Report("potential", {"volume": str(volume)},
                      {"feasible": True, "potential": text},
                      degree_bound=args.degree_bound,
                      lines=[f"potential found at degree bound {args.degree_bound}: {text}"])
    return _certificate_report(
        Report("potential", {"volume": str(volume)}, {"feasible": False},
               degree_bound=args.degree_bound, exit_code=EXIT_MATH_FAILURE,
               lines=[f"infeasible at degree bound {args.degree_bound}",
                      "certificate functional (annihilates every candidate, not the tensor):"]),
        model.chart, outcome.certificate)


def _cmd_basic_volume(model: ModelFile, args, structure, volume) -> Report:
    weight = model.scalar(args.weight) if args.weight \
        else model.chart.zero_polynomial()
    try:
        mu = basic_volume(structure, volume, weight)
    except ValueError as exc:
        return Report("basic-volume", {"volume": str(volume)},
                      {"exists": False, "reason": str(exc)},
                      exit_code=EXIT_MATH_FAILURE,
                      lines=[str(exc)])
    return Report("basic-volume", {"volume": str(volume)},
                  {"exists": True, "form": str(mu)},
                  lines=[f"basic volume = {mu}"])


def _cmd_delta(model: ModelFile, args, volume) -> Report:
    tensor = model.binding(args.mv, "mv")
    image = delta(volume, tensor)
    text = format_tensor(image)
    return Report("delta", {"mv": args.mv, "volume": str(volume)},
                  {"boundary": text}, lines=[f"boundary({args.mv}) = {text}"])


def _cmd_h1_top(model: ModelFile, args, structure) -> Report:
    report = np_h1_top(structure.top_coefficient(), args.degree_bound)
    reps = [format_tensor(r) for r in report.representatives]
    lines = [f"first cohomology at degree bound {args.degree_bound}: "
             f"dimension {report.dimension}",
             f"cocycles {report.cocycle_dimension}, "
             f"coboundaries {report.coboundary_dimension}"]
    lines.extend(f"representative: {r}" for r in reps)
    return Report("h1-top", {"coefficient": str(structure.top_coefficient())},
                  {"dimension": report.dimension,
                   "cocycles": report.cocycle_dimension,
                   "coboundaries": report.coboundary_dimension,
                   "representatives": reps},
                  degree_bound=args.degree_bound, lines=lines)


def _cmd_foliated(model: ModelFile, args, structure) -> Report:
    outcome = foliated_cohomology_dim(structure, args.degree, args.degree_bound)
    if outcome.previous_dimension is None:
        stab = "no smaller bound to compare"
    else:
        stab = "stable" if outcome.stabilized else "not yet stable"
        stab += f" vs bound {args.degree_bound - 1}"
    lines = [f"foliated cohomology degree {args.degree} at bound {args.degree_bound}: "
             f"dimension {outcome.dimension} ({stab})"]
    return Report("foliated", {"degree": args.degree},
                  {"dimension": outcome.dimension,
                   "previous_dimension": outcome.previous_dimension,
                   "stabilized": outcome.stabilized},
                  degree_bound=args.degree_bound, lines=lines)


def _cmd_canonical(model: ModelFile, args, structure, volume) -> Report:
    dimension = canonical_homology_dim(structure, volume, args.degree, args.degree_bound)
    lines = [f"canonical homology degree {args.degree} at bound {args.degree_bound}: "
             f"dimension {dimension}"]
    return Report("canonical-homology", {"degree": args.degree, "volume": str(volume)},
                  {"dimension": dimension}, degree_bound=args.degree_bound, lines=lines)


def _cmd_subcomplex(model: ModelFile, args, structure, volume) -> Report:
    outcome = subcomplex_check(structure, volume, args.degree_bound)
    if outcome.is_subcomplex:
        witness = format_tensor(outcome.witness)
        return Report("subcomplex", {"volume": str(volume)},
                      {"is_subcomplex": True, "witness": witness},
                      degree_bound=args.degree_bound,
                      lines=[f"yes: modular tensor = sharp({witness})"])
    return _certificate_report(
        Report("subcomplex", {"volume": str(volume)}, {"is_subcomplex": False},
               degree_bound=args.degree_bound, exit_code=EXIT_MATH_FAILURE,
               lines=[f"no: the modular tensor is not in the bundle image at bound "
                      f"{args.degree_bound}", "certificate functional:"]),
        model.chart, outcome.certificate)


def _cmd_duality(model: ModelFile, args, structure, volume) -> Report:
    report = duality_report(structure, volume, args.degree_bound)
    lines = [f"duality comparison at degree bound {args.degree_bound}",
             "degree | NP cohomology | foliated | canonical homology (dual degree)"]
    rows_json = []
    for row in report.rows:
        np_text = "-" if row.np_dimension is None else str(row.np_dimension)
        lines.append(f"{row.degree:>6} | {np_text:>13} | {row.foliated_dimension:>8} | "
                     f"{row.canonical_dimension} (degree {row.canonical_degree})")
        rows_json.append({
            "degree": row.degree,
            "np": row.np_dimension,
            "foliated": row.foliated_dimension,
            "canonical": row.canonical_dimension,
            "canonical_degree": row.canonical_degree,
        })
    lines.append(report.verdict)
    return Report("duality", {"volume": str(volume)},
                  {"holds": report.holds, "verdict": report.verdict, "rows": rows_json},
                  degree_bound=args.degree_bound,
                  exit_code=EXIT_OK if report.holds else EXIT_MATH_FAILURE,
                  lines=lines)


def _cmd_naka_pair(model: ModelFile, args) -> Report:
    p = model.scalar(args.p)
    q = model.scalar(args.q)
    outcome = naka_pair(p, q)
    if not outcome.applicable:
        return Report("naka-pair", {"p": args.p, "q": args.q},
                      {"applicable": False,
                       "residual": str(outcome.hypothesis_residual)},
                      exit_code=EXIT_MATH_FAILURE,
                      lines=["hypothesis violated: residual "
                             f"{outcome.hypothesis_residual}"])
    result = {"applicable": True, "a": str(outcome.a), "b": str(outcome.b),
              "p_tilde": str(outcome.p_tilde), "q_tilde": str(outcome.q_tilde)}
    lines = [f"a = {outcome.a}, b = {outcome.b}",
             f"p_tilde = {outcome.p_tilde}", f"q_tilde = {outcome.q_tilde}"]
    return Report("naka-pair", {"p": args.p, "q": args.q}, result, lines=lines)


def _cmd_naka_triple(model: ModelFile, args) -> Report:
    a = model.scalar(args.a)
    b = model.scalar(args.b)
    c = model.scalar(args.c)
    outcome = naka_triple(a, b, c)
    if not outcome.applicable:
        return Report("naka-triple", {"a": args.a, "b": args.b, "c": args.c},
                      {"applicable": False, "failed_relation": outcome.failed_relation},
                      exit_code=EXIT_MATH_FAILURE,
                      lines=[f"hypothesis violated: {outcome.failed_relation} relation"])
    at, bt, ct = outcome.tildes
    result = {"applicable": True, "a": str(outcome.a),
              "tildes": [str(at), str(bt), str(ct)]}
    lines = [f"a = {outcome.a}",
             f"tildes = {at}; {bt}; {ct}"]
    return Report("naka-triple", {"a": args.a, "b": args.b, "c": args.c},
                  result, lines=lines)


def _cmd_flow(model: ModelFile, args, structure) -> Report:
    scalars = _scalars_of(model, args.scalars)
    start = tuple(float(part) for part in args.start.split(","))
    config = FlowConfig(start=start, step=args.step, steps=args.steps,
                        tolerance=args.tolerance)
    probes = []
    if args.probes:
        for group in args.probes.split(","):
            probes.append(tuple(model.scalar(name) for name in group.split(":")))
    inputs = {"scalars": args.scalars, "start": args.start,
              "step": args.step, "steps": args.steps}
    lines = [f"flow: {args.steps} steps of size {args.step}"]
    try:
        trajectory = integrate_hamiltonian(structure, scalars, config)
        report = conservation_report(trajectory, structure, scalars, probes,
                                     tolerance=args.tolerance)
    except DivergentFlowError as exc:
        lines.append(f"diverged: {exc}")
        return Report("flow", inputs, {"passed": False, "diverged": True, "reason": str(exc)},
                      exit_code=EXIT_MATH_FAILURE, lines=lines)
    for name, drift in zip(args.scalars.split(","), report.hamiltonian_drifts):
        lines.append(f"drift of {name}: {drift:.3e}")
    for i, drift in enumerate(report.probe_drifts):
        lines.append(f"drift of probe {i + 1}: {drift:.3e}")
    lines.append(f"conservation: {'pass' if report.passed else 'FAIL'} "
                 f"(tolerance {args.tolerance:.1e})")
    result = {"passed": report.passed,
              "hamiltonian_drifts": list(report.hamiltonian_drifts),
              "probe_drifts": list(report.probe_drifts),
              "final_point": list(trajectory[-1])}
    return Report("flow", inputs,
                  result, exit_code=EXIT_OK if report.passed else EXIT_MATH_FAILURE,
                  lines=lines)


# -- the command table -------------------------------------------------------------

FLAGS = {
    "lambda": {"dest": "structure", "default": None,
               "help": "structure binding (default: the unique one)"},
    "volume": {"default": None,
               "help": "volume binding (default: the unique one, else std)"},
    "degree-bound": {"type": int, "required": True, "help": "coefficient degree bound"},
    "degree": {"type": int, "required": True},
    "scalars": {"required": True, "help": "comma-separated scalar names"},
    "family": {"choices": ["coords", "quadratics"], "default": "quadratics"},
    "weight": {"default": None, "help": "scalar binding used as potential"},
    "start": {"required": True, "help": "comma-separated start point"},
    "step": {"type": float, "default": 1e-3},
    "steps": {"type": int, "default": 1000},
    "tolerance": {"type": float, "default": 1e-8},
    "probes": {"default": None, "help": "comma-separated colon-joined scalar tuples"},
}


@dataclass(frozen=True)
class Command:
    """One subcommand.

    Positional names fill ``slots`` in order, and the first ``required`` of
    them must be given; a slot filled both by a name and by the flag with the
    same destination is a usage error.
    ``flags`` are keys of ``FLAGS``.  With ``lambda`` among them the handler
    gets the resolved ``structure``, with ``volume`` the resolved ``volume``.
    """

    handler: Callable[..., Report]
    help: str
    slots: tuple[str, ...] = ()
    required: int = 0
    flags: tuple[str, ...] = ()


COMMANDS = {
    "check": Command(_cmd_check, "fundamental identity and decomposability",
                     ("structure",), flags=("lambda", "family")),
    "sharp": Command(_cmd_sharp, "contract a form into the structure",
                     ("form", "structure"), 1, ("lambda",)),
    "hamiltonian": Command(_cmd_hamiltonian, "Hamiltonian vector field",
                           flags=("lambda", "scalars")),
    "bracket": Command(_cmd_bracket, "algebroid bracket of two forms",
                       ("left", "right", "structure"), 2, ("lambda",)),
    "modular": Command(_cmd_modular, "modular tensor",
                       ("structure", "volume"), flags=("lambda", "volume")),
    "potential": Command(_cmd_potential, "modular potential search",
                         ("structure", "volume"),
                         flags=("lambda", "volume", "degree-bound")),
    "basic-volume": Command(_cmd_basic_volume, "basic volume from a potential",
                            ("structure", "volume"), flags=("lambda", "volume", "weight")),
    "delta": Command(_cmd_delta, "homology boundary of a multivector",
                     ("mv", "volume"), 1, ("volume",)),
    "h1-top": Command(_cmd_h1_top, "truncated first cohomology, top order",
                      ("structure",), flags=("lambda", "degree-bound")),
    "foliated": Command(_cmd_foliated, "truncated foliated cohomology dimension",
                        ("structure",), flags=("lambda", "degree-bound", "degree")),
    "canonical-homology": Command(_cmd_canonical, "truncated canonical homology",
                                  ("structure", "volume"),
                                  flags=("lambda", "volume", "degree-bound", "degree")),
    "subcomplex": Command(_cmd_subcomplex, "modular tensor membership in the image",
                          ("structure", "volume"),
                          flags=("lambda", "volume", "degree-bound")),
    "duality": Command(_cmd_duality, "cohomology/homology comparison table",
                       ("structure", "volume"), flags=("lambda", "volume", "degree-bound")),
    "naka-pair": Command(_cmd_naka_pair, "two-variable polynomial decomposition",
                         ("p", "q"), 2),
    "naka-triple": Command(_cmd_naka_triple, "three-variable polynomial decomposition",
                           ("a", "b", "c"), 3),
    "flow": Command(_cmd_flow, "integrate a Hamiltonian field numerically",
                    flags=("lambda", "scalars", "start", "step", "steps", "tolerance",
                           "probes")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nambu",
        description="Exact Nambu-Poisson calculus on polynomial coordinate charts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("model", help="model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", help="write the report to a file")
        for flag in command.flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        if command.slots:
            p.add_argument("names", nargs="*", help=" ".join(
                slot if i < command.required else f"[{slot}]"
                for i, slot in enumerate(command.slots)))
    return parser


def _assign_operands(name: str, command: Command, args) -> None:
    names = getattr(args, "names", [])
    if len(names) > len(command.slots):
        raise KeyError(f"too many positional names for {name}")
    for i, slot in enumerate(command.slots):
        flagged = getattr(args, slot, None)
        if flagged is not None and i < len(names):
            flag = next(f for f in command.flags if FLAGS[f].get("dest", f) == slot)
            raise KeyError(f"{slot} given both as {names[i]!r} and by --{flag}")
        if flagged is None:
            setattr(args, slot, names[i] if i < len(names) else None)
    for slot in command.slots[:command.required]:
        if getattr(args, slot) is None:
            raise KeyError(f"{name} needs a {slot} operand")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    started = time.perf_counter()
    try:
        with open(args.model, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read model file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        model = parse_model(text)
        _assign_operands(args.command, command, args)
        resolved = {}
        if "lambda" in command.flags:
            resolved["structure"] = model.structure(args.structure)
        if "volume" in command.flags:
            resolved["volume"] = model.volume(args.volume)
        report = command.handler(model, args, **resolved)
    except (ModelError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    timing_ms = int(round((time.perf_counter() - started) * 1000))
    rendered = report.to_json(timing_ms) + "\n" if args.json else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
