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
from .exterior import format_tensor
from .flows import (
    DivergentFlowError,
    FlowConfig,
    conservation_report,
    integrate_hamiltonian,
)
from .model import ModelError, ModelFile, parse_model
from .modular import (
    VolumeSpec,
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


def _monomial_text(chart_names, exponent) -> str:
    parts = [f"{name}**{e}" if e > 1 else name
             for name, e in zip(chart_names, exponent) if e > 0]
    return "*".join(parts) if parts else "1"


def _component_text(variance: str, chart_names, index) -> str:
    if not index:
        return "1"
    if variance == "form":
        return "^".join(f"d{chart_names[i]}" for i in index)
    return "^".join(f"@{i + 1}" for i in index)


def _certificate_json(chart_names, certificate, variance="mv"):
    return [{"component": _component_text(variance, chart_names, label[0]),
             "monomial": _monomial_text(chart_names, label[1]),
             "weight": str(weight)}
            for label, weight in certificate]


def _family(model: ModelFile, choice: str):
    include_quadratics = choice != "coords"
    return default_function_family(model.chart, include_quadratics)


def _volume_of(model: ModelFile, name: str | None) -> VolumeSpec:
    if name:
        return model.binding(name, "volume")
    volumes = [b for b in model.bindings.values() if b.kind == "volume"]
    if len(volumes) == 1:
        return volumes[0].value
    if not volumes:
        return VolumeSpec.standard(model.chart)
    raise KeyError("model defines several volumes; pass --volume NAME")


def _scalars_of(model: ModelFile, listing: str) -> list[Polynomial]:
    names = [part for part in listing.split(",") if part]
    if not names:
        raise KeyError("expected a comma-separated list of scalar names")
    return [model.scalar(name) for name in names]


# -- command handlers ------------------------------------------------------------

def _cmd_check(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
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
        witness = _component_text("form", model.chart.coordinates, shape.witness_indices)
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


def _cmd_sharp(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    form = model.binding(args.form, "form")
    image = sharp(structure, form.degree, form)
    text = format_tensor(image)
    return Report("sharp", {"form": args.form, "degree": form.degree},
                  {"image": text}, lines=[f"sharp({args.form}) = {text}"])


def _cmd_hamiltonian(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    scalars = _scalars_of(model, args.scalars)
    field_tensor = hamiltonian_vf(structure, *scalars)
    text = format_tensor(field_tensor)
    return Report("hamiltonian", {"scalars": args.scalars}, {"field": text},
                  lines=[f"hamiltonian field of ({args.scalars}) = {text}"])


def _cmd_bracket(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    left = model.binding(args.left, "form")
    right = model.binding(args.right, "form")
    value = leibniz_bracket(structure, left, right)
    text = format_tensor(value)
    return Report("bracket", {"left": args.left, "right": args.right},
                  {"bracket": text},
                  lines=[f"[[{args.left}, {args.right}]] = {text}"])


def _cmd_modular(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    volume = _volume_of(model, args.volume)
    tensor = modular_tensor(structure, volume)
    text = format_tensor(tensor)
    return Report("modular", {"volume": str(volume)}, {"tensor": text},
                  lines=[f"modular tensor = {text}"])


def _cmd_potential(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    volume = _volume_of(model, args.volume)
    outcome = modular_potential(structure, volume, args.degree_bound)
    names = model.chart.coordinates
    if outcome.feasible:
        text = str(outcome.potential)
        return Report("potential", {"volume": str(volume)},
                      {"feasible": True, "potential": text},
                      degree_bound=args.degree_bound,
                      lines=[f"potential found at degree bound {args.degree_bound}: {text}"])
    certificate = _certificate_json(names, outcome.certificate)
    lines = [f"infeasible at degree bound {args.degree_bound}",
             "certificate functional (annihilates every candidate, not the tensor):"]
    lines.extend(f"  {entry['weight']} * <{entry['component']}, {entry['monomial']}>"
                 for entry in certificate)
    return Report("potential", {"volume": str(volume)}, {"feasible": False},
                  certificates=certificate, degree_bound=args.degree_bound,
                  exit_code=EXIT_MATH_FAILURE, lines=lines)


def _cmd_basic_volume(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    volume = _volume_of(model, args.volume)
    weight = model.scalar(args.weight) if args.weight \
        else model.chart.zero_polynomial()
    try:
        mu = basic_volume(structure, volume, weight)
    except ValueError as exc:
        return Report("basic-volume", {"volume": str(volume)},
                      {"exists": False, "reason": str(exc)},
                      exit_code=EXIT_MATH_FAILURE,
                      lines=[f"no basic volume: {exc}"])
    return Report("basic-volume", {"volume": str(volume)},
                  {"exists": True, "form": str(mu)},
                  lines=[f"basic volume = {mu}"])


def _cmd_delta(model: ModelFile, args) -> Report:
    volume = _volume_of(model, args.volume)
    tensor = model.binding(args.mv, "mv")
    image = delta(volume, tensor)
    text = format_tensor(image)
    return Report("delta", {"mv": args.mv, "volume": str(volume)},
                  {"boundary": text}, lines=[f"boundary({args.mv}) = {text}"])


def _cmd_h1_top(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
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


def _cmd_foliated(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    outcome = foliated_cohomology_dim(structure, args.degree, args.degree_bound)
    stab = "stable" if outcome.stabilized else "not yet stable"
    lines = [f"foliated cohomology degree {args.degree} at bound {args.degree_bound}: "
             f"dimension {outcome.dimension} ({stab} vs bound {args.degree_bound - 1})"]
    return Report("foliated", {"degree": args.degree},
                  {"dimension": outcome.dimension,
                   "previous_dimension": outcome.previous_dimension,
                   "stabilized": outcome.stabilized},
                  degree_bound=args.degree_bound, lines=lines)


def _cmd_canonical(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    volume = _volume_of(model, args.volume)
    dimension = canonical_homology_dim(structure, volume, args.degree, args.degree_bound)
    lines = [f"canonical homology degree {args.degree} at bound {args.degree_bound}: "
             f"dimension {dimension}"]
    return Report("canonical-homology", {"degree": args.degree, "volume": str(volume)},
                  {"dimension": dimension}, degree_bound=args.degree_bound, lines=lines)


def _cmd_subcomplex(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    volume = _volume_of(model, args.volume)
    outcome = subcomplex_check(structure, volume, args.degree_bound)
    names = model.chart.coordinates
    if outcome.is_subcomplex:
        witness = format_tensor(outcome.witness)
        return Report("subcomplex", {"volume": str(volume)},
                      {"is_subcomplex": True, "witness": witness},
                      degree_bound=args.degree_bound,
                      lines=[f"yes: modular tensor = sharp({witness})"])
    certificate = _certificate_json(names, outcome.certificate)
    lines = [f"no: the modular tensor is not in the bundle image at bound "
             f"{args.degree_bound}",
             "certificate functional:"]
    lines.extend(f"  {entry['weight']} * <{entry['component']}, {entry['monomial']}>"
                 for entry in certificate)
    return Report("subcomplex", {"volume": str(volume)},
                  {"is_subcomplex": False}, certificates=certificate,
                  degree_bound=args.degree_bound, exit_code=EXIT_MATH_FAILURE,
                  lines=lines)


def _cmd_duality(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
    volume = _volume_of(model, args.volume)
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


def _cmd_flow(model: ModelFile, args) -> Report:
    structure = model.structure(args.structure)
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


_HANDLERS = {
    "check": _cmd_check,
    "sharp": _cmd_sharp,
    "hamiltonian": _cmd_hamiltonian,
    "bracket": _cmd_bracket,
    "modular": _cmd_modular,
    "potential": _cmd_potential,
    "basic-volume": _cmd_basic_volume,
    "delta": _cmd_delta,
    "h1-top": _cmd_h1_top,
    "foliated": _cmd_foliated,
    "canonical-homology": _cmd_canonical,
    "subcomplex": _cmd_subcomplex,
    "duality": _cmd_duality,
    "naka-pair": _cmd_naka_pair,
    "naka-triple": _cmd_naka_triple,
    "flow": _cmd_flow,
}


def run_command(model: ModelFile, command: str, args) -> Report:
    handler = _HANDLERS.get(command)
    if handler is None:
        raise KeyError(f"unknown command {command!r}")
    return handler(model, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nambu",
        description="Exact Nambu-Poisson calculus on polynomial coordinate charts")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, volume=True, bound=False, structure=True):
        p.add_argument("model", help="model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", help="write the report to a file")
        if structure:
            p.add_argument("--lambda", dest="structure", default=None,
                           help="structure binding (default: the unique one)")
        if volume:
            p.add_argument("--volume", default=None,
                           help="volume binding (default: the unique one, else std)")
        if bound:
            p.add_argument("--degree-bound", type=int, required=True,
                           help="coefficient degree bound")

    p = sub.add_parser("check", help="fundamental identity and decomposability")
    common(p, volume=False)
    p.add_argument("names", nargs="*", help="optional structure name")
    p.add_argument("--family", choices=["coords", "quadratics"], default="quadratics")

    p = sub.add_parser("sharp", help="contract a form into the structure")
    common(p, volume=False)
    p.add_argument("names", nargs="*", help="form name [structure name]")

    p = sub.add_parser("hamiltonian", help="Hamiltonian vector field")
    common(p, volume=False)
    p.add_argument("--scalars", required=True, help="comma-separated scalar names")

    p = sub.add_parser("bracket", help="algebroid bracket of two forms")
    common(p, volume=False)
    p.add_argument("names", nargs="*", help="left form, right form [structure]")

    p = sub.add_parser("modular", help="modular tensor")
    common(p)
    p.add_argument("names", nargs="*", help="[structure] [volume]")

    p = sub.add_parser("potential", help="modular potential search")
    common(p, bound=True)
    p.add_argument("names", nargs="*", help="[structure] [volume]")

    p = sub.add_parser("basic-volume", help="basic volume from a potential")
    common(p)
    p.add_argument("names", nargs="*", help="[structure] [volume]")
    p.add_argument("--weight", default=None, help="scalar binding used as potential")

    p = sub.add_parser("delta", help="homology boundary of a multivector")
    common(p, structure=False)
    p.add_argument("names", nargs="*", help="multivector name [volume]")

    p = sub.add_parser("h1-top", help="truncated first cohomology, top order")
    common(p, volume=False, bound=True)
    p.add_argument("names", nargs="*", help="[structure]")

    p = sub.add_parser("foliated", help="truncated foliated cohomology dimension")
    common(p, volume=False, bound=True)
    p.add_argument("names", nargs="*", help="[structure]")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("canonical-homology", help="truncated canonical homology")
    common(p, bound=True)
    p.add_argument("names", nargs="*", help="[structure] [volume]")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("subcomplex", help="modular tensor membership in the image")
    common(p, bound=True)
    p.add_argument("names", nargs="*", help="[structure] [volume]")

    p = sub.add_parser("duality", help="cohomology/homology comparison table")
    common(p, bound=True)
    p.add_argument("names", nargs="*", help="[structure] [volume]")

    p = sub.add_parser("naka-pair", help="two-variable polynomial decomposition")
    common(p, volume=False, structure=False)
    p.add_argument("names", nargs="*", help="P name, Q name")

    p = sub.add_parser("naka-triple", help="three-variable polynomial decomposition")
    common(p, volume=False, structure=False)
    p.add_argument("names", nargs="*", help="A name, B name, C name")

    p = sub.add_parser("flow", help="integrate a Hamiltonian field numerically")
    common(p, volume=False)
    p.add_argument("--scalars", required=True, help="comma-separated scalar names")
    p.add_argument("--start", required=True, help="comma-separated start point")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--probes", default=None,
                   help="comma-separated colon-joined scalar tuples")
    return parser


_POSITIONAL_SLOTS = {
    "check": ("structure",),
    "sharp": ("form", "structure"),
    "bracket": ("left", "right", "structure"),
    "modular": ("structure", "volume"),
    "potential": ("structure", "volume"),
    "basic-volume": ("structure", "volume"),
    "delta": ("mv", "volume"),
    "h1-top": ("structure",),
    "foliated": ("structure",),
    "canonical-homology": ("structure", "volume"),
    "subcomplex": ("structure", "volume"),
    "duality": ("structure", "volume"),
    "naka-pair": ("p", "q"),
    "naka-triple": ("a", "b", "c"),
}

_REQUIRED_SLOTS = {
    "sharp": ("form",),
    "bracket": ("left", "right"),
    "delta": ("mv",),
    "naka-pair": ("p", "q"),
    "naka-triple": ("a", "b", "c"),
}


def _assign_positionals(args) -> None:
    slots = _POSITIONAL_SLOTS.get(args.command, ())
    names = getattr(args, "names", []) or []
    if len(names) > len(slots):
        raise KeyError(f"too many positional names for {args.command}")
    for slot, value in zip(slots, names):
        if getattr(args, slot, None) is None:
            setattr(args, slot, value)
    for slot in slots:
        if not hasattr(args, slot):
            setattr(args, slot, None)
    for slot in _REQUIRED_SLOTS.get(args.command, ()):
        if getattr(args, slot) is None:
            raise KeyError(f"{args.command} needs a {slot} operand")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        with open(args.model, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read model file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        model = parse_model(text)
        _assign_positionals(args)
        report = run_command(model, args.command, args)
    except (ModelError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    timing_ms = int(round((time.perf_counter() - started) * 1000))
    rendered = report.to_json(timing_ms) + "\n" if args.json else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
