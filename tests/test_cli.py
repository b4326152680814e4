"""Command-line behaviour: reports, exit codes, JSON/text agreement."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from nambu.algebra import ExactMatrix
from nambu.cli import _build_parser, main
from nambu.exterior import differential, ext_d
from support import echelon_with_a_bad_certificate, sign_flipped_d

MODELS = Path(__file__).resolve().parent.parent / "models"
SINGULAR = str(MODELS / "singular_r3.nmb")
REGULAR3 = str(MODELS / "regular_r3.nmb")
REGULAR4 = str(MODELS / "regular_r4.nmb")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_check_passes_on_singular_model(capsys):
    code, out = run(capsys, "check", SINGULAR, "L", "--family", "coords")
    assert code == 0
    assert "check: pass" in out
    assert "family" in out


def test_sharp_golden(capsys):
    code, out = run(capsys, "sharp", SINGULAR, "a")
    assert code == 0
    assert "(x1**2 + x2**2 + x3**2) * @3" in out


def test_hamiltonian_golden(capsys):
    code, out = run(capsys, "hamiltonian", SINGULAR, "--scalars", "r2,h")
    assert code == 0
    assert "@1" in out and "@2" in out


def test_bracket_command(capsys):
    code, out = run(capsys, "bracket", SINGULAR, "a", "b")
    assert code == 0
    assert "2*x2 * dx1^dx2 + 2*x3 * dx1^dx3" in out


def test_modular_golden(capsys):
    code, out = run(capsys, "modular", SINGULAR)
    assert code == 0
    assert "2*x3 * @1^@2 - 2*x2 * @1^@3 + 2*x1 * @2^@3" in out


def test_potential_infeasible_exit_one(capsys):
    code, out = run(capsys, "potential", SINGULAR, "L", "V", "--degree-bound", "8")
    assert code == 1
    assert "infeasible" in out
    assert "certificate" in out


def test_potential_feasible_on_regular(capsys):
    code, out = run(capsys, "potential", REGULAR4, "--degree-bound", "2")
    assert code == 0
    assert "potential found" in out


def test_duality_fails_with_exit_one(capsys):
    code, out = run(capsys, "duality", SINGULAR, "L", "V", "--degree-bound", "3")
    assert code == 1
    assert "duality FAILS" in out


def test_duality_holds_on_regular(capsys):
    code, out = run(capsys, "duality", REGULAR3, "--volume", "V", "--degree-bound", "3")
    assert code == 0
    assert "duality holds at bound 3" in out


def test_subcomplex_yes_weighted(capsys):
    code, out = run(capsys, "subcomplex", REGULAR3, "L", "W", "--degree-bound", "2")
    assert code == 0
    assert "yes" in out


def test_subcomplex_no_singular(capsys):
    code, out = run(capsys, "subcomplex", SINGULAR, "--degree-bound", "3")
    assert code == 1
    assert "no:" in out


def test_h1_top(capsys):
    code, out = run(capsys, "h1-top", SINGULAR, "--degree-bound", "3")
    assert code == 0
    assert "dimension 1" in out


def test_foliated(capsys):
    code, out = run(capsys, "foliated", SINGULAR, "--degree", "1", "--degree-bound", "3")
    assert code == 0
    assert "dimension 0" in out


def test_canonical_homology(capsys):
    code, out = run(capsys, "canonical-homology", SINGULAR, "--degree", "2",
                    "--degree-bound", "3")
    assert code == 0
    assert "dimension 0" in out


def test_basic_volume_regular4(capsys):
    code, out = run(capsys, "basic-volume", REGULAR4)
    assert code == 0
    assert "dx4" in out


def test_basic_volume_rejected_singular(capsys):
    code, out = run(capsys, "basic-volume", SINGULAR)
    assert code == 1
    assert "no basic volume" in out


def test_delta_command(tmp_path, capsys):
    model = tmp_path / "delta.nmb"
    model.write_text("""\
space 3 coords x1 x2 x3
mv P = x1 * @1
volume V = std
""")
    code, out = run(capsys, "delta", str(model), "P")
    assert code == 0
    assert "boundary(P) = 1" in out


def test_delta_unknown_operand_is_usage_error(capsys):
    code, out = run(capsys, "delta", SINGULAR, "P")
    assert code == 2  # P is not bound in this model


def test_flow_pass(capsys):
    code, out = run(capsys, "flow", SINGULAR, "--scalars", "r2,h",
                    "--start", "1,0,0", "--step", "0.001", "--steps", "200")
    assert code == 0
    assert "conservation: pass" in out


@pytest.mark.parametrize("start, step, steps", [
    ("100,0,1", "1", "50"),    # the field evaluation overflows
    ("1,0,0", "10", "5"),      # the integrator produces non-finite values
])
def test_divergent_flow_is_math_failure(capsys, start, step, steps):
    argv = ["flow", SINGULAR, "--scalars", "r2,h", "--start", start,
            "--step", step, "--steps", steps]
    code, out = run(capsys, *argv)
    assert code == 1
    assert "diverged:" in out
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["result"]["passed"] is False
    assert report["result"]["diverged"] is True


def test_probe_of_wrong_arity_fails_before_integrating(capsys):
    argv = ["flow", SINGULAR, "--scalars", "r2,h", "--start", "1,0,0", "--probes", "r2:h"]
    with mock.patch("nambu.cli.integrate_hamiltonian") as integrate:
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: bracket arity is 3, got 2\n"
    integrate.assert_not_called()


@pytest.mark.parametrize("option, value", [
    ("--start", "nan,0,0"), ("--start", "inf,0,0"), ("--tolerance", "nan"),
])
def test_non_finite_flow_input_is_usage_error(capsys, option, value):
    argv = ["flow", SINGULAR, "--scalars", "r2,h", "--start", "1,0,0", option, value]
    assert main(argv) == 2
    assert "diverged" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["flow", "hamiltonian"])
@pytest.mark.parametrize("scalars", ["r2,,h", ",r2,h", "r2,h,", ""])
def test_empty_scalar_name_is_usage_error(capsys, command, scalars):
    argv = [command, SINGULAR, "--scalars", scalars, "--start", "1,0,0"]
    code = main(argv if command == "flow" else argv[:-2])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "scalar names" in captured.err


def test_check_fails_on_invalid_structure(tmp_path, capsys):
    model = tmp_path / "invalid.nmb"
    model.write_text("""\
space 5 coords x1 x2 x3 x4 x5
lambda L = @1^@2^@3 + @1^@4^@5 order 3
""")
    code, out = run(capsys, "check", str(model), "--family", "coords")
    assert code == 1
    assert "check: FAIL" in out
    assert "decomposability: FAIL" in out
    assert "witness" in out


def test_naka_pair_cli(tmp_path, capsys):
    model = tmp_path / "pair.nmb"
    model.write_text("""\
space 2 coords x1 x2
scalar P = x1 + (x1^2 + x2^2) * x1
scalar Q = x2 + (x1^2 + x2^2) * x2
""")
    code, out = run(capsys, "naka-pair", str(model), "P", "Q")
    assert code == 0
    assert "a = 1, b = 0" in out


def test_naka_triple_cli(tmp_path, capsys):
    model = tmp_path / "triple.nmb"
    model.write_text("""\
space 3 coords x1 x2 x3
scalar A = 2 * x1
scalar B = 2 * x2
scalar C = 2 * x3
""")
    code, out = run(capsys, "naka-triple", str(model), "A", "B", "C")
    assert code == 0
    assert "a = 2" in out


# -- report plumbing ---------------------------------------------------------------

def test_json_schema_field_order(capsys):
    code, payload = run_json(capsys, "modular", SINGULAR)
    assert code == 0
    assert list(payload) == ["command", "inputs", "result", "certificates",
                             "degree_bound", "timing_ms"]
    assert payload["command"] == "modular"


def test_json_matches_text_numbers(capsys):
    _, text_out = run(capsys, "h1-top", SINGULAR, "--degree-bound", "3")
    _, payload = run_json(capsys, "h1-top", SINGULAR, "--degree-bound", "3")
    assert f"dimension {payload['result']['dimension']}" in text_out
    assert payload["degree_bound"] == 3


def test_text_reports_byte_deterministic(capsys):
    _, first = run(capsys, "duality", SINGULAR, "--degree-bound", "2")
    _, second = run(capsys, "duality", SINGULAR, "--degree-bound", "2")
    assert first == second


def test_json_deterministic_apart_from_timing(capsys):
    _, first = run_json(capsys, "potential", SINGULAR, "--degree-bound", "2")
    _, second = run_json(capsys, "potential", SINGULAR, "--degree-bound", "2")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_options_do_not_carry_over_between_calls(tmp_path, capsys):
    # main parses with one parser per process, so each call must start from
    # the defaults whatever the call before it set
    _, text = run(capsys, "h1-top", SINGULAR, "--degree-bound", "2")
    code = main(["h1-top", SINGULAR, "--degree-bound", "3", "--lambda", "nosuch"])
    assert code == 2 and capsys.readouterr().err.startswith("error: ")
    target = tmp_path / "report.json"
    assert main(["h1-top", SINGULAR, "--degree-bound", "3", "--json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["degree_bound"] == 3
    assert run(capsys, "h1-top", SINGULAR, "--degree-bound", "2") == (0, text)
    assert run(capsys, "sharp", SINGULAR, "a") == (0, "sharp(a) = (x1**2 + x2**2 + x3**2) * @3\n")
    assert _build_parser() is _build_parser()


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["modular", SINGULAR, "--json", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "modular"


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    code = main(["modular", SINGULAR, "--out", str(tmp_path / "missing" / "report.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.out == ""


def test_missing_model_file_is_usage_error(capsys):
    code = main(["check", "/nonexistent/path.nmb"])
    capsys.readouterr()
    assert code == 2


def test_unknown_binding_is_usage_error(capsys):
    code = main(["sharp", SINGULAR, "nosuch"])
    capsys.readouterr()
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as failure:
        main(["frobnicate", SINGULAR])
    capsys.readouterr()
    assert failure.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as failure:
        main(["h1-top", SINGULAR])
    capsys.readouterr()
    assert failure.value.code == 2


def test_broken_invariant_is_internal_error(capsys):
    with mock.patch("nambu.cohomology._annihilates", return_value=False):
        code = main(["h1-top", SINGULAR, "--degree-bound", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal error: coboundary vector escapes the cocycle space; "
                            "degree bookkeeping is inconsistent\n")


def test_boundary_that_is_not_a_cycle_is_internal_error(capsys):
    with mock.patch("nambu.cohomology.ext_d", sign_flipped_d):
        code = main(["canonical-homology", SINGULAR, "--degree", "1", "--degree-bound", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_certificate_that_fails_its_check_is_internal_error(capsys):
    with mock.patch.object(ExactMatrix, "_echelon", echelon_with_a_bad_certificate()):
        code = main(["potential", SINGULAR, "L", "V", "--degree-bound", "8"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal error: infeasibility certificate does not "
                            "annihilate the matrix\n")


def _widened_d(tensor):
    """d, with d of a 0-form multiplied by 1 + x1: still of first order, so
    the stencil guard passes, but its images outgrow their coefficient bound."""
    image = ext_d(tensor)
    if tensor.degree:
        return image
    return image.scale(1 + tensor.chart.coordinate_polynomial(0))


# every quotient checks its boundaries against the domain basis on its own,
# so a map that outgrows its stated bound offset is caught, whatever its stencil
@pytest.mark.parametrize("target, patched, args, message", [
    ("ext_d", _widened_d, ["h1-top", SINGULAR, "--degree-bound", "4"],
     "component (2,) monomial (3, 0, 2) exceeds the coefficient bound 4"),
    ("ext_d", _widened_d, ["foliated", SINGULAR, "--degree", "1", "--degree-bound", "4"],
     "component (2,) monomial (1, 0, 4) exceeds the coefficient bound 4"),
    ("ext_d", _widened_d, ["duality", SINGULAR, "--degree-bound", "3"],
     "component (2,) monomial (1, 0, 3) exceeds the coefficient bound 3"),
    ("ext_d", _widened_d,
     ["canonical-homology", SINGULAR, "--degree", "2", "--degree-bound", "3"],
     "component (2,) monomial (1, 0, 3) exceeds the coefficient bound 3"),
], ids=["h1-top", "foliated", "duality", "canonical-homology"])
def test_image_outside_its_basis_is_internal_error(capsys, target, patched, args, message):
    with mock.patch(f"nambu.cohomology.{target}", patched):
        code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert message in captured.err


def _second_order_differential(chart, scalar):
    """d(x1 * d_1 g): of second order in g, so the potential's mapping is too."""
    return differential(chart, chart.coordinate_polynomial(0) * scalar.diff(0))


def test_second_order_potential_mapping_is_internal_error(capsys):
    with mock.patch("nambu.modular.differential", _second_order_differential):
        code = main(["potential", SINGULAR, "--degree-bound", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: operator is not of first order")


def test_module_runs_as_a_program_from_a_checkout():
    root = MODELS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "nambu", "modular", "models/singular_r3.nmb"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "2*x3 * @1^@2 - 2*x2 * @1^@3 + 2*x1 * @2^@3" in done.stdout
