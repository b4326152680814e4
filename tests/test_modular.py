"""Volumes, divergence, the boundary operator, modular tensor and potentials."""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nambu.truncation as truncation
import support
from nambu.algebra import ExactMatrix, Polynomial, RationalFunction
from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    GradedTensor,
    contract_form,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
    wedge,
)
from nambu.modular import (
    VolumeSpec,
    WeightedForm,
    basic_volume,
    check_basic,
    delta,
    divergence,
    flat,
    flat_inverse,
    is_tangent,
    modular_potential,
    modular_tensor,
    weighted_d,
)
from nambu.cohomology import subcomplex_check
from nambu.model import parse_model
from nambu.structures import NambuStructure, hamiltonian_vf, sharp
from nambu.truncation import TruncatedBasis, TruncatedOperator
from support import (
    R3,
    R4,
    R5,
    basis_tensor,
    coords,
    nondecomposable_r5,
    oracle_sharp_preimage,
    radius_squared,
    rand_form,
    rand_mv,
    rand_poly,
    rand_vector_field,
    regular_r3,
    regular_r4,
    singular_r3,
)

x1, x2, x3 = coords(R3)
R2SQ = radius_squared(R3)
STD3 = VolumeSpec.standard(R3)
STD4 = VolumeSpec.standard(R4)

MODELS = Path(__file__).resolve().parent.parent / "models"


def dx(chart, *indices):
    return GradedTensor.basis(chart, FORM, tuple(i - 1 for i in indices))


def ee(chart, *indices):
    return GradedTensor.basis(chart, MULTIVECTOR, tuple(i - 1 for i in indices))


MODULAR_R3 = (ee(R3, 1, 2).scale(2 * x3) - ee(R3, 1, 3).scale(2 * x2)
              + ee(R3, 2, 3).scale(2 * x1))


# -- flat and its inverse ------------------------------------------------------

def test_flat_standard_two_vector():
    result = flat(STD3, ee(R3, 1, 2))
    assert result.weight.is_zero()
    assert result.body == dx(R3, 3)

def test_flat_top_contraction_is_pairing():
    result = flat(STD3, singular_r3().tensor)
    assert result.body == GradedTensor.from_scalar(R3, FORM, R2SQ)

def test_flat_carries_weight():
    volume = VolumeSpec.weighted(R3, x1)
    result = flat(volume, ee(R3, 1))
    assert result.weight == x1
    assert result.body == dx(R3, 2, 3)

def test_flat_inverse_golden():
    assert flat_inverse(STD3, WeightedForm(R3.zero_polynomial(), dx(R3, 3))) == ee(R3, 1, 2)
    assert flat_inverse(STD3, WeightedForm(R3.zero_polynomial(), dx(R3, 1, 3))) == -ee(R3, 2)
    theta = WeightedForm(R3.zero_polynomial(), dx(R3, 2, 3).scale(x1))
    assert flat_inverse(STD3, theta) == ee(R3, 1).scale(x1)

def test_flat_inverse_weight_mismatch():
    theta = WeightedForm(x1, dx(R3, 3))
    with pytest.raises(ValueError):
        flat_inverse(STD3, theta)

def test_flat_round_trip_random_volumes():
    rng = random.Random(53)
    for _ in range(20):
        u = rand_poly(rng, R3, max_degree=2, allow_zero=False)
        w = rand_poly(rng, R3, max_degree=2)
        volume = VolumeSpec(R3, u, w)
        field = rand_mv(rng, R3, rng.randint(0, 3))
        assert flat_inverse(volume, flat(volume, field)) == field


# -- weighted derivative -------------------------------------------------------

def test_weighted_d_weight_zero_is_plain_d():
    theta = WeightedForm(R3.zero_polynomial(), dx(R3, 2).scale(x1))
    assert weighted_d(theta).body == ext_d(dx(R3, 2).scale(x1))

def test_weighted_d_adds_weight_term():
    theta = WeightedForm(x1, dx(R3, 2))
    assert weighted_d(theta).body == -dx(R3, 1, 2)

def test_weighted_d_squares_to_zero():
    rng = random.Random(59)
    from support import rand_form
    for _ in range(25):
        with_weight = WeightedForm(rand_poly(rng, R4, max_degree=2),
                                   rand_form(rng, R4, rng.randint(0, 3)))
        assert weighted_d(weighted_d(with_weight)).body.is_zero()


# -- divergence and the boundary ------------------------------------------------

def test_divergence_golden():
    assert divergence(STD3, ee(R3, 3).scale(R2SQ)) == 2 * x3
    assert divergence(STD3, ee(R3, 1)).is_zero()

def test_divergence_weighted_definition_unfolds():
    volume = VolumeSpec.weighted(R3, x1 * x2)
    field = ee(R3, 1).scale(x1)
    classical = divergence(STD3, field)
    from nambu.exterior import apply_vector
    assert divergence(volume, field) == classical - apply_vector(field, x1 * x2)

def test_divergence_equals_delta_on_fields():
    rng = random.Random(61)
    for _ in range(20):
        u = rand_poly(rng, R3, max_degree=2, allow_zero=False)
        w = rand_poly(rng, R3, max_degree=2)
        volume = VolumeSpec(R3, u, w)
        field = rand_vector_field(rng, R3)
        boundary = delta(volume, field)
        assert boundary.scalar_value() == divergence(volume, field)

def test_delta_golden_values():
    assert delta(STD3, ee(R3, 1).scale(x1)).scalar_value() == \
        Polynomial.constant(R3.coordinates, 1)
    assert delta(STD3, ee(R3, 1, 2).scale(x1)) == -ee(R3, 2)
    assert delta(STD3, singular_r3().tensor) == MODULAR_R3

def test_delta_squared_zero_random_volumes():
    rng = random.Random(67)
    for _ in range(50):
        u = rand_poly(rng, R3, max_degree=2, allow_zero=False)
        w = rand_poly(rng, R3, max_degree=2)
        volume = VolumeSpec(R3, u, w)
        k = rng.randint(2, 3)
        field = rand_mv(rng, R3, k)
        assert delta(volume, delta(volume, field)).is_zero()


# -- flat carries the canonical complex to forms under d -------------------------

def _constant_volume(chart, scale):
    return VolumeSpec(chart, Polynomial.constant(chart.coordinates, scale),
                      chart.zero_polynomial())


constant_scales = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@given(st.sampled_from([R3, R4, R5]), constant_scales, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_flat_turns_the_boundary_into_d(chart, scale, seed):
    rng = random.Random(seed)
    volume = _constant_volume(chart, scale)
    field = rand_mv(rng, chart, rng.randint(1, chart.dimension), max_degree=2)
    assert flat(volume, delta(volume, field)).body == ext_d(flat(volume, field).body)


@given(st.sampled_from([R3, R4, R5]), constant_scales, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_flat_turns_a_contraction_into_a_wedge(chart, scale, seed):
    # flat(i(alpha) P) = (-1)^(k-1) alpha ^ flat(P) for a k-multivector P
    rng = random.Random(seed)
    volume = _constant_volume(chart, scale)
    k = rng.randint(1, chart.dimension)
    field = rand_mv(rng, chart, k, max_degree=2)
    alpha = rand_form(rng, chart, 1, max_degree=2)
    wedged = wedge(alpha, flat(volume, field).body)
    assert flat(volume, contract_form(alpha, field)).body == (wedged if k % 2 else -wedged)


# -- modular tensor ---------------------------------------------------------------

def test_modular_tensor_golden():
    assert modular_tensor(singular_r3(), STD3) == MODULAR_R3

def test_modular_tensor_constant_structure_vanishes():
    assert modular_tensor(regular_r4(), STD4).is_zero()

def test_modular_tensor_weight_shift():
    structure = singular_r3()
    weighted = VolumeSpec.weighted(R3, x3)
    shifted = modular_tensor(structure, weighted)
    assert shifted == MODULAR_R3 - sharp(structure, 1, dx(R3, 3))


BUNDLED = {"singular_r3": singular_r3, "regular_r3": regular_r3, "regular_r4": regular_r4}
X1X2_X3SQ = {(1, 1, 0, 0): 1, (0, 0, 2, 0): 1}


@given(st.sampled_from(sorted(BUNDLED)),
       st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3).filter(bool),
                       max_size=4),
       st.integers(1, 3), st.lists(st.integers(0, 2), min_size=4, max_size=4))
@example("singular_r3", X1X2_X3SQ, 1, [1, 0, 0, 0])
@example("regular_r3", X1X2_X3SQ, 1, [1, 0, 0, 0])
@example("regular_r4", X1X2_X3SQ, 1, [1, 0, 0, 0])
@settings(max_examples=30, deadline=None)
def test_modular_tensor_obeys_the_volume_change_laws(name, weight_terms, constant, squares):
    # M_{exp(-w) mu} = M_mu - sharp(dw), and M_{u mu} = M_mu + sharp(du) / u
    # for u = constant + sum of squares, which never vanishes
    structure = BUNDLED[name]()
    chart = structure.chart
    xs = [chart.coordinate_polynomial(i) for i in range(chart.dimension)]
    w = sum((Polynomial.monomial(chart.coordinates, exponent[:chart.dimension]) * c
             for exponent, c in weight_terms.items()), chart.zero_polynomial())
    u = sum((c * x * x for c, x in zip(squares, xs)), chart.scalar(constant))
    standard = VolumeSpec.standard(chart)
    weighted = modular_tensor(structure, standard.reweighted(w))
    assert weighted == modular_tensor(structure, standard) - \
        sharp(structure, 1, differential(chart, w))
    assert modular_tensor(structure, VolumeSpec(chart, u, w)) == \
        weighted + sharp(structure, 1, differential(chart, u)).scale(chart.scalar(1) / u)


def test_modular_potential_zero_when_tensor_zero():
    result = modular_potential(regular_r4(), STD4, 3)
    assert result.feasible
    assert result.potential.is_zero()

def test_modular_potential_infeasible_for_singular():
    for bound in (0, 4, 8):
        result = modular_potential(singular_r3(), STD3, bound)
        assert not result.feasible
        assert result.certificate

def test_modular_potential_weighted_r4():
    structure = regular_r4()
    volume = VolumeSpec.weighted(R4, R4.coordinate_polynomial(3))
    result = modular_potential(structure, volume, 4)
    assert result.feasible
    # returned potential must reproduce the modular tensor exactly
    recovered = sharp(structure, 1, differential(R4, result.potential))
    assert recovered == modular_tensor(structure, volume)

@pytest.mark.parametrize("name", ["singular_r3", "regular_r3", "regular_r4"])
def test_engine_values_on_the_bundled_models_are_polynomials(name):
    model = parse_model((MODELS / f"{name}.nmb").read_text(encoding="utf-8"))
    structure, chart = model.structure(), model.chart
    xs = [chart.coordinate_polynomial(i) for i in range(chart.dimension)]
    square = sum((x * x for x in xs), chart.zero_polynomial())
    tensors = []
    for degree in range(structure.order + 1):
        forms = TruncatedBasis.build(chart, FORM, degree, 1)
        for form in (basis_tensor(forms, j) for j in range(len(forms))):
            tensors += [sharp(structure, degree, form), ext_d(form.scale(square))]
    tensors += [hamiltonian_vf(structure, *(xs[i] + square for i in combo))
                for combo in itertools.combinations(range(chart.dimension), structure.order - 1)]
    standard = VolumeSpec.standard(chart)
    tensors += [delta(standard, structure.tensor.scale(square)),
                delta(standard, GradedTensor.coordinate_field(chart, 0).scale(square))]
    tensors += [modular_tensor(structure, volume)
                for volume in (standard, VolumeSpec.weighted(chart, xs[0]))]
    assert any(not tensor.is_zero() for tensor in tensors)
    for tensor in tensors:
        assert all(type(value) is Polynomial for value in tensor.components.values()), tensor
        assert tensor.is_polynomial()

def test_rational_volume_keeps_only_inexact_quotients_rational():
    volume = VolumeSpec(R3, 1 + x1 * x1, R3.zero_polynomial())
    tensor = modular_tensor(singular_r3(), volume)
    rational = {index for index, value in tensor.components.items()
                if isinstance(value, RationalFunction)}
    assert rational == {(1, 2)}
    assert not tensor.components[(1, 2)].denominator.is_one()
    assert all(type(tensor.components[index]) is Polynomial
               for index in tensor.components.keys() - rational)
    assert not tensor.is_polynomial()
    with pytest.raises(ValueError):
        TruncatedBasis.build(R3, MULTIVECTOR, 2, 6).to_coordinates(tensor)


def test_modular_potential_rational_volume_coefficient():
    # volume u = 1 + x1^2 makes the tensor rational; equations are cleared by
    # denominators and infeasibility persists (u > 0, so the obstruction does)
    volume = VolumeSpec(R3, Polynomial.constant(R3.coordinates, 1) + x1 * x1,
                        R3.zero_polynomial())
    tensor = modular_tensor(singular_r3(), volume)
    assert any(not isinstance(v, Polynomial) for v in tensor.components.values())
    result = modular_potential(singular_r3(), volume, 3)
    assert not result.feasible
    assert result.certificate


def test_modular_potential_solvable_case_r3():
    # exp(-x1)-weighted volume on the regular structure: tensor is sharp of -dx1
    structure = regular_r3()
    volume = VolumeSpec.weighted(R3, x1)
    tensor = modular_tensor(structure, volume)
    assert tensor == -ee(R3, 2, 3)
    result = modular_potential(structure, volume, 2)
    assert result.feasible
    assert sharp(structure, 1, differential(R3, result.potential)) == tensor


# -- the certified solves against one image per basis element ----------------------

def _pencil_r4():
    """(x1^2 + x4^2 + x2 x3)(e1^e2^e3 + e2^e3^e4): dx1 and dx4 both land on
    e2^e3, with dx2 and dx3 landing elsewhere in between."""
    y1, y2, y3, y4 = coords(R4)
    f = y1 * y1 + y4 * y4 + y2 * y3
    return NambuStructure(GradedTensor(R4, MULTIVECTOR, 3, {(0, 1, 2): f, (1, 2, 3): f}))


def _sharp_case(kind, volume_kind, rng):
    if kind == "top":
        f = rand_poly(rng, R3, max_degree=2, allow_zero=False)
        structure = NambuStructure(GradedTensor(R3, MULTIVECTOR, 3, {(0, 1, 2): f}))
    else:
        structure = nondecomposable_r5() if kind == "r5" else _pencil_r4()
    chart = structure.chart
    first = chart.coordinate_polynomial(0)
    if volume_kind == "std":
        return structure, VolumeSpec.standard(chart)
    if volume_kind == "weighted":
        return structure, VolumeSpec.weighted(chart, rand_poly(rng, chart, max_degree=2))
    return structure, VolumeSpec(chart, 1 + first * first, chart.zero_polynomial())


def _system(target, rows):
    """The target's terms, then each row's label and entries, all in order."""
    return list(target.items()), [(label, list(row.items())) for label, row in rows]


def _engine_recorder(systems):
    """The engine's certified solve, first keeping its target and operator rows."""
    solve = truncation._certified_solve

    def recording(operator, target):
        systems.append(_system(target, zip(operator.labels, operator.matrix.row_dicts())))
        return solve(operator, target)
    return recording


def _oracle_recorder(systems):
    """The oracle's column solve, first keeping its target and the rows of its
    columns, numbered in first-seen order."""
    solve = support.solve_labelled

    def recording(columns, target):
        columns = list(columns)
        rows = {}
        for j, column in enumerate(columns):
            for label, coeff in column.items():
                rows.setdefault(label, {})[j] = coeff
        systems.append(_system(target, rows.items()))
        return solve(columns, target)
    return recording


def _solve_spy(solved):
    """``ExactMatrix.solve``, first keeping its rows, each row's entries in
    order, and its right-hand side."""
    solve = ExactMatrix.solve

    def recording(matrix, rhs):
        solved.append(([list(row.items()) for row in matrix.row_dicts()], list(rhs)))
        return solve(matrix, rhs)
    return recording


@given(st.sampled_from(["top", "r5", "pencil"]), st.sampled_from(["std", "weighted", "rational"]),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
@example("pencil", "std", 4, 0)
@settings(max_examples=30, deadline=None)
def test_potential_and_subcomplex_match_the_image_stream(kind, volume_kind, bound, seed):
    # the same labelled system, label for label, and so the same (solution,
    # certificate) pair, as one sharp image per basis element
    structure, volume = _sharp_case(kind, volume_kind, random.Random(seed))
    chart = structure.chart
    sign = 1 if (structure.order - 1) % 2 == 0 else -1
    scalars = TruncatedBasis.build(chart, FORM, 0, bound)
    forms = TruncatedBasis.build(chart, FORM, 1, bound)
    engine, oracle, solved = [], [], []
    with mock.patch("nambu.truncation._certified_solve", _engine_recorder(engine)), \
            mock.patch("support.solve_labelled", _oracle_recorder(oracle)), \
            mock.patch.object(ExactMatrix, "solve", _solve_spy(solved)):
        solution, certificate = oracle_sharp_preimage(
            structure, volume, scalars, lambda g: differential(chart, g.scalar_value() * sign))
        result = modular_potential(structure, volume, bound)
        assert result.certificate == certificate
        if solution is not None:
            potential = GradedTensor.from_scalar(chart, FORM, result.potential)
            assert scalars.to_coordinates(potential) == {j: c for j, c in enumerate(solution) if c}
        assert result.feasible == (solution is not None)
        solution, certificate = oracle_sharp_preimage(structure, volume, forms, lambda form: form)
        report = subcomplex_check(structure, volume, bound)
        assert report.certificate == certificate
        if solution is not None:
            assert forms.to_coordinates(report.witness) == {j: c for j, c in enumerate(solution) if c}
        assert report.is_subcomplex == (solution is not None)
    assert engine == oracle
    # the numbered systems that reach the elimination: oracle, engine, oracle, engine
    assert len(solved) == 4 and solved[0::2] == solved[1::2]


@pytest.mark.parametrize("bound", [2, 4])
@pytest.mark.parametrize("structure", [singular_r3(), _pencil_r4()], ids=["singular_r3", "pencil"])
def test_certified_solves_take_their_rows_from_the_operator(structure, bound):
    # one builder: after the target's labels, the rows that reach the
    # elimination are the operator's own rows, in its order
    chart = structure.chart
    volume = VolumeSpec.standard(chart)
    sign = 1 if (structure.order - 1) % 2 == 0 else -1
    target = {(idx, exponent): coeff
              for idx, value in modular_tensor(structure, volume).components.items()
              for exponent, coeff in value.terms.items()}
    cases = [(modular_potential, TruncatedBasis.build(chart, FORM, 0, bound),
              lambda g: sharp(structure, 1, differential(chart, g.scalar_value() * sign))),
             (subcomplex_check, TruncatedBasis.build(chart, FORM, 1, bound),
              lambda form: sharp(structure, 1, form))]
    for command, domain, mapping in cases:
        solved = []
        with mock.patch.object(ExactMatrix, "solve", _solve_spy(solved)):
            command(structure, volume, bound)
        operator = TruncatedOperator.build(domain, mapping)
        rows = dict(zip(operator.labels, operator.matrix.row_dicts()))
        assert target and rows.keys() - target
        expected = [rows.get(label, {}) for label in target] + \
            [row for label, row in rows.items() if label not in target]
        rhs = list(target.values()) + [0] * (len(expected) - len(target))
        assert solved == [([list(row.items()) for row in expected], rhs)]


def test_certified_solves_check_no_row_again(monkeypatch):
    # the numbering puts every key in range, so neither the operator, nor
    # the labelled system, nor [A | b] re-checks the rows they share
    checked = []
    init = ExactMatrix.__init__

    def counting(matrix, rows, cols, row_dicts=None):
        checked.append((rows, cols))
        init(matrix, rows, cols, row_dicts)

    monkeypatch.setattr(ExactMatrix, "__init__", counting)
    assert not modular_potential(singular_r3(), STD3, 8).feasible
    assert not subcomplex_check(singular_r3(), STD3, 4).is_subcomplex
    assert checked == []


def test_a_certificate_row_outside_the_image_eliminates_once(monkeypatch):
    # b's pivot row holds no entry of the operator, so the certificate is the
    # unit vector at that row and no transposed system is eliminated
    calls = []
    echelon = ExactMatrix._echelon

    def counted(matrix):
        calls.append(matrix.cols)
        return echelon(matrix)

    monkeypatch.setattr(ExactMatrix, "_echelon", counted)
    for search, bound in ((modular_potential, 20), (subcomplex_check, 12)):
        calls.clear()
        outcome = search(singular_r3(), STD3, bound)
        assert outcome.certificate is not None
        assert len(calls) == 1
        assert [weight for _, weight in outcome.certificate] == [1]


@pytest.mark.parametrize("bound", [4, 8])
def test_sharp_runs_only_on_the_stencil_probes(bound):
    # 1 + m + m(m+1)/2 = 10 probes per index on R^3, whatever the bound
    with mock.patch("nambu.modular.sharp", wraps=sharp) as counted:
        modular_potential(singular_r3(), STD3, bound)
        assert counted.call_count == 10
        counted.reset_mock()
        subcomplex_check(singular_r3(), STD3, bound)
        assert counted.call_count == 3 * 10


# -- basic volumes ----------------------------------------------------------------

def test_basic_volume_r4_normal_form():
    mu = basic_volume(regular_r4(), STD4, R4.zero_polynomial())
    assert mu.body == dx(R4, 4)
    report = check_basic(regular_r4(), mu, list(coords(R4)))
    assert report.passed

def test_basic_volume_top_order_is_scalar_one():
    mu = basic_volume(regular_r3(), STD3, R3.zero_polynomial())
    assert mu.degree == 0
    assert mu.body == GradedTensor.from_scalar(R3, FORM, 1)

def test_basic_volume_rejected_for_singular():
    with pytest.raises(ValueError):
        basic_volume(singular_r3(), STD3, R3.zero_polynomial())

def test_check_basic_detects_failure():
    candidate = WeightedForm(R4.zero_polynomial(), dx(R4, 1))
    report = check_basic(regular_r4(), candidate, list(coords(R4)))
    assert not report.passed
    assert any(v.condition == "contraction" for v in report.violations)

def test_check_basic_trivial_family():
    one = Polynomial.constant(R4.coordinates, 1)
    candidate = WeightedForm(R4.zero_polynomial(), dx(R4, 1))
    assert check_basic(regular_r4(), candidate, [one, one, one]).passed


# -- tangency ---------------------------------------------------------------------

def test_everything_tangent_for_singular_r3():
    rng = random.Random(71)
    for _ in range(10):
        field = rand_mv(rng, R3, rng.randint(1, 3))
        assert is_tangent(singular_r3(), field, 3)

def test_transverse_direction_not_tangent():
    assert not is_tangent(regular_r4(), ee(R4, 4), 2)

def test_leaf_multivector_tangent():
    field = ee(R4, 1, 2).scale(R4.coordinate_polynomial(3))
    assert is_tangent(regular_r4(), field, 2)


# -- identity suites over random data ----------------------------------------------


def random_volume(rng, chart, allow_nonconstant=True):
    if allow_nonconstant and rng.random() < 0.4:
        u = rand_poly(rng, chart, max_degree=1, allow_zero=False)
    else:
        u = Polynomial.constant(chart.coordinates, 1)
    w = rand_poly(rng, chart, max_degree=2) if rng.random() < 0.5 \
        else chart.zero_polynomial()
    return VolumeSpec(chart, u, w)


def test_boundary_contraction_identity():
    # i(a) delta(P) = div(i(a)P) + (-1)^k i(da)P for (k-1)-forms a
    rng = random.Random(73)
    from support import rand_form
    for _ in range(50):
        chart = rng.choice([R3, R4])
        volume = random_volume(rng, chart)
        k = rng.randint(1, 3)
        field = rand_mv(rng, chart, k, max_degree=2)
        alpha = rand_form(rng, chart, k - 1, max_degree=2)
        lhs = pair(alpha, delta(volume, field))
        i_alpha_p = contract_form(alpha, field)
        rhs = divergence(volume, i_alpha_p) if k >= 1 else None
        term = pair(ext_d(alpha), field)
        if k % 2:
            term = -term
        assert lhs == rhs + term

def test_flat_lie_compatibility():
    # L_X flat(P) = flat(L_X P) + div(X) flat(P), unweighted volumes
    rng = random.Random(79)
    for _ in range(50):
        chart = rng.choice([R3, R4])
        u = rand_poly(rng, chart, max_degree=1, allow_zero=False)
        volume = VolumeSpec(chart, u, chart.zero_polynomial())
        x = rand_vector_field(rng, chart, max_degree=2)
        p = rand_mv(rng, chart, rng.randint(1, 3), max_degree=2)
        lhs = lie_form(x, flat(volume, p).body)
        rhs = (flat(volume, lie_mv(x, p)).body
               + flat(volume, p).body.scale(divergence(volume, x)))
        assert lhs == rhs
