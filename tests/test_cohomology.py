"""Truncated cohomology/homology dimensions, decomposition lemmas, duality."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nambu.algebra import ExactMatrix, Polynomial, grlex_key, matrix_from_columns, variables
from nambu.cohomology import (
    _annihilates,
    _complement_kernel,
    canonical_homology_dim,
    duality_report,
    foliated_cohomology_dim,
    naka_pair,
    naka_triple,
    np_cocycle_check_top,
    np_h1_top,
    reduce_annihilators,
    subcomplex_check,
)
from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    contract_form,
    differential,
    ext_d,
    pair,
)
from nambu.model import parse_model
from nambu.modular import VolumeSpec, delta, modular_potential
from nambu.structures import NambuStructure, sharp
from nambu.truncation import (
    TruncatedBasis,
    TruncatedOperator,
    ker_sharp_basis,
    monomials_up_to,
    solve_in_span,
)
from support import (
    R3,
    R4,
    _span_rank_extension,
    assert_elimination_matches_sympy,
    coords,
    form_cochain_coboundary,
    form_cochain_value,
    oracle_quotient,
    radius_squared,
    rand_form,
    rand_mv,
    rand_poly,
    regular_r3,
    regular_r4,
    singular_r3,
)

x1, x2, x3 = coords(R3)
R2SQ = radius_squared(R3)
STD3 = VolumeSpec.standard(R3)
STD4 = VolumeSpec.standard(R4)


def dx(chart, *indices):
    return GradedTensor.basis(chart, FORM, tuple(i - 1 for i in indices))


# -- truncated bases and operators ------------------------------------------------

def test_monomials_up_to_counts():
    assert len(monomials_up_to(3, 2)) == 10
    assert monomials_up_to(2, 1) == [(0, 0), (0, 1), (1, 0)]

def test_basis_size_formula():
    basis = TruncatedBasis.build(R3, FORM, 1, 2)
    assert len(basis) == 3 * 10

def test_basis_round_trip():
    basis = TruncatedBasis.build(R3, FORM, 1, 2)
    form = dx(R3, 1).scale(x1 * x2) - dx(R3, 3).scale(2)
    vector = basis.to_coordinates(form)
    assert sorted(vector.values()) == [Fraction(-2), Fraction(1)]
    assert basis.from_coordinates(vector) == form

def test_basis_rejects_overflow():
    basis = TruncatedBasis.build(R3, FORM, 1, 1)
    with pytest.raises(ValueError):
        basis.to_coordinates(dx(R3, 1).scale(x1 * x2))

def test_images_and_positions_outside_the_basis_are_rejected():
    constants = TruncatedBasis.build(R3, FORM, 1, 0)
    with pytest.raises(ValueError):
        constants.to_coordinates(ext_d(GradedTensor(R3, FORM, 0, {(): x1 * x2})))
    for outside in (len(constants), -1):
        with pytest.raises(ValueError):
            constants.from_coordinates({outside: Fraction(1)})


def _operator_oracle(domain, codomain, mapping):
    """An operator matrix assembled independently of the engine: coordinates
    of each image in a full codomain basis, one row per codomain element."""
    return matrix_from_columns(
        (codomain.to_coordinates(mapping(domain.tensor_of(j))) for j in range(len(domain))),
        len(codomain))


def _per_element_oracle(domain, mapping):
    """Row labels and matrix from one image per basis element, the assembly
    the stencil replaced: rows are the labels the images hold, in
    component-then-graded-lex order, each row filled in column order."""
    rows = {}
    for j in range(len(domain)):
        for idx, value in mapping(domain.tensor_of(j)).components.items():
            for exponent, coeff in value.terms.items():
                rows.setdefault((idx, exponent), {})[j] = coeff
    labels = tuple(sorted(rows, key=lambda label: (label[0], grlex_key(label[1]))))
    return labels, ExactMatrix(len(labels), len(domain), [rows[label] for label in labels])


def _assert_stencil_matches_oracle(domain, mapping):
    operator = TruncatedOperator.build(domain, mapping)
    labels, matrix = _per_element_oracle(domain, mapping)
    assert operator.labels == labels
    assert operator.matrix == matrix
    # row dicts filled in the same column order, not only equal as maps
    assert [list(row) for row in operator.matrix.row_dicts()] == \
        [list(row) for row in matrix.row_dicts()]


def _without_zero_rows(matrix):
    rows = [row for row in matrix.row_dicts() if row]
    return ExactMatrix(len(rows), matrix.cols, rows)


# more than the coefficient degree of any bundled structure or annihilator
WIDE = 3


def _engine_operators(structure, bound):
    """(domain, oracle codomain, mapping) of each operator the engine assembles."""
    chart, n = structure.chart, structure.order
    for k in range(n + 1):
        domain = TruncatedBasis.build(chart, FORM, k, bound)
        yield (domain, TruncatedBasis.build(chart, MULTIVECTOR, n - k, bound + WIDE),
               lambda form, k=k: sharp(structure, k, form))
        if k < n:
            yield (domain, TruncatedBasis.build(chart, MULTIVECTOR, n - k - 1, bound + WIDE),
                   lambda form, k=k: sharp(structure, k + 1, ext_d(form)))
    if structure.is_top_order:
        f = structure.top_coefficient()
        yield (TruncatedBasis.build(chart, FORM, 1, bound),
               TruncatedBasis.build(chart, FORM, 2, bound + WIDE),
               lambda form: np_cocycle_check_top(f, form))
    for annihilator in reduce_annihilators(ker_sharp_basis(structure, 1, bound)):
        for k in range(1, chart.dimension + 1):
            yield (TruncatedBasis.build(chart, MULTIVECTOR, k, bound),
                   TruncatedBasis.build(chart, MULTIVECTOR, k - 1, bound + WIDE),
                   lambda field, a=annihilator: contract_form(a, field))


@pytest.mark.parametrize("name", ["regular_r3", "regular_r4", "singular_r3"])
def test_operator_rows_are_the_codomain_rows_its_images_hold(name):
    # same matrix as a full codomain gives, row for row, minus the zero rows
    model = parse_model((MODELS / f"{name}.nmb").read_text(encoding="utf-8"))
    structure = model.structure()
    operators = 0
    for bound in range(4):
        for domain, codomain, mapping in _engine_operators(structure, bound):
            expected = _without_zero_rows(_operator_oracle(domain, codomain, mapping))
            assert TruncatedOperator.build(domain, mapping).matrix == expected
            operators += 1
    assert operators == 4 * (8 if structure.is_top_order else 7 + 4)


@pytest.mark.parametrize("name", ["regular_r3", "regular_r4", "singular_r3"])
def test_stencil_matches_the_per_element_oracle(name):
    # the boundary, d from the previous bound and f dg, as the engine builds them
    structure = parse_model((MODELS / f"{name}.nmb").read_text(encoding="utf-8")).structure()
    chart = structure.chart
    standard = VolumeSpec.standard(chart)
    for bound in range(4):
        for k in range(1, chart.dimension + 1):
            _assert_stencil_matches_oracle(TruncatedBasis.build(chart, MULTIVECTOR, k, bound),
                                           lambda field: delta(standard, field))
            _assert_stencil_matches_oracle(TruncatedBasis.build(chart, FORM, k - 1, bound + 1),
                                           ext_d)
        if structure.is_top_order:
            f = structure.top_coefficient()
            _assert_stencil_matches_oracle(TruncatedBasis.build(chart, FORM, 0, bound),
                                           lambda g: ext_d(g).scale(f))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_stencil_matches_the_per_element_oracle_on_random_structures(seed, bound):
    rng = random.Random(seed)
    structure = NambuStructure(rand_mv(rng, R4, 3, max_degree=2))
    top = rand_poly(rng, R3, max_degree=3, allow_zero=False)
    weighted = VolumeSpec.weighted(R4, rand_poly(rng, R4, max_degree=2))
    annihilator = rand_form(rng, R4, 1, max_degree=2)
    for k in range(4):
        forms = TruncatedBasis.build(R4, FORM, k, bound)
        _assert_stencil_matches_oracle(forms, lambda form, k=k: sharp(structure, k, form))
        if k < 3:
            _assert_stencil_matches_oracle(
                forms, lambda form, k=k: sharp(structure, k + 1, ext_d(form)))
    for k in range(1, 5):
        fields = TruncatedBasis.build(R4, MULTIVECTOR, k, bound)
        _assert_stencil_matches_oracle(fields, lambda field: delta(weighted, field))
        _assert_stencil_matches_oracle(fields, lambda field: contract_form(annihilator, field))
    _assert_stencil_matches_oracle(TruncatedBasis.build(R3, FORM, 1, bound),
                                   lambda form: np_cocycle_check_top(top, form))
    _assert_stencil_matches_oracle(TruncatedBasis.build(R3, FORM, 0, bound),
                                   lambda g: ext_d(g).scale(top))


@pytest.mark.parametrize("bound", [0, 1, 3])
def test_second_order_mapping_breaks_the_stencil_guard(bound):
    scalars = TruncatedBasis.build(R3, FORM, 0, bound)

    def second_derivative(g):
        return GradedTensor.from_scalar(R3, FORM, g.scalar_value().diff(0).diff(0))

    with pytest.raises(RuntimeError, match="not of first order"):
        TruncatedOperator.build(scalars, second_derivative)
    # a first-order operator with a non-constant symbol passes the guard
    _assert_stencil_matches_oracle(
        scalars, lambda g: GradedTensor.from_scalar(R3, FORM, x2 * x3 * g.scalar_value().diff(0)))


def test_non_polynomial_image_is_rejected():
    forms = TruncatedBasis.build(R3, FORM, 1, 1)
    with pytest.raises(ValueError, match="not a polynomial"):
        TruncatedOperator.build(forms, lambda form: form.scale(R3.scalar(1) / (1 + x1 * x1)))


def test_operator_coordinates_are_strict():
    low = TruncatedBasis.build(R3, FORM, 0, 2)
    high = TruncatedBasis.build(R3, FORM, 1, 1)
    operator = TruncatedOperator.build(low, ext_d)
    assert operator.coordinates_in(high) == [
        high.to_coordinates(ext_d(low.tensor_of(j))) for j in range(len(low))]
    narrow = TruncatedBasis.build(R3, FORM, 1, 0)
    with pytest.raises(ValueError, match="exceeds the coefficient bound 0"):
        operator.coordinates_in(narrow)
    # images of vectors: x1^2 - x2 has d outside the narrow basis, x2 + 3 inside
    vectors = [low.to_coordinates(GradedTensor.from_scalar(R3, FORM, x2 + 3)),
               low.to_coordinates(GradedTensor.from_scalar(R3, FORM, x1 * x1 - x2))]
    assert operator.coordinates_in(narrow, vectors[:1]) == \
        [{narrow.position(((1,), (0, 0, 0))): 1}]
    with pytest.raises(ValueError, match="exceeds the coefficient bound 0"):
        operator.coordinates_in(narrow, vectors)


def test_d_after_d_is_the_zero_matrix():
    low = TruncatedBasis.build(R3, FORM, 0, 3)
    mid = TruncatedBasis.build(R3, FORM, 1, 3)
    high = TruncatedBasis.build(R3, FORM, 2, 3)
    d0 = _operator_oracle(low, mid, ext_d)
    d1 = _operator_oracle(mid, high, ext_d)
    assert (d1 @ d0).rank() == 0


# -- kernel bases ------------------------------------------------------------------

def test_kernel_empty_for_singular_r3():
    for bound in (0, 2, 4):
        assert ker_sharp_basis(singular_r3(), 1, bound) == []

def test_kernel_of_r4_degree_one():
    basis = ker_sharp_basis(regular_r4(), 1, 0)
    assert basis == [dx(R4, 4)]

def test_kernel_of_r4_degree_two():
    basis = ker_sharp_basis(regular_r4(), 2, 0)
    assert basis == [dx(R4, 1, 4), dx(R4, 2, 4), dx(R4, 3, 4)]

def test_kernel_members_annihilate():
    structure = regular_r4()
    for form in ker_sharp_basis(structure, 2, 1):
        assert sharp(structure, 2, form).is_zero()


# -- foliated cohomology -------------------------------------------------------------

def test_foliated_h1_singular_r3_vanishes():
    for bound in range(2, 7):
        result = foliated_cohomology_dim(singular_r3(), 1, bound)
        assert result.dimension == 0
        assert result.stabilized

def test_foliated_h0_regular_r3_constants():
    result = foliated_cohomology_dim(regular_r3(), 0, 3)
    assert result.dimension == 1

def test_foliated_h1_regular_r4_leafwise_poincare():
    result = foliated_cohomology_dim(regular_r4(), 1, 3)
    assert result.dimension == 0

def test_foliated_full_window_regular_r3():
    for k in range(4):
        expected = 1 if k == 0 else 0
        assert foliated_cohomology_dim(regular_r3(), k, 4).dimension == expected

def test_foliated_degree_out_of_range():
    with pytest.raises(ValueError):
        foliated_cohomology_dim(regular_r3(), 4, 2)


# -- the top-order cocycle condition --------------------------------------------------

def test_cocycle_check_differential_of_coefficient():
    assert np_cocycle_check_top(R2SQ, differential(R3, R2SQ)).is_zero()

def test_cocycle_check_coboundary():
    g = x1 * x2
    alpha = differential(R3, g).scale(R3.scalar(R2SQ))
    assert np_cocycle_check_top(R2SQ, alpha).is_zero()

def test_cocycle_check_nonzero_residual():
    residual = np_cocycle_check_top(R2SQ, dx(R3, 1))
    expected = GradedTensor(R3, FORM, 2, {(0, 1): 2 * x2, (0, 2): 2 * x3})
    assert residual == expected


def test_np_h1_top_dimension_window():
    for bound in range(2, 7):
        report = np_h1_top(R2SQ, bound)
        assert report.dimension == 1

def test_np_h1_top_representative_is_class_of_df():
    report = np_h1_top(R2SQ, 4)
    assert len(report.representatives) == 1
    representative = report.representatives[0]
    # membership solve: representative = c*df + f*dg exactly, with c != 0
    chart = R3
    candidates = [differential(chart, R2SQ)]
    f_scalar = chart.scalar(R2SQ)
    for exponent in monomials_up_to(3, 3):
        if sum(exponent) == 0:
            continue
        mono = Polynomial.monomial(chart.coordinates, exponent)
        candidates.append(differential(chart, mono).scale(f_scalar))
    solution, certificate = solve_in_span(candidates, representative)
    assert solution is not None
    assert solution[0] != 0

def test_np_h1_top_regular_volume_vanishes():
    one = Polynomial.constant(R3.coordinates, 1)
    assert np_h1_top(one, 4).dimension == 0

def test_np_h1_top_df_never_a_coboundary():
    # the obstruction pairing: f*dg never equals d(f) at any bound
    chart = R3
    f_scalar = chart.scalar(R2SQ)
    for bound in (2, 4, 6):
        candidates = []
        for exponent in monomials_up_to(3, bound + 1):
            if sum(exponent) == 0:
                continue
            mono = Polynomial.monomial(chart.coordinates, exponent)
            candidates.append(differential(chart, mono).scale(f_scalar))
        solution, certificate = solve_in_span(candidates, differential(chart, R2SQ))
        assert solution is None
        assert certificate

def test_np_h1_top_bound_precondition():
    with pytest.raises(ValueError):
        np_h1_top(R2SQ, 0)

def test_h1_top_cocycle_operator_matches_sympy():
    # the operator np_h1_top eliminates for singular_r3 at bound 7: 489x360,
    # the 495 rows of the 2-forms of coefficient degree <= 8 less 6 zero rows
    domain = TruncatedBasis.build(R3, FORM, 1, 7)
    operator = TruncatedOperator.build(domain, lambda form: np_cocycle_check_top(R2SQ, form))
    assert (operator.matrix.rows, operator.matrix.cols) == (489, 360)
    assert_elimination_matches_sympy(operator.matrix)


# -- certificates checked without elimination ------------------------------------

MODELS = Path(__file__).resolve().parent.parent / "models"


def _record_labelled_systems(monkeypatch):
    """Keep every (columns, target, outcome) that solve_labelled sees."""
    import nambu.truncation as truncation
    solve = truncation.solve_labelled
    systems = []

    def recording(columns, target):
        columns = list(columns)
        outcome = solve(columns, target)
        systems.append((columns, target, outcome))
        return outcome

    monkeypatch.setattr(truncation, "solve_labelled", recording)
    return systems


def test_labelled_certificates_hold_on_bundled_models(monkeypatch):
    systems = _record_labelled_systems(monkeypatch)
    for path in sorted(MODELS.glob("*.nmb")):
        model = parse_model(path.read_text(encoding="utf-8"))
        structure = model.structure()
        for name, entry in model.bindings.items():
            if entry.kind != "volume":
                continue
            for bound in (2, 5):
                modular_potential(structure, model.volume(name), bound)
                subcomplex_check(structure, model.volume(name), bound)
    certified = 0
    for columns, target, (solution, certificate) in systems:
        labels = set(target).union(*columns)
        if certificate is None:
            for label in labels:
                image = sum((c * column.get(label, 0) for c, column in zip(solution, columns)),
                            Fraction(0))
                assert image == target.get(label, 0)
            continue
        certified += 1
        weights = dict(certificate)
        assert len(weights) == len(certificate) and set(weights) <= labels
        assert all(weight != 0 for weight in weights.values())
        for column in columns:
            assert sum(w * column.get(label, 0) for label, w in weights.items()) == 0
        assert sum(w * target.get(label, 0) for label, w in weights.items()) != 0
    assert len(systems) == 16 and 0 < certified < len(systems)


# -- canonical homology -----------------------------------------------------------------

def test_canonical_h2_singular_r3_vanishes():
    for bound in range(2, 7):
        assert canonical_homology_dim(singular_r3(), STD3, 2, bound) == 0

def test_canonical_h1_singular_r3():
    assert canonical_homology_dim(singular_r3(), STD3, 1, 4) == 0

def test_canonical_h2_regular_r3():
    assert canonical_homology_dim(regular_r3(), STD3, 2, 4) == 0

def test_canonical_interior_r4():
    assert canonical_homology_dim(regular_r4(), STD4, 1, 3) == 0
    assert canonical_homology_dim(regular_r4(), STD4, 2, 3) == 0

def test_canonical_volume_restrictions():
    weighted = VolumeSpec.weighted(R3, x1)
    with pytest.raises(ValueError):
        canonical_homology_dim(singular_r3(), weighted, 2, 3)
    scaled = VolumeSpec(R3, x1, R3.zero_polynomial())
    with pytest.raises(ValueError):
        canonical_homology_dim(singular_r3(), scaled, 2, 3)

def test_canonical_constant_coefficient_volume_matches_standard():
    doubled = VolumeSpec(R3, Polynomial.constant(R3.coordinates, 2),
                         R3.zero_polynomial())
    assert canonical_homology_dim(singular_r3(), doubled, 2, 3) == \
        canonical_homology_dim(singular_r3(), STD3, 2, 3)


# -- subcomplex check ----------------------------------------------------------------

def test_subcomplex_no_for_singular_r3():
    for bound in range(0, 9):
        report = subcomplex_check(singular_r3(), STD3, bound)
        assert not report.is_subcomplex
        assert report.certificate

def test_subcomplex_yes_for_r4_with_zero_witness():
    report = subcomplex_check(regular_r4(), STD4, 2)
    assert report.is_subcomplex
    assert report.witness is not None and report.witness.is_zero()

def test_subcomplex_yes_for_weighted_r3():
    volume = VolumeSpec.weighted(R3, x1)
    report = subcomplex_check(regular_r3(), volume, 2)
    assert report.is_subcomplex
    witness = report.witness
    assert witness is not None
    structure = regular_r3()
    from nambu.modular import modular_tensor
    assert sharp(structure, 1, witness) == modular_tensor(structure, volume)


# -- decomposition lemmas ---------------------------------------------------------------

y1, y2 = variables("x1 x2")


def test_naka_pair_radial_example():
    p = y1 + (y1 ** 2 + y2 ** 2) * y1
    q = y2 + (y1 ** 2 + y2 ** 2) * y2
    result = naka_pair(p, q)
    assert result.applicable
    assert (result.a, result.b) == (1, 0)
    assert result.p_tilde == y1
    assert result.q_tilde == y2

def test_naka_pair_rotational_example():
    result = naka_pair(-y2, y1)
    assert result.applicable
    assert (result.a, result.b) == (0, -1)
    assert result.p_tilde.is_zero()
    assert result.q_tilde.is_zero()

def test_naka_pair_zero():
    zero = Polynomial.zero(("x1", "x2"))
    result = naka_pair(zero, zero)
    assert result.applicable
    assert (result.a, result.b) == (0, 0)

def test_naka_pair_not_applicable():
    result = naka_pair(y1, y1)
    assert not result.applicable
    assert result.hypothesis_residual is not None

def test_naka_pair_randomized_forward_compositions():
    rng = random.Random(97)
    chart2 = Chart.of("x1 x2")
    radius = y1 ** 2 + y2 ** 2
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(-3, 3))
        potential = rand_poly(rng, chart2, max_degree=3)
        pt, qt = potential.diff(0), potential.diff(1)
        p = a * y1 + b * y2 + radius * pt
        q = -b * y1 + a * y2 + radius * qt
        result = naka_pair(p, q)
        assert result.applicable
        rebuilt_p = result.a * y1 + result.b * y2 + radius * result.p_tilde
        rebuilt_q = -result.b * y1 + result.a * y2 + radius * result.q_tilde
        assert rebuilt_p == p and rebuilt_q == q
        assert result.p_tilde.diff(1) == result.q_tilde.diff(0)


z1, z2, z3 = variables("x1 x2 x3")
RADIUS3 = z1 ** 2 + z2 ** 2 + z3 ** 2


def test_naka_triple_linear_example():
    result = naka_triple(z1, z2, z3)
    assert result.applicable
    assert result.a == 1
    assert all(t.is_zero() for t in result.tildes)

def test_naka_triple_pure_tilde_example():
    result = naka_triple(RADIUS3 * z2, RADIUS3 * z1, Polynomial.zero(z1.variables))
    assert result.applicable
    assert result.a == 0
    at, bt, ct = result.tildes
    assert (at, bt) == (z2, z1)
    assert ct.is_zero()

def test_naka_triple_scaled_linear():
    result = naka_triple(2 * z1, 2 * z2, 2 * z3)
    assert result.applicable
    assert result.a == 2

def test_naka_triple_not_applicable():
    result = naka_triple(z1, z1, z1)
    assert not result.applicable
    assert result.failed_relation

def test_naka_triple_names_the_a_for_b_variant():
    # the first two relations and the variant of the third with A x3 in
    # place of B x3 hold; the third itself does not, because A != B
    a_poly = -z1 ** 2 * RADIUS3
    b_poly = (z2 ** 2 + z3 ** 2) * RADIUS3
    c_poly = 4 * z2 * z3 * RADIUS3
    result = naka_triple(a_poly, b_poly, c_poly)
    assert not result.applicable
    assert result.failed_relation == "third (only its A-for-B variant holds)"

def test_naka_triple_randomized_forward_compositions():
    rng = random.Random(101)
    for _ in range(20):
        a = Fraction(rng.randint(-3, 3))
        potential = rand_poly(rng, R3, max_degree=3)
        at, bt, ct = potential.diff(0), potential.diff(1), potential.diff(2)
        inputs = [a * z1 + RADIUS3 * at, a * z2 + RADIUS3 * bt, a * z3 + RADIUS3 * ct]
        result = naka_triple(*inputs)
        assert result.applicable
        rat, rbt, rct = result.tildes
        assert result.a * z1 + RADIUS3 * rat == inputs[0]
        assert result.a * z2 + RADIUS3 * rbt == inputs[1]
        assert result.a * z3 + RADIUS3 * rct == inputs[2]
        assert rat.diff(1) == rbt.diff(0)
        assert rat.diff(2) == rct.diff(0)
        assert rbt.diff(2) == rct.diff(1)


def test_dimension_window_stability():
    # positive-degree dimensions are non-negative and constant across the
    # window for every acceptance structure
    cases = [
        (singular_r3(), STD3),
        (regular_r3(), STD3),
        (regular_r4(), STD4),
    ]
    for structure, volume in cases:
        n = structure.order
        for degree in range(1, n + 1):
            foliated = [foliated_cohomology_dim(structure, degree, b).dimension
                        for b in (2, 3, 4)]
            assert all(d >= 0 for d in foliated)
            assert len(set(foliated)) == 1, (structure, degree, foliated)
        for degree in range(0, n):
            canonical = [canonical_homology_dim(structure, volume, degree, b)
                         for b in (2, 3, 4)]
            assert all(d >= 0 for d in canonical)
            assert len(set(canonical)) == 1, (structure, degree, canonical)


def test_basic_function_corner_growth():
    # Degree-zero foliated classes are the functions constant along leaves.
    # With a transverse direction that space is all polynomials in the
    # transverse coordinate, so its truncation grows as bound+1 instead of
    # stabilizing; the dual-degree canonical homology counts the same
    # functions, which is why the duality table still matches row by row.
    for bound in (2, 3, 4):
        transverse = bound + 1
        assert foliated_cohomology_dim(regular_r4(), 0, bound).dimension == transverse
        assert canonical_homology_dim(regular_r4(), STD4, 3, bound) == transverse
    # with no transverse direction the corner is just the constants
    for structure in (singular_r3(), regular_r3()):
        for bound in (2, 3, 4):
            assert foliated_cohomology_dim(structure, 0, bound).dimension == 1
            assert canonical_homology_dim(structure, STD3, 3, bound) == 1


# -- independent oracles for the truncated engines ------------------------------------------

def _de_rham_dim(chart, degree, bound):
    """Truncated polynomial de Rham dimension, via plain exterior derivative."""
    domain = TruncatedBasis.build(chart, FORM, degree, bound)
    if degree < chart.dimension:
        codomain = TruncatedBasis.build(chart, FORM, degree + 1, bound)
        closed = len(_operator_oracle(domain, codomain, ext_d).nullspace())
    else:
        closed = len(domain)
    exact_rank = 0
    if degree >= 1:
        previous = TruncatedBasis.build(chart, FORM, degree - 1, bound + 1)
        exact_rank = _operator_oracle(previous, domain, ext_d).rank()
    return closed - exact_rank


def test_canonical_homology_matches_de_rham_oracle():
    # On a 3-chart with trivial annihilator the boundary is the exterior
    # derivative conjugated through the volume, so homology in degree k must
    # equal de Rham cohomology in degree m-k; the oracle never touches the
    # tangency or boundary machinery.
    for structure in (singular_r3(), regular_r3()):
        for degree in (1, 2, 3):
            for bound in (2, 3):
                expected = _de_rham_dim(R3, 3 - degree, bound)
                assert canonical_homology_dim(structure, STD3, degree, bound) == expected


def _leafwise_dim(degree, bound):
    """Truncated leafwise cohomology of the 4-chart normal form, built from
    scratch: forms in the first three differentials with 4-variable
    coefficients, differentiated along the leaf directions only."""
    import itertools
    from fractions import Fraction
    from nambu.truncation import monomials_up_to as monos

    leaf_indices = list(itertools.combinations(range(3), degree))
    lower_indices = list(itertools.combinations(range(3), degree - 1)) if degree else []
    upper_indices = list(itertools.combinations(range(3), degree + 1))

    def basis(indices, b):
        return [(idx, mono) for idx in indices for mono in monos(4, b)]

    def d_matrix(source_indices, target_indices, source_bound, target_bound):
        source = basis(source_indices, source_bound)
        target = basis(target_indices, target_bound)
        position = {element: i for i, element in enumerate(target)}
        from nambu.algebra import ExactMatrix, Polynomial
        rows = [{} for _ in target]
        from nambu.exterior import merge_indices
        for j, (idx, mono) in enumerate(source):
            coeff = Polynomial.monomial(("x1", "x2", "x3", "x4"), mono)
            for axis in range(3):
                partial = coeff.diff(axis)
                if partial.is_zero():
                    continue
                merged = merge_indices((axis,), idx)
                if merged is None:
                    continue
                sign, key = merged
                for exponent, value in partial.terms.items():
                    row = rows[position[(key, exponent)]]
                    total = row.get(j, 0) + (value if sign > 0 else -value)
                    if total:
                        row[j] = total
                    else:
                        row.pop(j, None)
        return ExactMatrix(len(target), len(source), rows)

    if degree < 3:
        closed = len(d_matrix(leaf_indices, upper_indices, bound, bound).nullspace())
    else:
        closed = len(basis(leaf_indices, bound))
    exact_rank = 0
    if degree >= 1:
        exact_rank = d_matrix(lower_indices, leaf_indices, bound + 1, bound).rank()
    return closed - exact_rank


def test_foliated_matches_leafwise_oracle_r4():
    structure = regular_r4()
    for degree in range(4):
        for bound in (2, 3):
            expected = _leafwise_dim(degree, bound)
            assert foliated_cohomology_dim(structure, degree, bound).dimension == expected


def _naive_rank(vectors):
    """Rank by plain Gaussian elimination on the vectors taken as rows."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _greedy_rank_extension(base, candidates):
    """Reference: re-rank the span once per candidate, keeping those that grow it."""
    current = list(base)
    chosen = []
    for pos, vec in enumerate(candidates):
        if _naive_rank(current + [vec]) > _naive_rank(current):
            chosen.append(pos)
            current.append(vec)
    return _naive_rank(base), chosen


sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           st.fractions(-3, 3, max_denominator=4))


@st.composite
def column_sets(draw):
    length = draw(st.integers(0, 5))
    column = st.lists(sparse_entries, min_size=length, max_size=length)
    return length, draw(st.lists(column, max_size=4)), draw(st.lists(column, max_size=6))


F = Fraction


@given(column_sets())
@example((3, [], [[F(1), F(0), F(0)], [F(2), F(0), F(0)], [F(0), F(1), F(0)]]))
@example((3, [[F(1), F(0), F(0)], [F(0), F(0), F(0)]], []))
@example((2, [], []))
@settings(max_examples=80, deadline=None)
def test_span_rank_extension_matches_greedy_rerank(case):
    length, base, candidates = case

    def sparse(vectors):
        return [{i: v for i, v in enumerate(vec) if v != 0} for vec in vectors]

    assert _span_rank_extension(sparse(base), sparse(candidates), length) == \
        _greedy_rank_extension(base, candidates)


def test_annihilates_is_the_containment_check():
    matrix = ExactMatrix.from_dense([[1, -1], [2, -2]])
    assert _annihilates(matrix, [])
    assert _annihilates(matrix, [{0: F(1), 1: F(1)}, {0: F(-3), 1: F(-3)}])
    assert not _annihilates(matrix, [{0: F(1), 1: F(1)}, {0: F(1)}])


@pytest.mark.parametrize("rows, vectors, expected", [
    # fractional entries whose products cancel
    ([[F(1, 2), F(1, 3)]], [{0: F(2, 3), 1: F(-1)}], True),
    ([[1, 1, -2], [F(1, 4), F(-1, 12), 0]], [{0: F(1, 2), 1: F(3, 2), 2: F(1)}], True),
    # a row denominator off the vectors' support does not enter the product
    ([[F(1, 7), F(1, 2), F(-1, 3)]], [{1: F(2, 3), 2: F(1)}, {}], True),
    # non-zero products of fractional entries, in a later vector or row
    ([[F(1, 2), F(1, 3)]], [{0: F(2, 3), 1: F(-1)}, {0: F(1, 2), 1: F(1, 3)}], False),
    ([[F(1, 3), 0], [0, 1]], [{0: F(1)}], False),
    ([[1, 0], [F(5, 6), F(-1, 2)]], [{1: F(1, 5)}], False),
])
def test_annihilates_clears_denominators_exactly(rows, vectors, expected):
    matrix = ExactMatrix.from_dense(rows)
    fraction_product = not any((matrix @ matrix_from_columns(vectors, matrix.cols)).row_dicts())
    assert fraction_product == expected
    assert _annihilates(matrix, vectors) == expected


def test_annihilates_rejects_vectors_longer_than_the_rows():
    with pytest.raises(ValueError, match="row index"):
        _annihilates(ExactMatrix.from_dense([[1, 1]]), [{2: F(1)}])


@st.composite
def contained_systems(draw):
    """A random C and B inside ker C: rational combinations of its kernel."""
    length = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=length, max_size=length),
                         max_size=6))
    cocycle = ExactMatrix(len(rows), length,
                          [{j: v for j, v in enumerate(row) if v} for row in rows])
    kernel = cocycle.nullspace()
    boundaries = []
    for _ in range(draw(st.integers(0, len(kernel) + 2))):
        weights = draw(st.lists(sparse_entries, min_size=len(kernel), max_size=len(kernel)))
        total: dict[int, Fraction] = {}
        for weight, vector in zip(weights, kernel):
            for i, v in vector.items():
                total[i] = total.get(i, F(0)) + weight * v
        boundaries.append({i: v for i, v in total.items() if v})
    return cocycle, boundaries, length


@given(contained_systems())
@settings(max_examples=150, deadline=None)
def test_complement_kernel_matches_the_full_nullspace_oracle(system):
    cocycle, boundaries, length = system
    boundary_rank, kernel = _complement_kernel(cocycle, boundaries, length)
    dimension, cocycles, coboundaries, _ = oracle_quotient(cocycle, boundaries, length)
    assert (len(kernel), boundary_rank + len(kernel), boundary_rank) == \
        (dimension, cocycles, coboundaries)
    for vector in kernel:
        for row in cocycle.row_dicts():
            assert sum(v * vector.get(j, 0) for j, v in row.items()) == 0
    assert matrix_from_columns(boundaries + kernel, length).rank() == \
        matrix_from_columns(boundaries, length).rank() + dimension


def test_complement_kernel_checks_containment_first():
    cocycle = ExactMatrix.from_dense([[1, -1]])
    with pytest.raises(RuntimeError, match="escapes the cocycle space"):
        _complement_kernel(cocycle, [{0: F(1)}], 2)
    assert _complement_kernel(cocycle, [{0: F(1, 2), 1: F(1, 2)}], 2) == (1, [])


def _h1_top_system(coefficient, bound):
    """The domain, cocycle matrix and coboundary vectors np_h1_top reduces."""
    chart = Chart(coefficient.variables)
    deg_f = max(coefficient.total_degree(), 0)
    domain = TruncatedBasis.build(chart, FORM, 1, bound)
    cocycle = TruncatedOperator.build(
        domain, lambda form: np_cocycle_check_top(coefficient, form)).matrix
    generators = TruncatedBasis.build(chart, FORM, 0, bound + 1 - deg_f)
    coboundaries = TruncatedOperator.build(
        generators, lambda g: ext_d(g).scale(coefficient)).coordinates_in(domain)[1:]
    return domain, cocycle, coboundaries


@pytest.mark.parametrize("bound", range(4, 9))
@pytest.mark.parametrize("coefficient", [
    R2SQ, x1 ** 3, x1 * x2 * x3, x1, x1 ** 2 * x2 + x3 ** 3, Polynomial.constant(R3.coordinates, 1),
], ids=["r2", "x1^3", "x1x2x3", "x1", "x1^2x2+x3^3", "1"])
def test_np_h1_top_matches_the_full_nullspace_oracle(coefficient, bound):
    report = np_h1_top(coefficient, bound)
    domain, cocycle, coboundaries = _h1_top_system(coefficient, bound)
    dimension, cocycles, boundary_rank, kernel = oracle_quotient(
        cocycle, coboundaries, len(domain))
    assert (report.dimension, report.cocycle_dimension, report.coboundary_dimension) == \
        (dimension, cocycles, boundary_rank)
    assert report.representatives == tuple(domain.from_coordinates(v) for v in kernel)


# -- duality -------------------------------------------------------------------------------

def test_duality_fails_for_singular_r3():
    report = duality_report(singular_r3(), STD3, 4)
    assert not report.holds
    assert report.verdict == "duality FAILS"
    row1 = report.rows[1]
    assert row1.np_dimension == 1
    assert row1.foliated_dimension == 0
    assert row1.canonical_dimension == 0

def test_duality_holds_regular_r3():
    report = duality_report(regular_r3(), STD3, 4)
    assert report.holds
    for row in report.rows:
        assert row.np_dimension is not None
        assert row.np_dimension == row.canonical_dimension == row.foliated_dimension

def test_duality_holds_regular_r4():
    report = duality_report(regular_r4(), STD4, 4)
    assert report.holds
    for row in report.rows:
        assert row.np_dimension == row.canonical_dimension == row.foliated_dimension

@pytest.mark.parametrize("structure, volume", [(singular_r3(), STD3), (regular_r4(), STD4)])
def test_duality_builds_each_operator_once(monkeypatch, structure, volume):
    # an operator is named by its domain and the images of the domain's basis
    build = TruncatedOperator.build.__func__
    seen = []

    def recording_build(cls, domain, mapping):
        images = tuple(mapping(domain.tensor_of(j)) for j in range(len(domain)))
        seen.append((domain, images))
        return build(cls, domain, mapping)

    monkeypatch.setattr(TruncatedOperator, "build", classmethod(recording_build))
    duality_report(structure, volume, 2)
    assert len(seen) == len(set(seen))
    degree_one = TruncatedBasis.build(structure.chart, FORM, 1, 2)
    sharp_images = tuple(sharp(structure, 1, degree_one.tensor_of(j))
                         for j in range(len(degree_one)))
    assert seen.count((degree_one, sharp_images)) == 1


# -- form-represented cochains and the chain map -----------------------------------------

def test_cochain_value_matches_pairing():
    structure = singular_r3()
    alpha = dx(R3, 1)
    args = [dx(R3, 1, 2)]
    value = form_cochain_value(structure, alpha, args)
    assert value == pair(alpha, sharp(structure, 2, args[0]))

def test_chain_map_identity_random():
    # coboundary of the cochain of a form equals the cochain of its derivative
    rng = random.Random(103)
    for structure in (singular_r3(), regular_r4()):
        n = structure.order
        chart = structure.chart
        for k in (1, 2):
            for _ in range(12):
                form = rand_form(rng, chart, k, max_degree=2)
                args = [rand_form(rng, chart, n - 1, max_degree=2) for _ in range(k + 1)]
                lhs = form_cochain_coboundary(structure, form, args)
                rhs = form_cochain_value(structure, ext_d(form), args)
                assert lhs == rhs
