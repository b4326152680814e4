"""Exterior calculus: conventions, adjunctions and derivative identities."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    apply_vector,
    contract_form,
    differential,
    ext_d,
    interior_form,
    lie_form,
    lie_mv,
    lie_mv_of,
    pair,
    wedge,
    wedge_all,
)
from support import (
    R3,
    R4,
    coords,
    oracle_apply_vector,
    oracle_lie_mv,
    oracle_pair,
    radius_squared,
    rand_form,
    rand_mv,
    rand_poly,
    rand_vector_field,
)

x1, x2, x3 = coords(R3)
R2SQ = radius_squared(R3)


def dx(chart, *indices):
    return GradedTensor.basis(chart, FORM, tuple(i - 1 for i in indices))


def ee(chart, *indices):
    return GradedTensor.basis(chart, MULTIVECTOR, tuple(i - 1 for i in indices))


# -- wedge -------------------------------------------------------------------

def test_wedge_basis_two_form():
    assert wedge(dx(R3, 1), dx(R3, 2)) == dx(R3, 1, 2)

def test_wedge_anticommutes():
    assert wedge(dx(R3, 2), dx(R3, 1)) == -dx(R3, 1, 2)

def test_wedge_with_coefficient():
    left = dx(R3, 1).scale(x1)
    assert wedge(left, dx(R3, 2, 3)) == dx(R3, 1, 2, 3).scale(x1)

def test_wedge_variance_mismatch():
    with pytest.raises(ValueError):
        wedge(dx(R3, 1), ee(R3, 2))

def test_wedge_chart_mismatch():
    with pytest.raises(ValueError):
        wedge(dx(R3, 1), dx(R4, 2))

def test_wedge_above_top_degree_is_zero():
    result = wedge(dx(R3, 1, 2), dx(R3, 2, 3))
    assert result.is_zero()

def test_wedge_graded_commutativity_random():
    rng = random.Random(7)
    for _ in range(30):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a = rand_form(rng, R4, ka)
        b = rand_form(rng, R4, kb)
        sign = -1 if (ka * kb) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


# -- pairing -----------------------------------------------------------------

def test_pair_matching_indices():
    assert pair(dx(R3, 1, 2), ee(R3, 1, 2)) == 1

def test_pair_disjoint_indices():
    assert pair(dx(R3, 1, 2), ee(R3, 1, 3)).is_zero()

def test_pair_transposition_sign():
    omega = dx(R3, 1, 2).scale(x3)
    field = -ee(R3, 1, 2)  # e2 ^ e1
    assert pair(omega, field) == -x3

def test_pair_degree_mismatch():
    with pytest.raises(ValueError):
        pair(dx(R3, 1), ee(R3, 1, 2))


# -- contractions ------------------------------------------------------------

def test_contract_form_golden_sign_convention():
    # Pins every sign in the module; a scheme failing this one is wrong.
    field = ee(R3, 1, 2, 3).scale(R2SQ)
    assert contract_form(dx(R3, 1, 2), field) == ee(R3, 3).scale(R2SQ)

def test_contract_form_full_degree():
    field = ee(R3, 1, 2, 3).scale(R2SQ)
    result = contract_form(dx(R3, 1, 2, 3), field)
    assert result.degree == 0
    assert result.scalar_value() == R2SQ

def test_contract_form_single():
    assert contract_form(dx(R3, 1), ee(R3, 1, 2, 3)) == ee(R3, 2, 3)

def test_interior_form_golden():
    vol = dx(R3, 1, 2, 3)
    assert interior_form(ee(R3, 1, 2), vol) == dx(R3, 3)
    assert interior_form(ee(R3, 1), vol) == dx(R3, 2, 3)
    assert interior_form(ee(R3, 1, 2).scale(x1), vol) == dx(R3, 3).scale(x1)

def test_contract_form_degree_error():
    with pytest.raises(ValueError):
        contract_form(dx(R3, 1, 2), ee(R3, 1))

def test_contraction_adjunction_exhaustive():
    # <gamma, i(beta)P> = <beta ^ gamma, P> over every basis triple, m <= 4.
    for names in ("x1 x2", "x1 x2 x3", "x1 x2 x3 x4"):
        chart = Chart.of(names)
        m = chart.dimension
        for p in range(m + 1):
            for k in range(p + 1):
                for big in itertools.combinations(range(m), p):
                    field = GradedTensor.basis(chart, MULTIVECTOR, big)
                    for small in itertools.combinations(range(m), k):
                        beta = GradedTensor.basis(chart, FORM, small)
                        lhs = contract_form(beta, field)
                        for rest in itertools.combinations(range(m), p - k):
                            gamma = GradedTensor.basis(chart, FORM, rest)
                            assert pair(gamma, lhs) == pair(wedge(beta, gamma), field)

def test_interior_adjunction_exhaustive():
    # <i(Q)omega, R> = <omega, Q ^ R> over every basis triple, m <= 4.
    for names in ("x1 x2 x3", "x1 x2 x3 x4"):
        chart = Chart.of(names)
        m = chart.dimension
        for p in range(m + 1):
            for k in range(p + 1):
                for big in itertools.combinations(range(m), p):
                    omega = GradedTensor.basis(chart, FORM, big)
                    for small in itertools.combinations(range(m), k):
                        q = GradedTensor.basis(chart, MULTIVECTOR, small)
                        lhs = interior_form(q, omega)
                        for rest in itertools.combinations(range(m), p - k):
                            r = GradedTensor.basis(chart, MULTIVECTOR, rest)
                            assert pair(lhs, r) == pair(omega, wedge(q, r))


# -- exterior derivative -----------------------------------------------------

def test_d_of_function_times_form():
    assert ext_d(dx(R3, 2).scale(x1)) == dx(R3, 1, 2)

def test_d_of_scalar():
    assert differential(R3, R2SQ) == (dx(R3, 1).scale(2 * x1)
                                      + dx(R3, 2).scale(2 * x2)
                                      + dx(R3, 3).scale(2 * x3))

def test_d_squared_zero_golden():
    assert ext_d(ext_d(dx(R3, 3).scale(x1 * x2))).is_zero()

def test_d_squared_zero_random():
    rng = random.Random(11)
    for _ in range(30):
        omega = rand_form(rng, R4, rng.randint(0, 3))
        assert ext_d(ext_d(omega)).is_zero()

def test_d_rejects_multivectors():
    with pytest.raises(ValueError):
        ext_d(ee(R3, 1))


# -- Lie derivatives ---------------------------------------------------------

def test_lie_form_constant_field():
    assert lie_form(ee(R3, 3), dx(R3, 1, 3)).is_zero()

def test_lie_form_derived_example():
    field = ee(R3, 3).scale(R2SQ)
    expected = dx(R3, 1, 2).scale(2 * x2) + dx(R3, 1, 3).scale(2 * x3)
    assert lie_form(field, dx(R3, 1, 3)) == expected

def test_lie_form_of_coordinate_differential():
    assert lie_form(ee(R3, 1).scale(x1), dx(R3, 1)) == dx(R3, 1)

def test_lie_form_product_rule():
    rng = random.Random(13)
    for _ in range(25):
        x = rand_vector_field(rng, R4)
        a = rand_form(rng, R4, rng.randint(0, 2))
        b = rand_form(rng, R4, rng.randint(0, 2))
        lhs = lie_form(x, wedge(a, b))
        rhs = wedge(lie_form(x, a), b) + wedge(a, lie_form(x, b))
        assert lhs == rhs

def test_lie_mv_translation():
    assert lie_mv(ee(R3, 1), ee(R3, 2, 3).scale(x1)) == ee(R3, 2, 3)

def test_lie_mv_independent_coordinates():
    assert lie_mv(ee(R3, 1).scale(x1), ee(R3, 2)).is_zero()

def test_lie_mv_matches_commutator_on_vector_fields():
    rng = random.Random(17)
    for _ in range(25):
        x = rand_vector_field(rng, R4)
        y = rand_vector_field(rng, R4)
        direct = lie_mv(x, y)
        chart = R4
        comps = {}
        for j in range(chart.dimension):
            yj = y.component((j,))
            xj = x.component((j,))
            value = apply_vector(x, yj) - apply_vector(y, xj)
            if not value.is_zero():
                comps[(j,)] = value
        assert direct == GradedTensor(chart, MULTIVECTOR, 1, comps)

def test_lie_mv_requires_vector_field():
    with pytest.raises(ValueError):
        lie_mv(ee(R3, 1, 2), ee(R3, 3))

def test_lie_form_requires_vector_field():
    with pytest.raises(ValueError):
        lie_form(ee(R3, 1, 2), dx(R3, 3))


# -- derived operators against their coordinate formulas -----------------------

@pytest.mark.parametrize("chart", [R3, R4], ids=["R3", "R4"])
def test_derived_operators_match_coordinate_oracles(chart):
    rng = random.Random(29)
    for degree in range(chart.dimension + 1):
        for _ in range(4):
            x = rand_vector_field(rng, chart)
            p = rand_mv(rng, chart, degree)
            alpha = rand_form(rng, chart, degree)
            f = rand_poly(rng, chart)
            assert lie_mv(x, p) == oracle_lie_mv(x, p)
            assert pair(alpha, p) == oracle_pair(alpha, p)
            assert apply_vector(x, f) == oracle_apply_vector(x, f)

@settings(max_examples=40, deadline=None)
@given(st.sampled_from([R3, R4]), st.integers(0, 4), st.integers(1, 6),
       st.randoms(use_true_random=False))
def test_held_lie_derivative_matches_the_oracle_on_many_fields(chart, degree, count, rng):
    """One held L_. P applied to several fields in turn, then to the first
    again: state changed by one application would show in a later one."""
    p = rand_mv(rng, chart, min(degree, chart.dimension))
    along = lie_mv_of(p)
    fields = [rand_vector_field(rng, chart) for _ in range(count)]
    results = [along(x) for x in fields]
    assert results == [oracle_lie_mv(x, p) for x in fields]
    assert along(fields[0]) == results[0]
    assert lie_mv(fields[-1], p) == results[-1]

def test_held_lie_derivative_keeps_the_errors_of_lie_mv():
    along = lie_mv_of(ee(R3, 1, 2).scale(x1))
    with pytest.raises(ValueError, match="lie_mv expects a degree-1 multivector as first"):
        along(ee(R3, 1, 2))
    with pytest.raises(ValueError, match="lie_mv expects a degree-1 multivector as first"):
        along(dx(R3, 1))
    with pytest.raises(ValueError, match="tensors live on different charts"):
        along(ee(R4, 1))
    with pytest.raises(ValueError, match="lie_mv expects a multivector as second"):
        lie_mv_of(dx(R3, 1, 2))
    with pytest.raises(ValueError, match="lie_mv expects a degree-1 multivector as first"):
        lie_mv(ee(R3, 1, 2), ee(R3, 3))
    with pytest.raises(ValueError, match="tensors live on different charts"):
        lie_mv(ee(R4, 1), ee(R3, 3))

@pytest.mark.parametrize("chart", [R3, R4], ids=["R3", "R4"])
def test_derived_operators_on_zero_tensors(chart):
    rng = random.Random(31)
    no_field = GradedTensor.zero(chart, MULTIVECTOR, 1)
    for degree in range(chart.dimension + 1):
        zero_mv = GradedTensor.zero(chart, MULTIVECTOR, degree)
        x = rand_vector_field(rng, chart)
        p = rand_mv(rng, chart, degree)
        for field, tensor in ((x, zero_mv), (no_field, p), (no_field, zero_mv)):
            result = lie_mv(field, tensor)
            assert result.is_zero() and result.degree == degree
            assert oracle_lie_mv(field, tensor).is_zero()
        assert pair(GradedTensor.zero(chart, FORM, degree), p).is_zero()
        assert pair(rand_form(rng, chart, degree), zero_mv).is_zero()
    assert apply_vector(no_field, rand_poly(rng, chart)).is_zero()
    assert apply_vector(rand_vector_field(rng, chart), 0).is_zero()

@pytest.mark.parametrize("chart", [R3, R4], ids=["R3", "R4"])
def test_apply_vector_on_rational_scalar_matches_oracle(chart):
    rng = random.Random(37)
    x1 = chart.coordinate_polynomial(0)
    scalar = chart.scalar(1) / (1 + x1 * x1)
    for _ in range(10):
        x = rand_vector_field(rng, chart)
        assert apply_vector(x, scalar) == oracle_apply_vector(x, scalar)


# -- misc --------------------------------------------------------------------

def test_zero_tensor_any_degree():
    zero = GradedTensor.zero(R3, FORM, 2)
    assert zero.is_zero()
    assert (dx(R3, 1, 2) - dx(R3, 1, 2)).is_zero()

def test_component_antisymmetry_lookup():
    omega = dx(R3, 1, 2).scale(x3)
    assert omega.component((1, 0)) == -x3
    assert omega.component((0, 0)).is_zero()

def test_wedge_all():
    assert wedge_all([dx(R3, 1), dx(R3, 2), dx(R3, 3)]) == dx(R3, 1, 2, 3)

def test_apply_vector_directional_derivative():
    field = ee(R3, 1).scale(x2)
    assert apply_vector(field, x1 * x1) == 2 * x1 * x2
