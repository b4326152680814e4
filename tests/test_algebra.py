"""Exact polynomial, rational-function and linear-algebra behaviour."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nambu.algebra import (
    ExactMatrix,
    Polynomial,
    RationalFunction,
    matrix_from_columns,
    variables,
)
from support import assert_elimination_matches_sympy, oracle_horner, oracle_long_division

x1, x2, x3 = variables("x1 x2 x3")
VARS = ("x1", "x2", "x3")


# -- polynomial basics -------------------------------------------------------

def test_product_of_sum_and_difference():
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

def test_additive_identity():
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    assert r2 + Polynomial.zero(VARS) == r2

def test_square_evaluates_exactly():
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    assert (r2 * r2).evaluate((1, 1, 1)) == 9

def test_variable_list_mismatch_rejected():
    y = Polynomial.variable(("y1", "y2"), 0)
    with pytest.raises(ValueError):
        _ = x1 + y

def test_partial_derivatives():
    r2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    assert r2.diff(2) == 2 * x3
    assert x2.diff(0).is_zero()
    assert (x1 * x2 ** 2).diff(1) == 2 * x1 * x2

def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        x1.diff(3)

def test_no_zero_terms_stored():
    assert (x1 - x1).terms == {}
    assert ((x1 + 1) * (x1 - 1) - x1 ** 2 + 1).terms == {}

def test_is_one():
    assert not Polynomial.zero(VARS).is_one()
    assert Polynomial.constant(VARS, 1).is_one()
    assert not Polynomial.constant(VARS, 2).is_one()
    assert not x1.is_one()
    assert not (1 + x1).is_one()
    assert Polynomial.constant((), 1).is_one()
    assert not Polynomial.constant((), 2).is_one()

def test_str_round_trips_signs():
    p = 2 * x1 ** 2 - Fraction(1, 2) * x2 + 3
    assert str(p) == "2*x1**2 - 1/2*x2 + 3"


# -- hypothesis: ring axioms and the derivation rule -------------------------

exponents = st.tuples(*(st.integers(0, 2) for _ in range(3)))
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Polynomial(VARS, terms))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_derivative_leibniz_rule(a, b, i):
    assert (a * b).diff(i) == a * b.diff(i) + b * a.diff(i)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_float_eval_matches_exact(a, b):
    point = (Fraction(1, 2), Fraction(-2), Fraction(3, 4))
    exact = float((a * b).evaluate(point))
    approx = (a * b).evaluate_float(tuple(float(v) for v in point))
    assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)


# -- the compiled float evaluator against the per-call Horner recursion ------

def _polynomials(m: int, max_terms: int = 8):
    """Polynomials on m variables of degree <= 6, the zero one included."""
    exponents = st.lists(st.integers(0, m - 1), max_size=6).map(
        lambda slots: tuple(slots.count(i) for i in range(m)))
    wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 3)
    names = tuple(f"y{i}" for i in range(m))
    return st.dictionaries(exponents, wide, max_size=max_terms).map(
        lambda terms: Polynomial(names, terms))


def _points(m: int):
    return st.lists(st.floats(-1e200, 1e200), min_size=m, max_size=m)


float_cases = st.integers(1, 5).flatmap(lambda m: st.tuples(_polynomials(m), _points(m)))
rational_cases = st.integers(1, 5).flatmap(
    lambda m: st.tuples(_polynomials(m, 4), _polynomials(m, 4), _points(m)))


def _outcome(evaluate):
    try:
        return evaluate()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def _assert_same_float(expected, got):
    if isinstance(expected, float) and math.isnan(expected):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == expected


@given(float_cases)
@example((Polynomial.zero(("y0", "y1")), [2.5, -1.0]))
@example((Polynomial.constant(("y0",), Fraction(-7, 3)), [1e200]))
@example((Polynomial(("y0", "y1"), {(6, 0): 1, (0, 1): 2}), [1e60, 3.0]))
@settings(max_examples=300, deadline=None)
def test_compiled_float_evaluation_matches_horner_oracle_bitwise(case):
    poly, point = case
    expected = _outcome(lambda: oracle_horner(poly.sorted_terms(), point))
    _assert_same_float(expected, _outcome(lambda: poly.evaluate_float(point)))
    _assert_same_float(expected, _outcome(lambda: poly.compile_float()(point)))


@given(rational_cases)
@settings(max_examples=150, deadline=None)
def test_compiled_rational_evaluation_matches_horner_oracle_bitwise(case):
    numerator, denominator, point = case
    if denominator.is_zero():
        denominator = Polynomial.constant(numerator.variables, 3)
    ratio = RationalFunction(numerator, denominator)

    def oracle():
        den = oracle_horner(ratio.denominator.sorted_terms(), point)
        return oracle_horner(ratio.numerator.sorted_terms(), point) / den

    expected = _outcome(oracle)
    _assert_same_float(expected, _outcome(lambda: ratio.evaluate_float(point)))
    _assert_same_float(expected, _outcome(lambda: ratio.compile_float()(point)))


def test_float_evaluation_checks_the_point_length():
    ratio = RationalFunction(x1 + 1, x2 + 1)
    for value in (x1 * x2 + 3, Polynomial.zero(VARS), ratio):
        for point in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError, match="wrong number of coordinates"):
                value.evaluate_float(point)


# -- rational functions ------------------------------------------------------

def test_exact_division_reduces_to_polynomial():
    ratio = RationalFunction(x1 ** 2 - x2 ** 2, x1 - x2)
    assert ratio.denominator.is_one()
    assert ratio.numerator == x1 + x2

def test_division_is_a_polynomial_exactly_when_it_is_exact():
    quotient = (x1 ** 2 - x2 ** 2) / (x1 - x2)
    assert type(quotient) is Polynomial and quotient == x1 + x2
    assert type((3 * x1 * x2) / 3) is Polynomial
    ratio = (x1 + 1) / (x2 + 1)
    assert type(ratio) is RationalFunction and not ratio.denominator.is_one()
    assert ratio * (x2 + 1) == x1 + 1 and type(ratio * (x2 + 1)) is Polynomial
    assert type(ratio - ratio) is Polynomial and type(ratio / ratio) is Polynomial
    assert (x1 + 1) / ratio == x2 + 1 and type((x1 + 1) / ratio) is Polynomial
    assert type(RationalFunction(x1 ** 2, x2).diff(1)) is RationalFunction
    assert type(RationalFunction(x1 * x2, x2).diff(0)) is Polynomial
    for numerator in (x1, Polynomial.zero(VARS)):
        with pytest.raises(ZeroDivisionError):
            numerator / Polynomial.zero(VARS)
        with pytest.raises(ZeroDivisionError):
            ratio / numerator if numerator.is_zero() else numerator / 0

def test_number_divided_by_polynomial():
    ratio = 1 / (1 + x1 ** 2)
    assert type(ratio) is RationalFunction and ratio == RationalFunction(x1 ** 0, 1 + x1 ** 2)
    assert ratio * (1 + x1 ** 2) == 1
    half = Fraction(1, 2) / (x2 + 1)
    assert type(half) is RationalFunction and half * (2 * x2 + 2) == 1
    exact = 2 / Polynomial.constant(VARS, 2)
    assert type(exact) is Polynomial and exact == 1
    with pytest.raises(ZeroDivisionError):
        1 / Polynomial.zero(VARS)

def test_rational_hash_agrees_with_equality():
    unreduced = RationalFunction((x1 + 1) * (x1 + 2), (x1 + 1) * (x1 + 3))
    reduced = RationalFunction(x1 + 2, x1 + 3)
    assert unreduced == reduced and hash(unreduced) == hash(reduced)
    assert len({unreduced, reduced}) == 1
    poly = x1 * x2 + 3
    assert RationalFunction(poly) == poly and hash(RationalFunction(poly)) == hash(poly)
    assert len({poly, RationalFunction(poly)}) == 1

def test_constant_polynomial_hashes_as_its_number():
    for value in (3, Fraction(1, 2), 0):
        poly = Polynomial.constant(VARS, value)
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1

@given(st.dictionaries(exponents, coeffs, max_size=10).map(lambda terms: Polynomial(VARS, terms)),
       coeffs.filter(bool))
@example(x1 * x2 + x3 ** 2 - 3 * x1 + Fraction(1, 2), Fraction(-2, 3))
@settings(max_examples=200, deadline=None)
def test_constant_divisor_matches_long_division(numerator, constant):
    divisor = Polynomial.constant(VARS, constant)
    quotient = divisor.divides_exactly(numerator)
    expected = oracle_long_division(divisor, numerator)
    assert quotient == expected
    # the term order is the one long division finds, descending grlex
    assert list(quotient.terms) == list(expected.terms)

@pytest.mark.parametrize("numerator, denominator, reduced", [
    (x1 + 1, x2 + 1, (x1 + 1, x2 + 1)),
    (2 * x1 * x2 + 4 * x2, 6 * x2 * x2 + 2 * x2,
     (x1 * Fraction(1, 3) + Fraction(2, 3), x2 + Fraction(1, 3))),
    (x1, 3 * x1 * x1 + 1, (x1 * Fraction(1, 3), x1 * x1 + Fraction(1, 3))),
    (x1 * x1 - x2, 2 * x1 * x2, ((x1 * x1 - x2) * Fraction(1, 2), x1 * x2)),
])
def test_inexact_division_tests_exactness_once(monkeypatch, numerator, denominator, reduced):
    calls = []
    divides_exactly = Polynomial.divides_exactly

    def counting(self, other):
        calls.append(other)
        return divides_exactly(self, other)

    monkeypatch.setattr(Polynomial, "divides_exactly", counting)
    ratio = numerator / denominator
    assert len(calls) == 1
    assert (ratio.numerator, ratio.denominator) == reduced

def test_normalization_idempotent():
    ratio = RationalFunction(2 * x1 * x2, 4 * x2 * x3)
    again = RationalFunction(ratio.numerator, ratio.denominator)
    assert ratio.numerator == again.numerator
    assert ratio.denominator == again.denominator

def test_denominator_leading_coefficient_positive():
    ratio = RationalFunction(x1, -x2 + 1)
    lead = max(ratio.denominator.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))[1]
    assert lead > 0

def test_equality_by_cross_multiplication():
    a = RationalFunction(x1, x2)
    b = RationalFunction(x1 * x3, x2 * x3)
    assert a == b
    assert RationalFunction(x1, x2) != RationalFunction(x2, x1)

def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x1, Polynomial.zero(VARS))

def test_field_arithmetic():
    a = RationalFunction(x1, x2)
    b = RationalFunction(x2, x1)
    assert a * b == Polynomial.constant(VARS, 1)
    assert a + b == RationalFunction(x1 ** 2 + x2 ** 2, x1 * x2)
    assert (a / b) == RationalFunction(x1 ** 2, x2 ** 2)


@given(polys, polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_rational_normalization_idempotent_random(num, den):
    first = RationalFunction(num, den)
    second = RationalFunction(first.numerator, first.denominator)
    assert first == second
    assert first.numerator == second.numerator
    assert first.denominator == second.denominator


# -- exact matrices ----------------------------------------------------------

def _times(matrix, vector):
    """matrix * vector for a dense vector, as a sparse matrix product."""
    column = {j: v for j, v in enumerate(vector) if v != 0}
    product = matrix @ matrix_from_columns([column], matrix.cols)
    return [product.get(i, 0) for i in range(product.rows)]

def _kills(matrix, basis):
    return not any((matrix @ matrix_from_columns(basis, matrix.cols)).row_dicts())

def test_nullspace_of_identity_is_empty():
    assert ExactMatrix.from_dense([[1, 0], [0, 1]]).nullspace() == []

def test_nullspace_of_single_row():
    basis = ExactMatrix.from_dense([[1, 1]]).nullspace()
    assert basis == [{0: Fraction(-1), 1: Fraction(1)}]

def test_nullspace_dimension_rank_nullity():
    matrix = ExactMatrix.from_dense([[1, 2, 3], [2, 4, 6]])
    basis = matrix.nullspace()
    assert basis == [{1: Fraction(1), 0: Fraction(-2)}, {2: Fraction(1), 0: Fraction(-3)}]
    assert matrix.rank() + len(basis) == matrix.cols
    assert _kills(matrix, basis)

def test_solve_identity():
    outcome = ExactMatrix.from_dense([[1, 0], [0, 1]]).solve([3, 5])
    assert outcome.feasible
    assert outcome.solution == (Fraction(3), Fraction(5))

def test_solve_underdetermined_particular_solution():
    matrix = ExactMatrix.from_dense([[1, 1]])
    outcome = matrix.solve([2])
    assert outcome.feasible
    assert _times(matrix, outcome.solution) == [Fraction(2)]

def test_solve_infeasible_has_certificate():
    matrix = ExactMatrix.from_dense([[1], [1]])
    outcome = matrix.solve([1, 2])
    assert not outcome.feasible
    y = outcome.certificate
    assert y is not None
    # y annihilates the matrix but not the right-hand side
    assert all(sum(y[i] * matrix.get(i, j) for i in range(2)) == 0 for j in range(1))
    assert y[0] * 1 + y[1] * 2 != 0

def test_matmul_matches_dense():
    a = ExactMatrix.from_dense([[1, 2], [3, 4]])
    b = ExactMatrix.from_dense([[0, 1], [1, 0]])
    assert a @ b == ExactMatrix.from_dense([[2, 1], [4, 3]])

def test_column_keys_outside_the_matrix_are_rejected():
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, [{3: Fraction(1)}])
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, [{-1: Fraction(1)}])
    with pytest.raises(ValueError):
        ExactMatrix(1, 2, [{-1: Fraction(1)}]) @ ExactMatrix.from_dense([[1], [2]])

def test_matrix_from_columns():
    matrix = matrix_from_columns([{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(5)}], 2)
    assert matrix == ExactMatrix.from_dense([[1, 2], [0, 5]])
    for outside in (2, -1):
        with pytest.raises(ValueError):
            matrix_from_columns([{outside: Fraction(1)}], 2)


frac_rows = st.lists(st.lists(coeffs, min_size=3, max_size=3), min_size=1, max_size=4)


@given(frac_rows)
@settings(max_examples=40, deadline=None)
def test_nullspace_vectors_annihilated(rows):
    matrix = ExactMatrix.from_dense(rows)
    basis = matrix.nullspace()
    assert matrix.rank() + len(basis) == matrix.cols
    assert all(v != 0 for vec in basis for v in vec.values())
    assert _kills(matrix, basis)


@given(frac_rows, st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_either_solves_or_certifies(rows, seed_solution):
    matrix = ExactMatrix.from_dense(rows)
    rhs = _times(matrix, seed_solution[:matrix.cols])
    outcome = matrix.solve(rhs)
    assert outcome.feasible
    assert _times(matrix, outcome.solution) == rhs


# -- the elimination against a Gauss-Jordan oracle ---------------------------

def _gauss_jordan(matrix, rhs):
    """Reference: dense-scan Gauss-Jordan on Fractions with a full transform.

    Returns (pivot columns, kernel basis, solution, certificate) as the
    engine defines them: the kernel basis has a 1 in its free slot and 0 in
    the other free slots, the solution sets the free variables to zero, and
    the certificate is the transform row of the first leftover row whose
    entry of T*b is non-zero.
    """
    nrows, ncols = matrix.rows, matrix.cols
    work = [dict(row) for row in matrix.row_dicts()]
    transform = [{i: Fraction(1)} for i in range(nrows)]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        sel = next((r for r in range(k, nrows) if work[r].get(col)), None)
        if sel is None:
            continue
        work[k], work[sel] = work[sel], work[k]
        transform[k], transform[sel] = transform[sel], transform[k]
        inv = 1 / work[k][col]
        work[k] = {j: v * inv for j, v in work[k].items()}
        transform[k] = {j: v * inv for j, v in transform[k].items()}
        for r in range(nrows):
            factor = work[r].get(col) if r != k else None
            if not factor:
                continue
            for target, source in ((work[r], work[k]), (transform[r], transform[k])):
                for j, v in source.items():
                    s = target.get(j, 0) - factor * v
                    if s:
                        target[j] = s
                    else:
                        target.pop(j, None)
        pivots.append(col)
        if len(pivots) == nrows:
            break
    basis = {free: {free: Fraction(1)} for free in range(ncols) if free not in pivots}
    for row, pivot_col in zip(work, pivots):
        for free, coeff in row.items():
            if free != pivot_col:
                basis[free][pivot_col] = -coeff
    tb = [sum((c * rhs[j] for j, c in trow.items()), Fraction(0)) for trow in transform]
    for r in range(len(pivots), nrows):
        if tb[r]:
            certificate = tuple(transform[r].get(j, Fraction(0)) for j in range(nrows))
            return pivots, list(basis.values()), None, certificate
    solution = [Fraction(0)] * ncols
    for k, pivot_col in enumerate(pivots):
        solution[pivot_col] = tb[k]
    return pivots, list(basis.values()), tuple(solution), None


def _assert_matches_gauss_jordan(matrix, rhs):
    pivots, basis, solution, certificate = _gauss_jordan(matrix, rhs)
    assert matrix.pivot_columns() == pivots
    assert matrix.rank() == len(pivots)
    kernel = matrix.nullspace()
    assert kernel == basis
    assert [list(vec) for vec in kernel] == [list(vec) for vec in basis]
    outcome = matrix.solve(rhs)
    assert outcome.solution == solution
    assert outcome.certificate == certificate


@st.composite
def linear_systems(draw):
    """A matrix of any shape up to 6x6 with duplicated and zero rows, and b."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.one_of(st.just(Fraction(0)), coeffs),
                                  min_size=ncols, max_size=ncols), max_size=6))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))] \
        if rows else []
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    rhs = draw(st.lists(coeffs, min_size=len(rows), max_size=len(rows)))
    matrix = ExactMatrix(len(rows), ncols,
                         [{j: v for j, v in enumerate(row) if v} for row in rows])
    return matrix, rhs


@given(linear_systems())
@settings(max_examples=200, deadline=None)
@example((ExactMatrix(0, 0), []))
@example((ExactMatrix(0, 3), []))
@example((ExactMatrix(3, 0), [Fraction(0), Fraction(1), Fraction(0)]))
@example((ExactMatrix.from_dense([[1, 2], [0, 0], [2, 4]]),
          [Fraction(1), Fraction(3), Fraction(2)]))
@example((ExactMatrix.from_dense([[1, 2, 3, 4]]), [Fraction(5)]))
@example((ExactMatrix.from_dense([[1], [2], [3], [4]]), [Fraction(1), Fraction(2), Fraction(4),
                                                        Fraction(8)]))
def test_elimination_matches_gauss_jordan(system):
    matrix, rhs = system
    _assert_matches_gauss_jordan(matrix, rhs)


@pytest.mark.parametrize("seed", range(6))
def test_elimination_matches_gauss_jordan_sparse(seed):
    # about 60x40 at 8% density, so many rows are dependent or left over;
    # even seeds get a consistent b, odd seeds a random sparse one
    rng = random.Random(seed)
    nrows, ncols = rng.randint(55, 65), rng.randint(35, 45)
    rows = [{j: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
             for j in range(ncols) if rng.random() < 0.08} for _ in range(nrows)]
    matrix = ExactMatrix(nrows, ncols, [{j: v for j, v in row.items() if v} for row in rows])
    if seed % 2 == 0:
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = _times(matrix, x)
    else:
        rhs = [Fraction(rng.randint(-3, 3)) if rng.random() < 0.1 else Fraction(0)
               for _ in range(nrows)]
    _assert_matches_gauss_jordan(matrix, rhs)


# -- the elimination against sympy (test-only dependency) --------------------

@pytest.mark.parametrize("seed", range(12))
def test_elimination_matches_sympy_on_random_sparse(seed):
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(0, 40), rng.randint(0, 40)
    density = rng.choice((0.05, 0.15, 0.4))
    rows = [{j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
             for j in range(ncols) if rng.random() < density} for _ in range(nrows)]
    assert_elimination_matches_sympy(ExactMatrix(nrows, ncols, rows))
