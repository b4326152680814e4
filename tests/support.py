"""Shared builders and random generators for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from nambu.algebra import (
    ExactMatrix,
    InvariantError,
    Polynomial,
    RationalFunction,
    SparseVector,
    clear_denominators,
    grlex_key,
)
from nambu.exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    Scalar,
    apply_vector,
    contract_form,
    ext_d,
    pair,
    sort_index,
    wedge_all,
)
from nambu.cohomology import reduce_annihilators
from nambu.flows import DivergentFlowError
from nambu.model import ModelError, Token
from nambu.modular import VolumeSpec, delta, modular_tensor
from nambu.structures import NambuStructure, leibniz_bracket, sharp
from nambu.truncation import (
    TruncatedBasis,
    TruncatedOperator,
    ker_sharp_basis,
    monomials_up_to,
)

R3 = Chart.of("x1 x2 x3")
R4 = Chart.of("x1 x2 x3 x4")
R5 = Chart.of("x1 x2 x3 x4 x5")


def coords(chart: Chart) -> tuple[Polynomial, ...]:
    return tuple(chart.coordinate_polynomial(i) for i in range(chart.dimension))


def radius_squared(chart: Chart) -> Polynomial:
    total = chart.zero_polynomial()
    for x in coords(chart):
        total = total + x * x
    return total


def singular_r3() -> NambuStructure:
    """The bundled singular example: (x1^2+x2^2+x3^2) e1^e2^e3 on R^3."""
    return NambuStructure(GradedTensor(R3, MULTIVECTOR, 3, {(0, 1, 2): radius_squared(R3)}))


def regular_r3() -> NambuStructure:
    return NambuStructure(GradedTensor.basis(R3, MULTIVECTOR, (0, 1, 2)))


def regular_r4() -> NambuStructure:
    """e1^e2^e3 on R^4: order 3 normal form with a transverse direction."""
    return NambuStructure(GradedTensor.basis(R4, MULTIVECTOR, (0, 1, 2)))


def nondecomposable_r5() -> NambuStructure:
    tensor = GradedTensor(R5, MULTIVECTOR, 3, {(0, 1, 2): 1, (0, 3, 4): 1})
    return NambuStructure(tensor)


def dense(rows) -> ExactMatrix:
    """The exact matrix with the given dense rows of ints or Fractions."""
    return ExactMatrix(len(rows), len(rows[0]) if rows else 0,
                       [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows])


def basis_tensor(domain: TruncatedBasis, position: int) -> GradedTensor:
    """The tensor of one truncated basis element: a monomial on one index."""
    idx, mono = domain.elements[position]
    coeff = Polynomial.monomial(domain.chart.coordinates, mono)
    return GradedTensor(domain.chart, domain.variance, domain.degree, {idx: coeff})


def matrix_from_columns(columns, nrows: int) -> ExactMatrix:
    """The matrix whose j-th column is the j-th sparse vector given."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
    width = 0
    for column in columns:
        for i, value in column.items():
            if not 0 <= i < nrows:
                raise ValueError(f"row index {i} outside 0..{nrows - 1}")
            rows[i][width] = value
        width += 1
    return ExactMatrix(nrows, width, rows)


def matmul(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """The product by Fraction arithmetic, the oracle of the sparse products."""
    if left.cols != right.rows:
        raise ValueError("inner dimensions disagree")
    others = right.row_dicts()
    rows = []
    for row in left.row_dicts():
        acc: dict[int, Fraction] = {}
        for k, a in row.items():
            for j, b in others[k].items():
                s = acc.get(j, Fraction(0)) + a * b
                if s == 0:
                    acc.pop(j, None)
                else:
                    acc[j] = s
        rows.append(acc)
    return ExactMatrix(left.rows, right.cols, rows)


def oracle_apply(matrix: ExactMatrix, vectors: list[SparseVector]) -> list[SparseVector]:
    """The image of each vector, read off the columns of the Fraction product."""
    product = matmul(matrix, matrix_from_columns(vectors, matrix.cols))
    images: list[SparseVector] = [{} for _ in vectors]
    for i, row in enumerate(product.row_dicts()):
        for j, value in row.items():
            images[j][i] = value
    return images


def evaluate(poly: Polynomial, point) -> Fraction:
    """Exact value at a rational point, the oracle of the float evaluator."""
    total = Fraction(0)
    for exponent, coeff in poly.terms.items():
        term = coeff
        for e, v in zip(exponent, point):
            term *= Fraction(v) ** e
        total += term
    return total


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))


def rand_poly(rng: random.Random, chart: Chart, max_degree: int = 3,
              max_terms: int = 3, allow_zero: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exponent = [0] * chart.dimension
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(chart.dimension)] += 1
        terms[tuple(exponent)] = rand_fraction(rng)
    poly = Polynomial(chart.coordinates, terms)
    if not allow_zero and poly.is_zero():
        return Polynomial.constant(chart.coordinates, 1)
    return poly


def rand_tensor(rng: random.Random, chart: Chart, variance: str, degree: int,
                max_degree: int = 3, sparsity: float = 0.7) -> GradedTensor:
    components = {}
    for index in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < sparsity:
            components[index] = rand_poly(rng, chart, max_degree)
    return GradedTensor(chart, variance, degree, components)


def rand_form(rng: random.Random, chart: Chart, degree: int,
              max_degree: int = 3) -> GradedTensor:
    return rand_tensor(rng, chart, FORM, degree, max_degree)


def rand_mv(rng: random.Random, chart: Chart, degree: int,
            max_degree: int = 3) -> GradedTensor:
    return rand_tensor(rng, chart, MULTIVECTOR, degree, max_degree)


def rand_vector_field(rng: random.Random, chart: Chart,
                      max_degree: int = 3) -> GradedTensor:
    return rand_mv(rng, chart, 1, max_degree)


# -- coordinate formulas of the derived exterior operators, as test oracles -------

def oracle_pair(form: GradedTensor, field: GradedTensor):
    """<form, field> = sum_I form_I field^I over sorted multi-indices."""
    total = form.chart.scalar(0)
    for index, value in form.components.items():
        mate = field.components.get(index)
        if mate is not None:
            total = total + value * mate
    return total


def oracle_apply_vector(field: GradedTensor, scalar):
    """X(f) = sum_j X^j d_j f."""
    value = field.chart.scalar(scalar)
    total = field.chart.scalar(0)
    for (j,), comp in field.components.items():
        total = total + comp * value.diff(j)
    return total


def oracle_lie_mv(field: GradedTensor, tensor: GradedTensor) -> GradedTensor:
    """(L_X P)^I = X^j d_j P^I - sum_a (d_j X^{i_a}) P^{I|a->j}.

    The slot-replacement term is spread from each stored component of P
    outward: P^J with entry j at a slot feeds the result index sort(J|slot->t)
    through d_j X^t.
    """
    chart = tensor.chart
    transported = {index: oracle_apply_vector(field, value)
                   for index, value in tensor.components.items()}
    correction: dict = {}
    for p_index, p_value in tensor.components.items():
        for slot, j in enumerate(p_index):
            for target in range(chart.dimension):
                replaced = list(p_index)
                replaced[slot] = target
                sorted_ = sort_index(replaced)
                comp = field.components.get((target,))
                if sorted_ is None or comp is None:
                    continue
                sign, key = sorted_
                term = p_value * comp.diff(j)
                correction[key] = correction.get(key, chart.scalar(0)) + sign * term
    return (GradedTensor(chart, MULTIVECTOR, tensor.degree, transported)
            - GradedTensor(chart, MULTIVECTOR, tensor.degree, correction))


# -- term-by-term long division, as the oracle of the constant-divisor path -------

def oracle_long_division(divisor: Polynomial, numerator: Polynomial) -> Polynomial | None:
    """numerator / divisor by repeatedly cancelling the grlex-leading term."""
    def leading(poly):
        return max(poly.terms.items(), key=lambda item: grlex_key(item[0]))

    lead_e, lead_c = leading(divisor)
    quotient = {}
    rest = numerator
    while not rest.is_zero():
        top_e, top_c = leading(rest)
        shift = tuple(a - b for a, b in zip(top_e, lead_e))
        if any(d < 0 for d in shift):
            return None
        quotient[shift] = Fraction(top_c) / lead_c
        rest = rest - Polynomial.monomial(divisor.variables, shift, quotient[shift]) * divisor
    return Polynomial(divisor.variables, quotient)


# -- Fraction-only term dicts, as the oracle of the int-or-Fraction coefficients ---

def fraction_terms(poly: Polynomial) -> dict:
    """The terms with every coefficient as a ``Fraction``."""
    return {e: Fraction(c) for e, c in poly.terms.items()}


def oracle_sum(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b on Fraction term dicts, without zero terms."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def oracle_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def oracle_derivative(a: dict, index: int) -> dict:
    return {e[:index] + (e[index] - 1,) + e[index + 1:]: c * e[index]
            for e, c in a.items() if e[index]}


# -- per-call Horner recursion, as the oracle of the compiled float evaluator ------

def oracle_horner(terms, values, axis=0) -> float:
    """Evaluate grlex-sorted terms by nested Horner steps along one axis.

    The per-call recursion that ``compile_float`` must match bit for bit: it
    regroups the terms on every call and also multiplies by ``x ** 0`` and
    takes ``x ** 1``, which the compiled plan skips as exact.
    """
    if not terms:
        return 0.0
    if axis == len(values):
        return float(sum(c for _, c in terms))
    groups: dict = {}
    for exponent, coeff in terms:
        groups.setdefault(exponent[axis], []).append((exponent, coeff))
    x = values[axis]
    powers = sorted(groups, reverse=True)
    acc = oracle_horner(groups[powers[0]], values, axis + 1)
    prev = powers[0]
    for power in powers[1:]:
        acc = acc * x ** (prev - power) + oracle_horner(groups[power], values, axis + 1)
        prev = power
    return acc * x ** prev


def oracle_rk4(field, start, h, steps) -> list[tuple[float, ...]]:
    """The classical fourth-order loop that the generated step replaced, as
    it was: four right-hand sides and four list comprehensions per step,
    with each component of ``field`` evaluated by ``oracle_horner``."""
    def rhs(point):
        return [oracle_horner(c.sorted_terms(), point) for c in field]

    point = [float(v) for v in start]
    trajectory = [tuple(point)]
    try:
        for _ in range(steps):
            k1 = rhs(point)
            k2 = rhs([p + 0.5 * h * v for p, v in zip(point, k1)])
            k3 = rhs([p + 0.5 * h * v for p, v in zip(point, k2)])
            k4 = rhs([p + h * v for p, v in zip(point, k3)])
            point = [p + h / 6.0 * (a + 2 * b + 2 * c + d)
                     for p, a, b, c, d in zip(point, k1, k2, k3, k4)]
            if not all(math.isfinite(v) for v in point):
                raise DivergentFlowError("non-finite values encountered during integration")
            trajectory.append(tuple(point))
    except OverflowError as exc:
        raise DivergentFlowError("field values overflow during integration") from exc
    return trajectory


# -- the elimination without its fast paths, as the oracle of _echelon -------------

def oracle_echelon(self: ExactMatrix):
    """``ExactMatrix._echelon`` as it was before its three fast paths, line for
    line: every row is cleared by ``clear_denominators`` and loses its
    content, and every update is ``(p/g)*row - (f/g)*pivot`` with content
    removal, whatever the pivot row holds.  ``_echelon`` must give the same
    pivots and order, and each row a non-zero multiple of this one's."""
    nrows, ncols = self.rows, self.cols
    rows: list[dict[int, int]] = []
    for row in self._rows:
        ints = clear_denominators(row)
        if ints is row:
            ints = dict(row)
        _remove_content(ints)
        rows.append(ints)
    index: list[set[int]] = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for j in row:
            index[j].add(r)
    order = list(range(nrows))
    position = list(range(nrows))
    pivots: list[int] = []
    for col in range(ncols):
        holders = index[col]
        if not holders:
            continue
        sel = min(holders, key=position.__getitem__)
        k = len(pivots)
        here, there = order[k], position[sel]
        order[k], order[there] = sel, here
        position[here], position[sel] = there, k
        pivot = rows[sel]
        for j in pivot:
            index[j].discard(sel)
        p = pivot[col]
        for r in holders:
            row = rows[r]
            f = row[col]
            g = math.gcd(p, f)
            a, c = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, v in pivot.items():
                s = row.get(j)
                if s is None:
                    row[j] = -c * v
                    index[j].add(r)
                else:
                    s -= c * v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                        if j != col:
                            index[j].discard(r)
            _remove_content(row)
        index[col] = set()
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return pivots, order, rows


def _remove_content(row: dict[int, int]) -> None:
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _sympy_matrix(matrix):
    """The same matrix as a sparse sympy DomainMatrix over QQ."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix({i: {j: QQ(v.numerator, v.denominator) for j, v in row.items()}
                         for i, row in enumerate(matrix.row_dicts()) if row},
                        (matrix.rows, matrix.cols), QQ)


def assert_elimination_matches_sympy(matrix):
    """Rank, pivot columns and kernel basis agree with sympy's own elimination."""
    reference = _sympy_matrix(matrix)
    _, pivots = reference.rref()
    kernel = matrix.nullspace()
    assert matrix.rank() == reference.rank() == len(pivots)
    assert matrix.pivot_columns() == list(pivots)
    assert len(kernel) == matrix.cols - reference.rank()
    basis = reference.nullspace().to_sdm() if kernel else {}
    expected = [{j: Fraction(int(v.numerator), int(v.denominator)) for j, v in basis[k].items()}
                for k in range(len(basis))]
    assert kernel == expected


def assert_solve_matches_sympy(matrix, rhs):
    """``solve`` agrees with ranks taken by sympy over QQ, and its answer
    holds there: a solution satisfies ``A x = b`` and is zero off sympy's
    pivot columns, a certificate satisfies ``y A = 0`` and ``y b != 0``."""
    reference = _sympy_matrix(matrix)
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    column = DomainMatrix([[QQ(v.numerator, v.denominator)] for v in rhs],
                          (matrix.rows, 1), QQ)
    feasible = reference.hstack(column).rank() == reference.rank()
    solution, certificate = matrix.solve(rhs)
    assert (solution is not None) == feasible == (certificate is None)
    if feasible:
        x = DomainMatrix([[QQ(v.numerator, v.denominator)] for v in solution],
                         (matrix.cols, 1), QQ)
        assert reference * x == column
        _, pivots = reference.rref()
        assert all(v == 0 for j, v in enumerate(solution) if j not in pivots)
    else:
        y = DomainMatrix([[QQ(v.numerator, v.denominator) for v in certificate]],
                         (1, matrix.rows), QQ)
        assert (y * reference).is_zero_matrix
        assert not (y * column).is_zero_matrix


# -- the quotient by the full cocycle nullspace, as the oracle of the complement ---

def _span_rank_extension(base, candidates, length):
    """Rank of the base span and the indices of candidates that extend it greedily.

    One elimination of [base | candidates] answers both: a column is a pivot
    exactly when it is independent of every column before it.
    """
    pivots = matrix_from_columns(base + candidates, length).pivot_columns()
    base_rank = bisect_left(pivots, len(base))
    return base_rank, [pos - len(base) for pos in pivots[base_rank:]]


def oracle_quotient(cocycle, boundaries, length):
    """ker C modulo span B by the full nullspace of C, then [B | cocycles].

    Returns (dimension, cocycle dimension, coboundary dimension,
    representatives): the cocycles that extend span B greedily.
    """
    cocycles = cocycle.nullspace()
    boundary_rank, chosen = _span_rank_extension(boundaries, cocycles, length)
    return (len(cocycles) - boundary_rank, len(cocycles), boundary_rank,
            [cocycles[pos] for pos in chosen])


def oracle_complement_kernel(cycles, boundaries):
    """``_complement_kernel`` by renumbering: C restricted to the columns W
    off the boundaries' pivot columns P, renumbered 0..|W|-1, and its kernel
    padded back with zeros on P."""
    if not boundaries:
        return 0, cycles.nullspace()
    length = cycles.cols
    spanned = set(ExactMatrix._of_rows(length, boundaries).pivot_columns())
    kept = [j for j in range(length) if j not in spanned]
    position = {j: k for k, j in enumerate(kept)}
    restricted = ExactMatrix._of_rows(len(kept), [
        {position[j]: v for j, v in row.items() if j in position}
        for row in cycles.row_dicts()])
    return len(spanned), [{kept[k]: v for k, v in vector.items()}
                          for vector in restricted.nullspace()]


# -- nullity minus rank, as the oracle of the foliated and canonical quotients -----

def _rank_of_vectors(vectors, length):
    return matrix_from_columns(vectors, length).rank() if vectors else 0


def oracle_foliated_dimension(structure, degree, bound):
    """dim ker(sharp o d) minus the rank of the d-images and the sharp kernel."""
    chart = structure.chart
    domain = TruncatedBasis.build(chart, FORM, degree, bound)
    if degree < structure.order:
        cocycle_op = TruncatedOperator.build(
            domain, lambda form: sharp(structure, degree + 1, ext_d(form)))
        cocycle_dimension = len(domain) - cocycle_op.matrix.rank()
    else:
        cocycle_dimension = len(domain)
    boundary_vectors = []
    if degree >= 1:
        previous = TruncatedBasis.build(chart, FORM, degree - 1, bound + 1)
        boundary_vectors = TruncatedOperator.build(previous, ext_d).coordinates_in(domain)
    boundary_vectors.extend(domain.to_coordinates(form)
                            for form in ker_sharp_basis(structure, degree, bound))
    return cocycle_dimension - _rank_of_vectors(boundary_vectors, len(domain))


def _tangent_chain_vectors(structure, degree, bound, annihilators):
    """The domain basis, a basis of its tangent chains and their constraints."""
    domain = TruncatedBasis.build(structure.chart, MULTIVECTOR, degree, bound)
    if not annihilators or degree == 0:
        return domain, [{j: Fraction(1)} for j in range(len(domain))], None
    rows = []
    for annihilator in annihilators:
        rows.extend(TruncatedOperator.build(
            domain, lambda field, a=annihilator: contract_form(a, field)).matrix.row_dicts())
    constraints = ExactMatrix(len(rows), len(domain), rows)
    return domain, constraints.nullspace(), constraints


def oracle_canonical_dimension(structure, volume, degree, bound):
    """The nullity of the boundary on the tangent chains minus the rank of
    the incoming images, each taken by its own elimination."""
    n = structure.order
    annihilators = reduce_annihilators(ker_sharp_basis(structure, 1, bound))
    domain, chains, constraints = _tangent_chain_vectors(structure, degree, bound,
                                                         annihilators)
    kernel_dim = len(chains)
    if degree >= 1:
        boundary = TruncatedOperator.build(domain, lambda field: delta(volume, field))
        kernel_dim -= matmul(boundary.matrix, matrix_from_columns(chains, len(domain))).rank()
    incoming_rank = 0
    if degree < n:
        above_annihilators = reduce_annihilators(ker_sharp_basis(structure, 1, bound + 1))
        above, above_chains, _ = _tangent_chain_vectors(structure, degree + 1, bound + 1,
                                                        above_annihilators)
        boundary_above = TruncatedOperator.build(above, lambda field: delta(volume, field))
        incoming = [{domain.position(boundary_above.labels[r]): v for r, v in image.items()}
                    for image in oracle_apply(boundary_above.matrix, above_chains)]
        assert constraints is None or not any(oracle_apply(constraints, incoming))
        incoming_rank = _rank_of_vectors(incoming, len(domain))
    return kernel_dim - incoming_rank


def sign_flipped_d(form):
    """d after negating every component whose index holds 0: still of first
    order, but no longer of square zero, so it breaks the complex."""
    flipped = {index: -value if 0 in index else value
               for index, value in form.components.items()}
    return ext_d(GradedTensor(form.chart, form.variance, form.degree, flipped))


def echelon_with_a_bad_certificate(corrupt_b: bool = False):
    """``ExactMatrix._echelon`` that leads ``solve`` to a certificate that
    fails its check.

    It acts when the last column, b's in ``solve``, is a pivot.  With
    ``corrupt_b`` b's pivot row trades places in ``order`` with a leftover
    row that holds no b, so ``solve`` returns that row's certificate, which
    is sound on A but does not separate b.  By default b's pivot row, if it
    has no entries of A, trades places with a leftover row that has some, so
    that ``solve`` solves the transposed system for the certificate's
    weights; that next elimination comes back with its first weight raised
    by one, so the certificate no longer annihilates the matrix.
    """
    echelon = ExactMatrix._echelon
    armed = False

    def corrupted(self):
        nonlocal armed
        pivots, order, rows = echelon(self)
        b = self.cols - 1
        if armed:
            armed = False
            first = rows[order[0]]
            first[b] = first.get(b, 0) + first[pivots[0]]
        elif pivots and pivots[-1] == b:
            k = len(pivots) - 1
            if corrupt_b:
                other = next(pos for pos in range(k + 1, len(order))
                             if b not in rows[order[pos]])
                order[k], order[other] = order[other], order[k]
            else:
                def in_a(pos):
                    return any(j != b for j in self.row_dicts()[order[pos]])
                if not in_a(k):
                    other = next(pos for pos in range(k + 1, len(order)) if in_a(pos))
                    order[k], order[other] = order[other], order[k]
                armed = True
        return pivots, order, rows
    return corrupted


# -- a labelled system solved column by column, as the oracle of the certified solves

def solve_labelled(columns, target):
    """Solve target = sum c_j columns_j exactly, one equation per label.

    Rows are numbered in first-seen order: the target's labels, then each
    column's in turn; certificates list their labels in that order.
    Returns (coefficients, None) when solvable, else (None, certificate)
    with a labelled left-kernel functional separating the target from the span.
    """
    rows = {label: {} for label in target}
    width = 0
    for column in columns:
        for label, coeff in column.items():
            rows.setdefault(label, {})[width] = coeff
        width += 1
    rhs = [target.get(label, Fraction(0)) for label in rows]
    solution, certificate = ExactMatrix(len(rows), width, list(rows.values())).solve(rhs)
    if certificate is None:
        return solution, None
    return None, tuple((label, weight) for label, weight
                       in zip(rows, certificate) if weight != 0)


# -- the decomposition lemmas as one labelled system, as oracles of the r^2 split --

def _equation_labels(polys):
    return {((eq_index,), exponent): coeff for eq_index, poly in enumerate(polys)
            for exponent, coeff in poly.terms.items()}


def oracle_radial_relations(polys):
    """r^2 (d_j P_i - d_i P_j) - 2 (P_i x_j - P_j x_i) for each i < j, in order,
    expanded term by term."""
    names = polys[0].variables
    xs = [Polynomial.variable(names, i) for i in range(len(names))]
    radius = sum((x * x for x in xs), Polynomial.zero(names))
    return [radius * (polys[i].diff(j) - polys[j].diff(i))
            - 2 * (polys[i] * xs[j] - polys[j] * xs[i])
            for i, j in itertools.combinations(range(len(polys)), 2)]


def oracle_radial_split(polys, rotation):
    """P_i = a x_i (+ b (x2, -x1)) + r^2 T_i with curl-free T, as one labelled
    system: the unknowns are a, then b, then each T_i's coefficients; the
    equations are the components, then the curls for i < j."""
    names = polys[0].variables
    m = len(names)
    xs = [Polynomial.variable(names, i) for i in range(m)]
    radius = sum((x * x for x in xs), Polynomial.zero(names))
    pairs = list(itertools.combinations(range(m), 2))
    tilde_bound = max(poly.total_degree() for poly in polys) - 2
    monomials = monomials_up_to(m, tilde_bound) if tilde_bound >= 0 else []
    scalar_count = 2 if rotation else 1
    block = len(monomials)
    unknowns = scalar_count + m * block

    def unknown_split(values):
        tildes = [Polynomial(names, dict(zip(monomials, values[scalar_count + i * block:])))
                  for i in range(m)]
        return list(values[:scalar_count]), tildes

    def equation_vector(scalars, tildes):
        linear = [scalars[0] * x for x in xs]
        if rotation:
            linear[0] = linear[0] + scalars[1] * xs[1]
            linear[1] = linear[1] - scalars[1] * xs[0]
        return [linear[i] + radius * tildes[i] for i in range(m)] + \
            [tildes[i].diff(j) - tildes[j].diff(i) for i, j in pairs]

    # each unknown's column is the image of its unit vector
    columns = []
    for pos in range(unknowns):
        probe = [Fraction(0)] * unknowns
        probe[pos] = Fraction(1)
        columns.append(_equation_labels(equation_vector(*unknown_split(probe))))
    targets = polys + [Polynomial.zero(names)] * len(pairs)
    solution, _ = solve_labelled(columns, _equation_labels(targets))
    if solution is None:
        raise InvariantError("decomposition solve failed although the relations hold")
    scalars, tildes = unknown_split(solution)
    if equation_vector(scalars, tildes) != targets:
        raise InvariantError("decomposition re-substitution mismatch")
    return scalars, tildes


# -- the modular tensor as sharp of a form, one image per basis element -----------

def oracle_sharp_preimage(structure, volume, domain, form_of):
    """Solve M = sum c_j sharp(form_of(domain_j)) as a stream of whole images:
    one sharp image per domain element, each component with a denominator in
    M multiplied through by it, labelled term by term in the image's order."""
    tensor = modular_tensor(structure, volume)
    denominators = {idx: value.denominator for idx, value in tensor.components.items()
                    if isinstance(value, RationalFunction)}

    def labelled(components):
        return {(idx, exponent): coeff for idx, value in components.items()
                for exponent, coeff in value.terms.items()}

    target = labelled({idx: value.numerator if idx in denominators else value
                       for idx, value in tensor.components.items()})

    def column(position):
        image = sharp(structure, 1, form_of(basis_tensor(domain, position)))
        return labelled({idx: value * denominators[idx] if idx in denominators else value
                         for idx, value in image.components.items()})

    return solve_labelled(map(column, range(len(domain))), target)


# -- form-represented cochains of the algebroid complex, as test oracles ----------

def form_cochain_value(structure: NambuStructure, form: GradedTensor,
                       arguments: list[GradedTensor]) -> Scalar:
    """Value of the cochain represented by a k-form on k bracket arguments."""
    if form.degree != len(arguments):
        raise ValueError("argument count must match the form degree")
    if not arguments:
        return form.scalar_value()
    n = structure.order
    fields = [sharp(structure, n - 1, argument) for argument in arguments]
    return pair(form, wedge_all(fields))


def form_cochain_coboundary(structure: NambuStructure, form: GradedTensor,
                            arguments: list[GradedTensor]) -> Scalar:
    """The algebroid coboundary of a form-represented cochain, evaluated.

    Anchor terms act through the bundle map; bracket terms replace the later
    argument in place, with the sign convention of the non-skew complex.
    """
    k = form.degree
    if len(arguments) != k + 1:
        raise ValueError("coboundary evaluation needs k+1 arguments")
    n = structure.order
    total = structure.chart.scalar(0)
    for i, argument in enumerate(arguments):
        rest = arguments[:i] + arguments[i + 1:]
        value = form_cochain_value(structure, form, rest)
        term = apply_vector(sharp(structure, n - 1, argument), value)
        if i % 2:
            term = -term
        total = total + term
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            bracket = leibniz_bracket(structure, arguments[i], arguments[j])
            reduced = arguments[:i] + arguments[i + 1:]
            reduced[j - 1] = bracket
            value = form_cochain_value(structure, form, reduced)
            if (i - 1) % 2:
                value = -value
            total = total + value
    return total


# -- the model tokenizer as a character loop, as the oracle of its pattern ----------

_SYMBOLS = ("**", "+", "-", "*", "(", ")", "=", "^", "@", "/")


def oracle_tokens(text: str, line_no: int) -> list[Token]:
    """``#`` ends the line and white space separates; a run of digits is an
    INT, a letter or underscore starts an IDENT run of alphanumerics and
    underscores, and a symbol is the first of ``_SYMBOLS`` that matches.
    Only on ASCII is it the tokenizer: ``isdigit`` also holds digits such as
    ², which ``int`` rejects."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "#":
            break
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            tokens.append(Token("INT", text[pos:end], line_no, pos + 1))
            pos = end
            continue
        if ch.isalpha() or ch == "_":
            end = pos
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(Token("IDENT", text[pos:end], line_no, pos + 1))
            pos = end
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(Token("SYM", sym, line_no, pos + 1))
                pos += len(sym)
                break
        else:
            raise ModelError("unexpected character", line_no, pos + 1, ch)
    return tokens


# -- a linear change of coordinates, as the oracle of coordinate invariance --------

def compose_linear(poly: Polynomial, matrix) -> Polynomial:
    """p(A y): every x_k becomes sum_j A_kj y_j, on the same variable names."""
    names = poly.variables
    images = [sum((Polynomial.variable(names, j) * a for j, a in enumerate(row)),
                  Polynomial.zero(names)) for row in matrix]
    total = Polynomial.zero(names)
    for exponent, coeff in poly.terms.items():
        term = Polynomial.constant(names, coeff)
        for image, power in zip(images, exponent):
            term = term * image ** power
        total = total + term
    return total


def pull_back(structure: NambuStructure, volume: VolumeSpec, matrix,
              ) -> tuple[NambuStructure, VolumeSpec]:
    """The structure and volume in the coordinates y of x = A y, for an
    invertible rational matrix A, written on the same chart.

    Each d/dx_i becomes sum_j (A^-1)_ji d/dy_j, every coefficient and weight
    is composed with A, and dx_1 ^ ... ^ dx_m becomes det(A) dy_1 ^ ... ^
    dy_m, so std becomes det(A) std.
    """
    chart = structure.chart
    m = chart.dimension
    inverse = ExactMatrix(m, m, [{j: a for j, a in enumerate(row) if a} for row in matrix])

    def combination(kind, weights):
        return sum((GradedTensor.basis(chart, kind, (j,)).scale(w) for j, w in enumerate(weights)),
                   GradedTensor.zero(chart, kind, 1))

    # column i of A^-1 solves A c = e_i
    fields = [combination(MULTIVECTOR, inverse.solve([int(k == i) for k in range(m)])[0])
              for i in range(m)]
    tensor = GradedTensor.zero(chart, MULTIVECTOR, structure.order)
    for index, value in structure.tensor.components.items():
        tensor = tensor + wedge_all(fields[i] for i in index).scale(compose_linear(value, matrix))
    det = wedge_all(combination(FORM, row) for row in matrix).component(range(m))
    return (NambuStructure(tensor, structure.order),
            VolumeSpec(chart, compose_linear(volume.coefficient, matrix) * det,
                       compose_linear(volume.weight, matrix)))
