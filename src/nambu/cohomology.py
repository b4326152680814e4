"""Degree-truncated (co)homology computations, exactly over Q.

Every dimension reported here names its coefficient-degree bound: the
underlying spaces are infinite-dimensional, and the honest computable
statement is a dimension that is stable across a window of bounds.  Degree
bookkeeping is strict throughout: an operator's rows are the labels its
images hold, so no image is ever clipped, coordinates in a truncated space
raise rather than drop a term, and every quotient asserts that the
coboundaries lie in the cocycles.  h1-top takes its quotient on a coordinate
complement of the coboundaries (``_complement_kernel``); the foliated and
canonical dimensions are dim(cocycles) - dim(coboundary span).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .algebra import (
    ONE,
    ExactMatrix,
    Polynomial,
    SparseVector,
    matrix_from_columns,
)
from .exterior import (
    FORM,
    MULTIVECTOR,
    Chart,
    GradedTensor,
    contract_form,
    differential,
    ext_d,
    wedge,
)
from .modular import VolumeSpec, delta, modular_tensor
from .structures import NambuStructure, sharp
from .truncation import (
    Label,
    TruncatedBasis,
    TruncatedOperator,
    ker_sharp_basis,
    monomials_up_to,
    solve_in_span,
    solve_labelled,
)


# -- shared linear-algebra helpers --------------------------------------------

def _rank_of_vectors(vectors: list[SparseVector], length: int) -> int:
    if not vectors:
        return 0
    return matrix_from_columns(vectors, length).rank()


def _annihilates(matrix: ExactMatrix, vectors: list[SparseVector]) -> bool:
    """Whether the matrix sends every vector to zero, computed in integers.

    A positive scaling of a row or of a vector does not change whether their
    product is zero, so each vector is scaled by the lcm of its denominators
    and each row by the lcm of its entries on the vectors' support.
    """
    scales = [lcm(*(v.denominator for v in vector.values())) for vector in vectors]
    held = matrix_from_columns(
        ({i: v.numerator * (s // v.denominator) for i, v in vector.items()}
         for vector, s in zip(vectors, scales)), matrix.cols).row_dicts()
    for row in matrix.row_dicts():
        hits = [(held[i], a) for i, a in row.items() if held[i]]
        scale = lcm(*(a.denominator for _, a in hits))
        acc: dict[int, int] = {}
        for column, a in hits:
            a = a.numerator * (scale // a.denominator)
            for j, b in column.items():
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            return False
    return True


def _complement_kernel(cocycle: ExactMatrix, boundaries: list[SparseVector],
                       length: int) -> tuple[int, list[SparseVector]]:
    """Rank of the coboundaries B and a basis of ker C modulo span B.

    With P the pivot columns of the matrix whose rows are B and W the other
    coordinates, the projection pi_P is an isomorphism on span B, so every
    cocycle minus the B-vector with the same P-coordinates lies in ker C on
    Q^W.  Hence ker C is the direct sum of span B and ker(C|_W), and the
    kernel of C|_W padded with zeros on P is the basis.
    """
    if not _annihilates(cocycle, boundaries):
        raise RuntimeError("coboundary vector escapes the cocycle space; "
                           "degree bookkeeping is inconsistent")
    spanned = set(ExactMatrix(len(boundaries), length, boundaries).pivot_columns())
    kept = [j for j in range(length) if j not in spanned]
    position = {j: k for k, j in enumerate(kept)}
    restricted = ExactMatrix(cocycle.rows, len(kept), [
        {position[j]: v for j, v in row.items() if j in position}
        for row in cocycle.row_dicts()])
    return len(spanned), [{kept[k]: v for k, v in vector.items()}
                          for vector in restricted.nullspace()]


# -- foliated cohomology -------------------------------------------------------

@dataclass(frozen=True)
class TruncatedDimension:
    """A dimension at a named coefficient bound, with a stabilization signal."""

    degree: int
    bound: int
    dimension: int
    previous_dimension: int | None

    @property
    def stabilized(self) -> bool:
        return self.previous_dimension is not None and \
            self.previous_dimension == self.dimension


def _foliated_dimension_at(structure: NambuStructure, degree: int, bound: int,
                           sharp_kernel: list[GradedTensor] | None = None) -> int:
    """Foliated cohomology at one degree; ``sharp_kernel`` is
    ``ker_sharp_basis(structure, degree, bound)`` when the caller has it."""
    chart = structure.chart
    n = structure.order
    domain = TruncatedBasis.build(chart, FORM, degree, bound)

    if degree < n:
        cocycle_op = TruncatedOperator.build(
            domain, lambda form: sharp(structure, degree + 1, ext_d(form)))
        cocycle_dimension = len(domain) - cocycle_op.matrix.rank()
    else:
        cocycle_op = None
        cocycle_dimension = len(domain)

    boundary_vectors: list[SparseVector] = []
    if degree >= 1:
        previous = TruncatedBasis.build(chart, FORM, degree - 1, bound + 1)
        boundary_vectors = TruncatedOperator.build(previous, ext_d).coordinates_in(domain)
    if sharp_kernel is None:
        sharp_kernel = ker_sharp_basis(structure, degree, bound)
    boundary_vectors.extend(domain.to_coordinates(form) for form in sharp_kernel)

    if cocycle_op is not None and not _annihilates(cocycle_op.matrix, boundary_vectors):
        raise RuntimeError("coboundary vector escapes the cocycle space; "
                           "degree bookkeeping is inconsistent")

    return cocycle_dimension - _rank_of_vectors(boundary_vectors, len(domain))


def foliated_cohomology_dim(structure: NambuStructure, degree: int,
                            bound: int) -> TruncatedDimension:
    """Dimension of the truncated foliated cohomology at one degree.

    Cochains are bounded-coefficient forms modulo the kernel of the bundle
    map; the differential is the one induced by the exterior derivative.
    The value at bound-1 is recomputed as a stabilization signal.
    """
    if not 0 <= degree <= structure.order:
        raise ValueError("cohomology degree out of range 0..n")
    if bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    dimension = _foliated_dimension_at(structure, degree, bound)
    previous = _foliated_dimension_at(structure, degree, bound - 1) if bound >= 1 else None
    return TruncatedDimension(degree, bound, dimension, previous)


# -- top-order cohomology (chart dimension equals the order) --------------------

def np_cocycle_check_top(coefficient: Polynomial, one_form: GradedTensor) -> GradedTensor:
    """Residual of the top-order cocycle condition f da - df ^ a; zero passes."""
    chart = one_form.chart
    if one_form.variance != FORM or one_form.degree != 1:
        raise ValueError("the cocycle condition applies to 1-forms")
    if coefficient.variables != chart.coordinates:
        raise ValueError("coefficient does not live on the form's chart")
    return ext_d(one_form).scale(coefficient) - wedge(differential(chart, coefficient), one_form)


@dataclass(frozen=True)
class TopH1Report:
    """Truncated first cohomology of a top-order structure.

    cocycle_dimension and coboundary_dimension are the two sides of the
    quotient; representatives spans a complement of the coboundaries inside
    the cocycles, so its length equals dimension.
    """

    bound: int
    dimension: int
    cocycle_dimension: int
    coboundary_dimension: int
    representatives: tuple[GradedTensor, ...]


def np_h1_top(coefficient: Polynomial, bound: int) -> TopH1Report:
    """Cocycles f da = df ^ a modulo coboundaries f dg, at one degree bound."""
    deg_f = max(coefficient.total_degree(), 0)
    if coefficient.is_zero():
        raise ValueError("the top coefficient must be non-zero")
    if bound < deg_f - 1:
        raise ValueError(f"bound {bound} is below deg(f) - 1 = {deg_f - 1}")
    chart = Chart(coefficient.variables)
    domain = TruncatedBasis.build(chart, FORM, 1, bound)
    cocycle_op = TruncatedOperator.build(
        domain, lambda form: np_cocycle_check_top(coefficient, form))
    # f dg for every non-constant monomial g, the constant being first
    generators = TruncatedBasis.build(chart, FORM, 0, bound + 1 - deg_f)
    coboundaries = TruncatedOperator.build(
        generators, lambda g: ext_d(g).scale(coefficient)).coordinates_in(domain)[1:]
    boundary_rank, kernel = _complement_kernel(cocycle_op.matrix, coboundaries, len(domain))
    return TopH1Report(
        bound=bound,
        dimension=len(kernel),
        cocycle_dimension=boundary_rank + len(kernel),
        coboundary_dimension=boundary_rank,
        representatives=tuple(domain.from_coordinates(vector) for vector in kernel))


# -- canonical homology ----------------------------------------------------------

def _is_polynomial_multiple(candidate: GradedTensor, generator: GradedTensor) -> bool:
    """Whether candidate = h * generator for a single polynomial h."""
    if generator.is_zero():
        return candidate.is_zero()
    reference = next(iter(sorted(generator.components)))
    numerator = candidate.components.get(reference)
    if numerator is None:
        return candidate.is_zero()
    factor = generator.components[reference].divides_exactly(numerator)
    if factor is None:
        return False
    return candidate == generator.scale(factor)


def reduce_annihilators(forms: list[GradedTensor]) -> list[GradedTensor]:
    """Drop kernel elements that are polynomial multiples of kept ones.

    Contraction is function-linear in the form, so a multiple imposes an
    implied constraint; pruning it changes nothing in any tangency test but
    collapses the bounded kernel to the module generators it actually has.
    """
    def coefficient_degree(form: GradedTensor) -> int:
        return max((v.total_degree() for v in form.components.values()),
                   default=0)

    kept: list[GradedTensor] = []
    for form in sorted(forms, key=coefficient_degree):
        if any(_is_polynomial_multiple(form, generator) for generator in kept):
            continue
        kept.append(form)
    return kept


def _tangent_chain_vectors(structure: NambuStructure, degree: int, bound: int,
                           annihilators: list[GradedTensor],
                           ) -> tuple[TruncatedBasis, list[SparseVector], ExactMatrix | None]:
    """Coordinate basis of bounded-degree multivectors killed by the given
    annihilator 1-forms of the structure, and the constraint matrix that cuts
    them out; degree 0 is unconstrained and has no constraint matrix."""
    chart = structure.chart
    domain = TruncatedBasis.build(chart, MULTIVECTOR, degree, bound)
    if not annihilators or degree == 0:
        return domain, [{j: ONE} for j in range(len(domain))], None
    rows: list[dict[int, Fraction]] = []
    for annihilator in annihilators:
        block = TruncatedOperator.build(
            domain, lambda field, a=annihilator: contract_form(a, field)).matrix
        rows.extend(block.row_dicts())
    constraints = ExactMatrix(len(rows), len(domain), rows)
    return domain, constraints.nullspace(), constraints


def _check_homology_volume(volume: VolumeSpec) -> None:
    if not volume.weight.is_zero() or not volume.coefficient.is_constant():
        raise ValueError("truncated homology needs a constant-coefficient, "
                         "weight-free volume")


def canonical_homology_dim(structure: NambuStructure, volume: VolumeSpec,
                           degree: int, bound: int) -> int:
    """Truncated homology of the boundary on tangent multivectors.

    Chains at the named bound; the incoming image is taken from bound+1
    chains so that the quotient is well-posed.  The volume must have weight
    zero and constant coefficient: anything else pushes chains outside every
    finite monomial truncation, and the homology is volume-independent anyway.
    """
    n = structure.order
    if not 0 <= degree <= n:
        raise ValueError("homology degree out of range 0..n")
    _check_homology_volume(volume)
    annihilators = reduce_annihilators(ker_sharp_basis(structure, 1, bound))
    above_annihilators = []
    if degree < n:
        above_annihilators = reduce_annihilators(ker_sharp_basis(structure, 1, bound + 1))
    return _canonical_dimension_at(structure, volume, degree, bound,
                                   annihilators, above_annihilators)


def _canonical_dimension_at(structure: NambuStructure, volume: VolumeSpec,
                            degree: int, bound: int, annihilators: list[GradedTensor],
                            above_annihilators: list[GradedTensor]) -> int:
    """Canonical homology at one degree, given the reduced annihilator 1-forms
    at ``bound`` and (used below the top degree) at ``bound + 1``."""
    n = structure.order
    domain, chains, constraints = _tangent_chain_vectors(structure, degree, bound,
                                                         annihilators)
    if degree >= 1:
        boundary = TruncatedOperator.build(domain, lambda field: delta(volume, field))
        images = boundary.matrix @ matrix_from_columns(chains, len(domain))
        kernel_dim = len(chains) - images.rank()
    else:
        kernel_dim = len(chains)

    incoming_rank = 0
    if degree + 1 <= n:
        above, above_chains, _ = _tangent_chain_vectors(structure, degree + 1, bound + 1,
                                                        above_annihilators)
        boundary_above = TruncatedOperator.build(above, lambda field: delta(volume, field))
        incoming = boundary_above.coordinates_in(domain, above_chains)
        if constraints is not None and not _annihilates(constraints, incoming):
            raise RuntimeError("boundary image left the tangent chain space")
        incoming_rank = _rank_of_vectors(incoming, len(domain))
    return kernel_dim - incoming_rank


# -- the modular obstruction to the image subcomplex -----------------------------

@dataclass(frozen=True)
class SubcomplexReport:
    """Membership of the modular tensor in the degree-1 bundle image.

    A yes carries the witness 1-form; a no carries a labelled left-kernel
    certificate proving that no bounded-degree witness exists.
    """

    is_subcomplex: bool
    bound: int
    witness: GradedTensor | None
    certificate: tuple[tuple[Label, Fraction], ...] | None


def subcomplex_check(structure: NambuStructure, volume: VolumeSpec,
                     bound: int) -> SubcomplexReport:
    """Decide whether the modular tensor is sharp of a bounded-degree 1-form."""
    if bound < 0:
        raise ValueError("degree bound must be non-negative")
    chart = structure.chart
    tensor = modular_tensor(structure, volume)
    domain = TruncatedBasis.build(chart, FORM, 1, bound)
    images = [sharp(structure, 1, domain.tensor_of(j)) for j in range(len(domain))]
    solution, certificate = solve_in_span(images, tensor)
    if solution is not None:
        witness = domain.from_coordinates({j: c for j, c in enumerate(solution) if c})
        return SubcomplexReport(True, bound, witness, None)
    return SubcomplexReport(False, bound, None, certificate)


# -- polynomial decomposition helpers (two- and three-variable) -------------------

def _equation_labels(polys: list[Polynomial]) -> dict[Label, Fraction]:
    return {((eq_index,), exponent): coeff for eq_index, poly in enumerate(polys)
            for exponent, coeff in poly.terms.items()}


def _radial_relations(polys: list[Polynomial]) -> list[Polynomial]:
    """r^2 (d_j P_i - d_i P_j) - 2 (P_i x_j - P_j x_i) for each i < j, in order,
    where r^2 is the squared radius; all zero is the lemmas' hypothesis."""
    names = polys[0].variables
    xs = [Polynomial.variable(names, i) for i in range(len(names))]
    radius = sum((x * x for x in xs), Polynomial.zero(names))
    return [radius * (polys[i].diff(j) - polys[j].diff(i))
            - 2 * (polys[i] * xs[j] - polys[j] * xs[i])
            for i, j in combinations(range(len(polys)), 2)]


def _radial_split(polys: list[Polynomial], rotation: bool
                  ) -> tuple[list[Fraction], list[Polynomial]]:
    """Split P_i = a x_i + r^2 T_i with d_j T_i = d_i T_j, for polynomials
    whose radial relations hold.

    With ``rotation`` (two variables) the linear part also carries
    b (x2, -x1).  The unknowns are a, then b, then each T_i's coefficients;
    the equations are the components, then the curls for i < j.  The split
    is found by one exact solve and re-verified by substitution.
    """
    names = polys[0].variables
    m = len(names)
    xs = [Polynomial.variable(names, i) for i in range(m)]
    radius = sum((x * x for x in xs), Polynomial.zero(names))
    pairs = list(combinations(range(m), 2))
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
        raise RuntimeError("decomposition solve failed although the relations hold")
    scalars, tildes = unknown_split(solution)
    if equation_vector(scalars, tildes) != targets:
        raise RuntimeError("decomposition re-substitution mismatch")
    return scalars, tildes


@dataclass(frozen=True)
class PairDecomposition:
    applicable: bool
    hypothesis_residual: Polynomial | None
    a: Fraction | None = None
    b: Fraction | None = None
    p_tilde: Polynomial | None = None
    q_tilde: Polynomial | None = None


def naka_pair(p: Polynomial, q: Polynomial) -> PairDecomposition:
    """Split a two-variable pair along (a x1 + b x2, -b x1 + a x2) plus
    multiples of x1^2 + x2^2 with cross-derivative-compatible cofactors.

    Applies when (x1^2+x2^2)(d2 P - d1 Q) = 2(P x2 - Q x1); the split is
    found by exact linear solve and re-verified by substitution.
    """
    if len(p.variables) != 2 or p.variables != q.variables:
        raise ValueError("expected two polynomials in the same two variables")
    residual, = _radial_relations([p, q])
    if not residual.is_zero():
        return PairDecomposition(False, residual)
    (a, b), (pt, qt) = _radial_split([p, q], rotation=True)
    return PairDecomposition(True, None, a, b, pt, qt)


@dataclass(frozen=True)
class TripleDecomposition:
    applicable: bool
    failed_relation: str | None
    a: Fraction | None = None
    tildes: tuple[Polynomial, Polynomial, Polynomial] | None = None


def naka_triple(a_poly: Polynomial, b_poly: Polynomial,
                c_poly: Polynomial) -> TripleDecomposition:
    """Three-variable analogue of ``naka_pair`` along the radius x1^2+x2^2+x3^2.

    The third compatibility relation is the derived form 2(B x3 - C x2); when
    inputs satisfy the variant with A in place of B instead, the report names
    that explicitly.
    """
    if len(a_poly.variables) != 3 or not (a_poly.variables == b_poly.variables
                                          == c_poly.variables):
        raise ValueError("expected three polynomials in the same three variables")
    polys = [a_poly, b_poly, c_poly]
    for name, residual in zip(("first", "second", "third"), _radial_relations(polys)):
        if not residual.is_zero():
            # the variant differs from the third relation by 2 (B - A) x3
            x3 = Polynomial.variable(a_poly.variables, 2)
            if name == "third" and (residual + 2 * (b_poly - a_poly) * x3).is_zero():
                name = "third (only its A-for-B variant holds)"
            return TripleDecomposition(False, name)
    (a,), tildes = _radial_split(polys, rotation=False)
    return TripleDecomposition(True, None, a, tuple(tildes))


# -- duality report ---------------------------------------------------------------

@dataclass(frozen=True)
class DualityRow:
    degree: int
    np_dimension: int | None
    foliated_dimension: int
    canonical_degree: int
    canonical_dimension: int

    @property
    def matches(self) -> bool | None:
        if self.np_dimension is None:
            return None
        return (self.np_dimension == self.canonical_dimension
                and self.np_dimension == self.foliated_dimension)


@dataclass(frozen=True)
class DualityReport:
    bound: int
    rows: tuple[DualityRow, ...]
    holds: bool

    @property
    def verdict(self) -> str:
        if self.holds:
            return f"duality holds at bound {self.bound}"
        return "duality FAILS"


def duality_report(structure: NambuStructure, volume: VolumeSpec,
                   bound: int) -> DualityReport:
    """Compare truncated cohomology dimensions against homology in dual degree.

    The cohomology column comes from the top-order quotient description at
    degree one when the chart dimension equals the order, and from the
    foliated dimensions when the structure tensor is constant (the regular
    normal form); degrees with no finite presentation stay blank and are not
    compared.  Degree zero always agrees with the foliated value because both
    kernels are cut out by the same annihilator condition.
    """
    if bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    _check_homology_volume(volume)
    n = structure.order
    constant_structure = all(v.is_constant() for v in structure.tensor.components.values())
    one_form_kernel = ker_sharp_basis(structure, 1, bound)
    annihilators = reduce_annihilators(one_form_kernel)
    above_annihilators = reduce_annihilators(ker_sharp_basis(structure, 1, bound + 1))
    rows = []
    holds = True
    for degree in range(n + 1):
        foliated = _foliated_dimension_at(structure, degree, bound,
                                          one_form_kernel if degree == 1 else None)
        canonical_degree = n - degree
        canonical = _canonical_dimension_at(structure, volume, canonical_degree, bound,
                                            annihilators, above_annihilators)
        np_dim: int | None
        if degree == 0:
            np_dim = foliated
        elif structure.is_top_order and degree == 1:
            np_dim = np_h1_top(structure.top_coefficient(), bound).dimension
        elif constant_structure:
            np_dim = foliated
        else:
            np_dim = None
        row = DualityRow(degree, np_dim, foliated, canonical_degree, canonical)
        if row.matches is False:
            holds = False
        rows.append(row)
    return DualityReport(bound, tuple(rows), holds)
