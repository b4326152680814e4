"""Degree-truncated (co)homology computations, exactly over Q.

Every dimension reported here names its coefficient-degree bound: the
underlying spaces are infinite-dimensional, and the honest computable
statement is a dimension that is stable across a window of bounds.  Degree
bookkeeping is strict throughout: an operator's rows are the labels its
images hold, so no image is ever clipped, coordinates in a truncated space
raise rather than drop a term, and every quotient asserts that the
coboundaries lie in the cocycles.  Every quotient, h1-top, foliated and
canonical alike, is one ``_quotient`` call: it stacks the cycle maps into a
matrix, then asks one callable for the boundary vectors, and returns
``_complement_kernel(cycles, boundaries)``: the kernel of the cycle matrix
on a coordinate complement of the boundaries.  Its length is the dimension,
and for h1-top its vectors are the printed representatives.  ``_Complexes``
makes the maps of one report's foliated and canonical quotients, each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

from .algebra import (ExactMatrix, InvariantError, Polynomial, Rational, SparseVector,
                      cleared, transpose, weighted_sums)
from .exterior import FORM, Chart, GradedTensor, differential, ext_d, wedge
from .modular import VolumeSpec, sharp_preimage
from .structures import NambuStructure, sharp
from .truncation import (
    Certificate,
    FirstOrderMap,
    TruncatedBasis,
    TruncatedOperator,
    _sharp_kernel,
    bundle_map,
    monomials_up_to,
    solve_in_span,
)


# -- shared linear-algebra helpers --------------------------------------------

def _annihilates(matrix: ExactMatrix, vectors: list[SparseVector]) -> bool:
    """Whether the matrix sends every vector to zero, summed in ints: scaling a
    row or a vector by the lcm of its denominators scales each product entry
    it meets by a non-zero factor, so no zero changes."""
    held = transpose(enumerate(cleared(vectors)), matrix.cols)
    return not any(weighted_sums(cleared(matrix.row_dicts()), held))


def _complement_kernel(cycles: ExactMatrix, boundaries: list[SparseVector],
                       ) -> tuple[int, list[SparseVector]]:
    """Rank of the boundaries B and a basis of ker C modulo span B.

    With P the pivot columns of the matrix whose rows are B and W the other
    coordinates, the projection pi_P is an isomorphism on span B, so every
    cycle minus the B-vector with the same P-coordinates lies in ker C on
    Q^W.  Hence ker C is the direct sum of span B and ker(C|_W).  C|_W is C
    with its columns in P emptied: its nullspace is the basis, zero on P,
    plus the unit vector at each column of P, which is dropped.  B must lie
    in ker C (D after D is zero); that is checked first.  With no B the
    basis is the nullspace of C.
    """
    if not boundaries:
        return 0, cycles.nullspace()
    if not _annihilates(cycles, boundaries):
        raise InvariantError("coboundary vector escapes the cocycle space; "
                             "degree bookkeeping is inconsistent")
    # ``transpose`` has checked the keys of the boundaries
    spanned = set(ExactMatrix._of_rows(cycles.cols, boundaries).pivot_columns())
    restricted = ExactMatrix._of_rows(cycles.cols, [
        {j: v for j, v in row.items() if j not in spanned} for row in cycles.row_dicts()])
    return len(spanned), [vector for vector in restricted.nullspace()
                          if spanned.isdisjoint(vector)]


def _quotient(domain: TruncatedBasis, cycle_maps: list[Callable],
              boundaries: Callable[[], list[SparseVector]] = list,
              ) -> tuple[int, list[SparseVector]]:
    """``_complement_kernel`` of ker C / span B on ``domain``, the one place
    that builds a quotient.

    C stacks the operator rows of the cycle maps (no map gives 0 rows).  B is
    ``boundaries()``, every boundary as vectors of ``domain``, built once and
    not changed; it is called after C is built, so an operator it builds for
    B is not kept beside C.
    """
    rows = [row for mapping in cycle_maps
            for row in TruncatedOperator.build(domain, mapping).matrix.row_dicts()]
    return _complement_kernel(ExactMatrix._of_rows(len(domain), rows), boundaries())


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


def foliated_cohomology_dim(structure: NambuStructure, degree: int,
                            bound: int) -> TruncatedDimension:
    """Dimension of the truncated foliated cohomology at one degree.

    Cochains are bounded-coefficient forms modulo the kernel of the bundle
    map; the differential is the one induced by the exterior derivative.
    The value at bound-1 is recomputed as a stabilization signal.
    """
    if not 0 <= degree <= structure.order:
        raise ValueError(f"cohomology degree out of range 0..{structure.order}")
    if bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    complexes = _Complexes(structure)
    dimension = complexes.foliated(degree, bound)
    previous = complexes.foliated(degree, bound - 1) if bound >= 1 else None
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


def _top_degree(coefficient: Polynomial, bound: int) -> int:
    """deg f, once the bound is non-negative, f non-zero and the bound at least
    deg f - 1, as h1-top needs."""
    if bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    if coefficient.is_zero():
        raise ValueError("the top coefficient must be non-zero")
    deg_f = coefficient.total_degree()
    if bound < deg_f - 1:
        raise ValueError(f"bound {bound} is below deg(f) - 1 = {deg_f - 1}")
    return deg_f


def np_h1_top(coefficient: Polynomial, bound: int) -> TopH1Report:
    """Cocycles f da = df ^ a modulo coboundaries f dg, at one degree bound."""
    deg_f = _top_degree(coefficient, bound)
    chart = Chart(coefficient.variables)
    domain = TruncatedBasis.build(chart, FORM, 1, bound)
    # f dg for every monomial g at bound + 1 - deg f; the constant's is empty
    generators = TruncatedBasis.build(chart, FORM, 0, bound + 1 - deg_f)
    boundary_rank, kernel = _quotient(
        domain, [lambda form: np_cocycle_check_top(coefficient, form)],
        lambda: TruncatedOperator.build(
            generators, lambda g: ext_d(g).scale(coefficient)).coordinates_in(domain))
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

    The wedge is function-linear in the form, so a multiple imposes an
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


def canonical_homology_dim(structure: NambuStructure, volume: VolumeSpec,
                           degree: int, bound: int) -> int:
    """Truncated homology of the boundary on tangent multivectors.

    Chains at the named bound; the incoming image is taken from bound+1
    chains so that the quotient is well-posed.  The volume must have weight
    zero and constant coefficient, since the complex below is built for that
    case alone: flat divides by a non-constant coefficient, and a weight
    turns d into d minus dw wedge, which no map here assembles.
    Through flat it is d on (m - degree)-forms: flat(delta P) = d(flat P), and
    flat(i(alpha) P) = (-1)^(k-1) alpha ^ flat(P) for a 1-form alpha.
    """
    n = structure.order
    if not 0 <= degree <= n:
        raise ValueError(f"homology degree out of range 0..{n}")
    return _Complexes(structure, volume).canonical(degree, bound)


class _Complexes:
    """The foliated and canonical complexes of one structure, for one report,
    both on forms under d.

    For a constant, weight-free volume, flat sends each k-multivector basis
    element at a bound to a multiple of an (m - k)-form basis element there,
    with flat(delta P) = d(flat P) and flat(i(alpha) P) = (-1)^(k-1) alpha ^
    flat(P) for a 1-form alpha.  So the maps are d, the bundle map and sharp
    after d at each degree, and the wedge with each reduced annihilator
    1-form.  Each map is made once and shared, with its stencils, by every
    degree and bound of the report; each sharp kernel, as coordinate vectors
    of the degree-k forms, and each list of reduced annihilators is made
    once per (degree, bound).  Each d is held as vectors of its quotient's
    domain, which the canonical side combines along its tangent chains.  A
    report makes one and drops it with its answer.
    """

    def __init__(self, structure: NambuStructure, volume: VolumeSpec | None = None):
        if volume is not None and not (volume.weight.is_zero()
                                       and volume.coefficient.is_constant()):
            raise ValueError("truncated homology needs a constant-coefficient, "
                             "weight-free volume")
        self.structure = structure
        self._ext_d = FirstOrderMap(ext_d)
        self._made: dict = {}

    def _once(self, key, make: Callable):
        made = self._made.get(key)
        if made is None:
            made = self._made[key] = make()
        return made

    def _kernel(self, domain: TruncatedBasis) -> list[SparseVector]:
        """The bundle map's kernel on ``domain``, as coordinate vectors of its forms."""
        degree = domain.degree
        return self._once(("kernel", degree, domain.coefficient_bound), lambda: _sharp_kernel(
            self._once(("sharp", degree), lambda: bundle_map(self.structure, degree)), domain))

    def _tangency(self, bound: int) -> list[FirstOrderMap]:
        """The wedges whose common kernel is the tangent chains of every
        positive canonical degree at ``bound``, as forms."""
        def reduced() -> list[GradedTensor]:
            forms = TruncatedBasis.build(self.structure.chart, FORM, 1, bound)
            return reduce_annihilators(list(map(forms.from_coordinates, self._kernel(forms))))

        annihilators = self._once(("annihilators", bound), reduced)
        return [self._once(("wedge", form), lambda form=form: FirstOrderMap(
            lambda chain: wedge(form, chain))) for form in annihilators]

    def _d(self, domain: TruncatedBasis) -> list[SparseVector]:
        """d of each (k - 1)-form at bound + 1 as a vector of ``domain``, the
        k-forms at ``bound``: the vectors that ``share`` holds, else new ones."""
        degree, bound = domain.degree, domain.coefficient_bound
        shared = self._made.get(("shared d", degree, bound))
        return shared.pop() if shared else TruncatedOperator.build(
            TruncatedBasis.build(self.structure.chart, FORM, degree - 1, bound + 1),
            self._ext_d).coordinates_in(domain)

    def share(self, degree: int, bound: int) -> None:
        """Build ``_d``'s vectors once for foliated k and canonical m - k, one hold per read."""
        self._made["shared d", degree, bound] = [self._d(
            TruncatedBasis.build(self.structure.chart, FORM, degree, bound))] * 2

    def foliated(self, degree: int, bound: int) -> int:
        """Foliated cohomology at one degree: the forms that sharp after d
        kills, modulo d of the forms one degree down at bound + 1 and the
        sharp kernel."""
        structure = self.structure
        domain = TruncatedBasis.build(structure.chart, FORM, degree, bound)
        cycles = []
        if degree < structure.order:
            cycles.append(self._once(("sharp after d", degree), lambda: FirstOrderMap(
                lambda form: sharp(structure, degree + 1, ext_d(form)))))
        kernel = self._kernel(domain)

        return len(_quotient(
            domain, cycles, lambda: (self._d(domain) if degree else []) + kernel)[1])

    def canonical(self, degree: int, bound: int) -> int:
        """Canonical homology at one degree through flat, which takes delta to d
        and i(alpha) to (-1)^(degree-1) alpha ^: the (m - degree)-forms at
        ``bound`` that d and the wedges with the reduced annihilators kill,
        modulo d of those tangent forms one degree down at bound + 1."""
        structure, chart = self.structure, self.structure.chart
        forms = chart.dimension - degree
        domain = TruncatedBasis.build(chart, FORM, forms, bound)
        cycles = [*self._tangency(bound), self._ext_d] if degree else []
        if degree == structure.order:
            return len(_quotient(domain, cycles)[1])
        above = TruncatedBasis.build(chart, FORM, forms - 1, bound + 1)
        chains = _quotient(above, self._tangency(bound + 1))[1]
        return len(_quotient(domain, cycles,
                             lambda: list(weighted_sums(chains, self._d(domain))))[1])


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
    certificate: Certificate | None


def subcomplex_check(structure: NambuStructure, volume: VolumeSpec,
                     bound: int) -> SubcomplexReport:
    """Decide whether the modular tensor is sharp of a bounded-degree 1-form."""
    if bound < 0:
        raise ValueError("degree bound must be non-negative")
    domain = TruncatedBasis.build(structure.chart, FORM, 1, bound)
    solution, certificate = sharp_preimage(structure, volume, domain, lambda form: form)
    if solution is not None:
        witness = domain.from_coordinates({j: c for j, c in enumerate(solution) if c})
        return SubcomplexReport(True, bound, witness, None)
    return SubcomplexReport(False, bound, None, certificate)


# -- polynomial decomposition helpers (two- and three-variable) -------------------

def _radial_form(polys: list[Polynomial]) -> tuple[GradedTensor, Polynomial]:
    """The 1-form sum P_i dx_i on the chart of the P_i, and the squared radius."""
    chart = Chart(polys[0].variables)
    xs = [chart.coordinate_polynomial(i) for i in range(chart.dimension)]
    return (GradedTensor(chart, FORM, 1, {(i,): p for i, p in enumerate(polys)}),
            sum((x * x for x in xs), chart.zero_polynomial()))


def _radial_relations(polys: list[Polynomial]) -> list[Polynomial]:
    """r^2 (d_j P_i - d_i P_j) - 2 (P_i x_j - P_j x_i) for each i < j, in order,
    where r^2 is the squared radius: the negated components of the top-order
    cocycle residual of P = sum P_i dx_i.  All zero is the lemmas' hypothesis."""
    form, radius = _radial_form(polys)
    residual = np_cocycle_check_top(radius, form)
    return [-residual.component(pair) for pair in combinations(range(len(polys)), 2)]


def _radial_split(polys: list[Polynomial], rotation: bool
                  ) -> tuple[list[Rational], list[Polynomial]]:
    """Split P_i = a x_i + r^2 T_i with d_j T_i = d_i T_j, for polynomials
    whose radial relations hold.

    With ``rotation`` (two variables) the linear part also carries
    b (x2, -x1).  A curl-free polynomial T is dg (the polynomial Poincare
    lemma), so the split is one ``solve_in_span`` of the 1-form P against
    sum x_i dx_i = d(r^2)/2, then x2 dx1 - x1 dx2, then r^2 d(x^beta) for
    every non-constant beta of degree below deg P; T_i is d_i g.  Every
    candidate has integer coefficients, so integral P give an all-integer
    solve.  The split is unique, because r^2 divides no non-zero linear
    form, and it is re-verified by substitution.
    """
    form, radius = _radial_form(polys)
    chart = form.chart
    linear = [GradedTensor(chart, FORM, 1, {(i,): chart.coordinate_polynomial(i)
                                            for i in range(chart.dimension)})]
    if rotation:
        x1, x2 = map(chart.coordinate_polynomial, (0, 1))
        linear.append(GradedTensor(chart, FORM, 1, {(0,): x2, (1,): -x1}))
    exponents = monomials_up_to(chart.dimension, max(p.total_degree() for p in polys) - 1)[1:]
    gradients = (differential(chart, Polynomial.monomial(chart.coordinates, e)).scale(radius)
                 for e in exponents)
    solution, _ = solve_in_span(chain(linear, gradients), form)
    if solution is None:
        raise InvariantError("decomposition solve failed although the relations hold")
    scalars = list(solution[:len(linear)])
    potential = Polynomial(chart.coordinates, dict(zip(exponents, solution[len(linear):])))
    tilde = differential(chart, potential)
    rebuilt = sum((part.scale(c) for c, part in zip(scalars, linear)), tilde.scale(radius))
    if rebuilt != form or not ext_d(tilde).is_zero():
        raise InvariantError("decomposition re-substitution mismatch")
    return scalars, [tilde.component((i,)) for i in range(chart.dimension)]


@dataclass(frozen=True)
class PairDecomposition:
    applicable: bool
    hypothesis_residual: Polynomial | None
    a: Rational | None = None
    b: Rational | None = None
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
    a: Rational | None = None
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
    n, m = structure.order, structure.chart.dimension
    constant_structure = all(v.is_constant() for v in structure.tensor.components.values())
    if structure.is_top_order:
        _top_degree(structure.top_coefficient(), bound)
    complexes = _Complexes(structure, volume)
    foliated_dims, canonical_dims = [], {}
    for k in range(m + 1):  # foliated k and canonical m - k read d into the k-forms
        if 1 <= k <= n and m - k < n:
            complexes.share(k, bound)
        if k <= n:
            foliated_dims.append(complexes.foliated(k, bound))
        if m - k <= n:
            canonical_dims[m - k] = complexes.canonical(m - k, bound)
    rows = []
    holds = True
    for degree, foliated in enumerate(foliated_dims):
        np_dim: int | None
        if degree == 0:
            np_dim = foliated
        elif structure.is_top_order and degree == 1:
            np_dim = np_h1_top(structure.top_coefficient(), bound).dimension
        elif constant_structure:
            np_dim = foliated
        else:
            np_dim = None
        row = DualityRow(degree, np_dim, foliated, n - degree, canonical_dims[n - degree])
        if row.matches is False:
            holds = False
        rows.append(row)
    return DualityReport(bound, tuple(rows), holds)
