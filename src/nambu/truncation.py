"""Finite-dimensional slices of form and multivector spaces.

A truncated basis is the product of two factors, and it holds the factors,
not the product: the strictly increasing index tuples of one degree, and the
monomials of total degree at most the bound in graded-lex order.  Elements
run index-major, so with M monomials the position of (I, a) is
rank(I) * M + rank(a), and position p is the pair divmod(p, M) names.  This
turns every coefficient-polynomial operator into an exact rational matrix.
Coordinate vectors are ``SparseVector``s of ``algebra``: a map from basis
position to non-zero coefficient, with no stored zeros.  Converting a tensor
to coordinates is strict: it raises when any component falls outside the
basis, so a tensor is never silently clipped to a truncated space.

An operator needs no codomain basis.  Its matrix has one column per domain
element and one row per (component, monomial) label that some image holds,
so every image fits by construction.  Rows are numbered in first-seen order:
each image's labels in turn, as the image lists them.  Rank, pivot columns
and the nullspace basis do not depend on the row order, nor on the all-zero
rows a wider codomain would add.

Operators are assembled from a first-order stencil, not from one image per
basis element.  The contract is that the mapping is linear and of order at
most one in the coefficients: L(g e_I) = g L(e_I) + sum_j (d_j g) s_{I,j},
where the symbol s_{I,j} = L(x_j e_I) - x_j L(e_I).  So the mapping is called
on e_I and on each x_j e_I only, and the column of x^a e_I is x^a L(e_I) +
sum_j a_j x^(a - e_j) s_{I,j}, built by shifting labels and scaling by
integers.  A guard checks the contract on every index: the second difference
L(x_i x_j e_I) - x_i L(x_j e_I) - x_j L(x_i e_I) + x_i x_j L(e_I) must vanish
for all i <= j.  The second difference is function-linear for an operator of
order two, so the guard catches every such operator; a failure is an internal
invariant error (``InvariantError``), never a wrong matrix.  Every mapping in
the package (the bundle map, the wedges with annihilators, d, sharp after
d, f da - df ^ a) has order at most one.

A stencil does not depend on the coefficient bound.  A ``FirstOrderMap``
wraps a mapping and keeps the stencil of each index it is built on, so a
report that builds one map at several bounds calls the mapping, and runs the
guard, once per index.  One ``cohomology._Complexes`` per report shares its
maps so: d on the forms of both complexes and of two bounds, the degree-1
bundle map and the wedges with its annihilators at bound and bound + 1, and
the foliated maps at bound and bound - 1.  ``build`` re-keys the kept stencils
for each domain and still takes a plain callable, which gets a map of its
own.  A report makes its maps and drops them with its answer; nothing is
cached across reports.

Each column lists its terms as the image itself would, because the row order
of a certified solve picks the printed certificate (``solve_in_image``):
component by component, in the order the components first appear in the fill
(the base shifted by x^a, then the symbols for j ascending), and each
component's terms in fill order.  A column's terms are a subsequence of its
index's fill, so where the fill lists each component in one block the fill
order is already that order.  This is decided once per index, when its stencil
is built, and only the other indices' columns are regrouped.  On the bundled
models only f da - df ^ a interleaves, where the base and the symbols of
non-adjacent j share components; sharp after d can on other structures.  An
index of order zero, all symbols zero (the bundle map on forms, a wedge), has
the base shifted as its column, and a shift keeps the image's order.  Sharp
after d has no base, and the image of d(x^a) also runs over j ascending, each
j adding one probe image, shifted.  Where contributions to one term cancel
within a column and it is added again, the image re-lists the term last and
the stencil keeps its place; apart from that the rows, and so the
certificates, come out as from one whole image per basis element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Callable, Iterable, Iterator, TypeVar

from .algebra import (
    ExactMatrix,
    InvariantError,
    Polynomial,
    Rational,
    SparseVector,
    grlex_key,
    transpose,
)
from .exterior import FORM, Chart, GradedTensor, Scalar
from .structures import NambuStructure, sharp

Exponent = tuple[int, ...]
Index = tuple[int, ...]
Label = tuple[Index, Exponent]
Key = TypeVar("Key", int, Label)
Certificate = tuple[tuple[Label, Rational], ...]
# (coefficients, None) for a solvable system, else (None, certificate)
Solution = tuple[tuple[Rational, ...] | None, Certificate | None]


def monomials_up_to(num_vars: int, degree_bound: int) -> list[Exponent]:
    """All exponent tuples of total degree <= bound, in graded-lex order."""
    out: list[Exponent] = []

    def extend(prefix: list[int], budget: int, slots: int):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            prefix.append(d)
            extend(prefix, budget - d, slots - 1)
            prefix.pop()

    extend([], degree_bound, num_vars)
    out.sort(key=grlex_key)
    return out


def _tensor_entries(components: dict[Index, Scalar]) -> Iterable[tuple[Label, Rational]]:
    """The (component, monomial) label and coefficient of every term."""
    for idx, value in components.items():
        if not isinstance(value, Polynomial):
            raise ValueError(f"component {idx} is not a polynomial: {value}")
        for exponent, coeff in value.terms.items():
            yield (idx, exponent), coeff


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered basis of degree-k tensors with coefficient degree <= bound.

    Held as its two factors: ``indices``, the increasing index tuples of the
    degree, and ``monomials``, the exponents of total degree <= bound in
    graded-lex order.  Element p is (indices[i], monomials[j]) with i, j =
    divmod(p, len(monomials)), and the position of (I, a) is
    rank(I) * len(monomials) + rank(a), read off one rank table per factor,
    each built on first use.  No table has one entry per element.
    """

    chart: Chart
    variance: str
    degree: int
    coefficient_bound: int
    indices: tuple[Index, ...]
    monomials: tuple[Exponent, ...]

    @classmethod
    def build(cls, chart: Chart, variance: str, degree: int,
              coefficient_bound: int) -> "TruncatedBasis":
        if not 0 <= degree <= chart.dimension:
            raise ValueError("tensor degree out of range for the chart")
        if coefficient_bound < 0:
            raise ValueError("coefficient bound must be non-negative")
        return cls(chart, variance, degree, coefficient_bound,
                   tuple(itertools.combinations(range(chart.dimension), degree)),
                   tuple(monomials_up_to(chart.dimension, coefficient_bound)))

    def __len__(self) -> int:
        return len(self.indices) * len(self.monomials)

    @cached_property
    def _index_ranks(self) -> dict[Index, int]:
        return {idx: i for i, idx in enumerate(self.indices)}

    @cached_property
    def _monomial_ranks(self) -> dict[Exponent, int]:
        return {mono: i for i, mono in enumerate(self.monomials)}

    def to_coordinates(self, tensor: GradedTensor) -> SparseVector:
        """Coordinate vector of a tensor; raises if it lies outside the basis."""
        if tensor.chart != self.chart or tensor.variance != self.variance:
            raise ValueError("tensor does not match the basis chart/variance")
        if tensor.degree != self.degree and not tensor.is_zero():
            raise ValueError("tensor degree does not match the basis")
        return {self.position(label): coeff
                for label, coeff in _tensor_entries(tensor.components)}

    def position(self, label: Label) -> int:
        """Position of a (component, monomial) label; raises outside the basis."""
        idx, mono = label
        rank = self._index_ranks.get(idx)
        offset = self._monomial_ranks.get(mono)
        if rank is None or offset is None:
            raise ValueError(
                f"component {idx} monomial {mono} exceeds the "
                f"coefficient bound {self.coefficient_bound}")
        return rank * len(self.monomials) + offset

    def from_coordinates(self, vector: SparseVector) -> GradedTensor:
        size = len(self)
        width = len(self.monomials)
        components: dict[Index, dict[Exponent, Rational]] = {}
        for at, coeff in vector.items():
            if not 0 <= at < size:
                raise ValueError(f"coordinate position {at} outside 0..{size - 1}")
            rank, offset = divmod(at, width)
            components.setdefault(self.indices[rank], {})[self.monomials[offset]] = coeff
        return GradedTensor(self.chart, self.variance, self.degree, {
            idx: Polynomial(self.chart.coordinates, terms)
            for idx, terms in components.items()})


def _shift(exponent: Exponent, by: Exponent) -> Exponent:
    return tuple(map(add, exponent, by))


def _digits(exponent: Exponent, radix: int) -> int:
    """The exponent as the integer whose base-``radix`` digit k is its entry k."""
    code = 0
    for e in reversed(exponent):
        code = code * radix + e
    return code


def _accumulate(acc: dict[Label, Rational], entries: dict[Label, Rational],
                by: Exponent, factor: int) -> None:
    """acc += factor * x^by * entries, dropping the entries that cancel."""
    for (idx, exponent), coeff in entries.items():
        label = (idx, _shift(exponent, by))
        value = acc.get(label, 0) + factor * coeff
        if value:
            acc[label] = value
        else:
            acc.pop(label, None)


def _in_blocks(parts: Iterable[dict[Label, Rational]]) -> bool:
    """Whether the labels of the parts, in turn, list each component in one
    contiguous block."""
    left: set[Index] = set()
    current = None
    for part in parts:
        for idx, _ in part:
            if idx != current:
                if idx in left:
                    return False
                left.add(current)
                current = idx
    return True


class _Stencil:
    """L(e_I) and the symbols s_{I,j} of one index, and whether the fill
    (base, then the symbols for j ascending) lists each component in one
    block."""

    __slots__ = ("base", "symbols", "blocked")

    def __init__(self, base: dict[Label, Rational], symbols: list[dict[Label, Rational]]):
        self.base = base
        self.symbols = symbols
        self.blocked = _in_blocks([base, *symbols])


def _first_order_stencil(domain: TruncatedBasis,
                         mapping: Callable[[GradedTensor], GradedTensor], idx: Index,
                         ) -> _Stencil:
    """L(e_I) and the symbols s_{I,j} = L(x_j e_I) - x_j L(e_I), after the
    second-difference guard.  The probes are built directly, so they need not
    lie in the domain (a bound-0 domain holds no x_j e_I)."""
    chart = domain.chart
    m = chart.dimension
    units = [tuple(int(k == j) for k in range(m)) for j in range(m)]

    def image(exponent: Exponent) -> dict[Label, Rational]:
        coeff = Polynomial.monomial(chart.coordinates, exponent)
        probe = GradedTensor(chart, domain.variance, domain.degree, {idx: coeff})
        return dict(_tensor_entries(mapping(probe).components))

    base = image((0,) * m)
    firsts = [image(unit) for unit in units]
    for i in range(m):
        for j in range(i, m):
            both = _shift(units[i], units[j])
            residual = image(both)
            _accumulate(residual, firsts[j], units[i], -1)
            _accumulate(residual, firsts[i], units[j], -1)
            _accumulate(residual, base, both, 1)
            if residual:
                raise InvariantError(
                    f"operator is not of first order on component {idx}: its second "
                    f"difference in {chart.coordinates[i]}, {chart.coordinates[j]} "
                    "is non-zero")
    symbols = []
    for unit, first in zip(units, firsts):
        symbol = dict(first)
        _accumulate(symbol, base, unit, -1)
        symbols.append(symbol)
    return _Stencil(base, symbols)


class FirstOrderMap:
    """A linear mapping of order at most one, with the stencil of each index
    it has been built on (see the module docstring).

    The mapping, and the guard with it, runs on the first build that holds
    an index.  A guard that fails stores nothing, so every later build fails
    the same way.  Calling the map calls the mapping, so a map stands
    wherever a mapping does.
    """

    __slots__ = ("mapping", "_stencils")

    def __init__(self, mapping: Callable[[GradedTensor], GradedTensor]):
        self.mapping = mapping
        self._stencils: dict[tuple[Chart, str, Index], _Stencil] = {}

    def __call__(self, tensor: GradedTensor) -> GradedTensor:
        return self.mapping(tensor)

    def stencil(self, domain: TruncatedBasis, idx: Index) -> _Stencil:
        key = (domain.chart, domain.variance, idx)
        stencil = self._stencils.get(key)
        if stencil is None:
            stencil = self._stencils[key] = _first_order_stencil(domain, self.mapping, idx)
        return stencil


def _stencil_columns(domain: TruncatedBasis, mapping: FirstOrderMap,
                     ) -> tuple[Iterator[Iterable[tuple[int, Rational]]],
                                Callable[[Iterable[int]], tuple[Label, ...]]]:
    """The image of each domain element in turn, assembled from the first-order
    stencil of its index (see the module docstring), and the decoder of its keys.
    The elements come index by index, each over the monomials in order, so the
    stencils are read in step with the domain's indices and the column plans
    in step with its monomials.

    A column is the (key, coefficient) pairs of the image, listed as the
    image lists its terms: the fill (the base shifted by x^a, then a_j
    x^(a - e_j) s_{I,j} for j ascending), regrouped by component in the
    order the components first appear where the index's fill does not list
    each component in one block.  A coefficient may be zero where
    contributions cancel.  A key is the label's index rank, then its
    exponent's digits in a radix that no shift by a domain exponent
    overflows; ``labels`` turns keys back into (component, monomial) labels,
    decoding each exponent once.  The stencils are built, and the guard run,
    before this returns.
    """
    m = domain.chart.dimension
    stencils = [mapping.stencil(domain, idx) for idx in domain.indices]
    fills = [part for stencil in stencils for part in (stencil.base, *stencil.symbols)]
    radix = 1 + max((max(e) for part in fills for _, e in part), default=0) \
        + domain.coefficient_bound
    span = radix ** m
    units = [radix ** j for j in range(m)]
    indices = sorted({idx for part in fills for idx, _ in part})
    rank_of = {idx: r for r, idx in enumerate(indices)}

    def keyed(part: dict[Label, Rational]) -> list[tuple[int, Rational]]:
        return [(rank_of[idx] * span + _digits(e, radix), coeff)
                for (idx, e), coeff in part.items()]

    keyed_stencils = [
        (keyed(stencil.base), [keyed(symbol) for symbol in stencil.symbols], stencil.blocked)
        for stencil in stencils]
    # the code of x^a, then (j, a_j, code of x^(a - e_j)) for each a_j > 0
    plans = []
    for exponent in domain.monomials:
        at = _digits(exponent, radix)
        plans.append((at, [(j, power, at - units[j])
                           for j, power in enumerate(exponent) if power]))

    def columns() -> Iterator[Iterable[tuple[int, Rational]]]:
        for base, symbols, blocked in keyed_stencils:
            for at, steps in plans:
                column = {key + at: coeff for key, coeff in base}
                for j, power, shift in steps:
                    for key, coeff in symbols[j]:
                        key += shift
                        acc = column.get(key)
                        column[key] = power * coeff if acc is None else acc + power * coeff
                if blocked:
                    yield column.items()
                    continue
                parts: dict[int, list[tuple[int, Rational]]] = {}
                for key, coeff in column.items():
                    if not coeff:
                        continue
                    part = parts.get(key // span)
                    if part is None:
                        parts[key // span] = [(key, coeff)]
                    else:
                        part.append((key, coeff))
                yield [pair for part in parts.values() for pair in part]

    def labels(keys: Iterable[int]) -> tuple[Label, ...]:
        decoded: dict[int, Exponent] = {}
        out = []
        for key in keys:
            rank, code = divmod(key, span)
            exponent = decoded.get(code)
            if exponent is None:
                digits = []
                rest = code
                for _ in range(m):
                    rest, digit = divmod(rest, radix)
                    digits.append(digit)
                exponent = decoded[code] = tuple(digits)
            out.append((indices[rank], exponent))
        return tuple(out)

    return columns(), labels


def _numbered_operator(columns: Iterable[Iterable[tuple[Key, Rational]]],
                       labels: Callable[[Iterable[Key]], tuple[Label, ...]],
                       ) -> TruncatedOperator:
    """The operator with these columns, each given as (key, coefficient)
    pairs with distinct keys: one row per key with a non-zero coefficient,
    numbered in first-seen order and filled in column order, and labelled by
    ``labels`` of the keys in that order.  The columns are read once, so a
    generator of them keeps only the rows alive."""
    rows: dict[Key, dict[int, Rational]] = {}
    width = 0
    for column in columns:
        for key, coeff in column:
            if coeff:
                row = rows.get(key)
                if row is None:
                    rows[key] = {width: coeff}
                else:
                    row[width] = coeff
        width += 1
    return TruncatedOperator(labels(rows), ExactMatrix._of_rows(width, list(rows.values())))


@dataclass(frozen=True)
class TruncatedOperator:
    """Exact matrix of a linear first-order map on a truncated basis: column j
    is the image of basis element j, row i holds the coefficients of label
    ``labels[i]``, numbered in first-seen order over the images; no row is
    all zero."""

    labels: tuple[Label, ...]
    matrix: ExactMatrix

    @classmethod
    def build(cls, domain: TruncatedBasis,
              mapping: Callable[[GradedTensor], GradedTensor]) -> "TruncatedOperator":
        """Assemble from the first-order stencil of each index (see the
        module docstring); raises ``InvariantError`` when the guard fails.
        A ``FirstOrderMap`` lends the stencils it already holds, and keeps
        the ones built here."""
        if not isinstance(mapping, FirstOrderMap):
            mapping = FirstOrderMap(mapping)
        return _numbered_operator(*_stencil_columns(domain, mapping))

    def coordinates_in(self, basis: TruncatedBasis) -> list[SparseVector]:
        """The image of each domain element as coordinates in ``basis``: the
        transpose of the matrix.  The images are the engine's own, so one that
        leaves ``basis`` is an ``InvariantError``."""
        try:
            positions = [basis.position(label) for label in self.labels]
        except ValueError as error:
            raise InvariantError(f"an operator image leaves its basis: {error}") from None
        return transpose(zip(positions, self.matrix.row_dicts()), self.matrix.cols)


def _certified_solve(operator: TruncatedOperator, target: dict[Label, Rational]) -> Solution:
    """Solve target = sum c_j column_j of the operator exactly, one equation
    per label: the target's labels first, then the operator's rows in their
    order.  Returns (coefficients, None) when solvable, else (None,
    certificate) with a labelled left-kernel functional, its labels in that
    order, separating the target from the span."""
    rows: dict[Label, dict[int, Rational]] = {label: {} for label in target}
    rows.update(zip(operator.labels, operator.matrix.row_dicts()))
    rhs = [target.get(label, 0) for label in rows]
    solution, certificate = ExactMatrix._of_rows(operator.matrix.cols,
                                                 list(rows.values())).solve(rhs)
    if certificate is None:
        return solution, None
    return None, tuple((label, weight) for label, weight
                       in zip(rows, certificate) if weight != 0)


def solve_in_span(images: Iterable[GradedTensor], target: GradedTensor) -> Solution:
    """Solve target = sum c_i images_i exactly, for polynomial tensors.

    The decomposition lemmas' solve: their images are a few hand-picked
    tensors, not the images of a basis.  The images are read once, so a
    generator of them is never held.  Returns (coefficients, None) when
    solvable, else (None, certificate) with a labelled left-kernel
    functional separating the target from the span.
    """
    operator = _numbered_operator(
        (_tensor_entries(image.components) for image in images), tuple)
    return _certified_solve(operator, dict(_tensor_entries(target.components)))


def solve_in_image(domain: TruncatedBasis, mapping: Callable[[GradedTensor], GradedTensor],
                   target: GradedTensor) -> Solution:
    """Solve target = sum c_j L(domain_j) exactly, for a linear first-order L.

    The certified solves of the modular tensor run here, on the operator of
    L; its rows come in the order that the images list their labels (see the
    module docstring), and no image of a domain element is ever built.  The
    target must be polynomial.
    """
    return _certified_solve(TruncatedOperator.build(domain, mapping),
                            dict(_tensor_entries(target.components)))


def bundle_map(structure: NambuStructure, degree: int) -> FirstOrderMap:
    """The degree-k bundle map, whose stencils one report shares across bounds."""
    return FirstOrderMap(lambda form: sharp(structure, degree, form))


def ker_sharp_basis(structure: NambuStructure, degree: int,
                    degree_bound: int) -> list[GradedTensor]:
    """Exact basis of the bounded-degree kernel of the degree-k bundle map:
    ``_sharp_kernel``'s vectors, converted to forms for tensor arithmetic."""
    if not 0 <= degree <= structure.order:
        raise ValueError(f"form degree out of range 0..{structure.order}")
    domain = TruncatedBasis.build(structure.chart, FORM, degree, degree_bound)
    return [domain.from_coordinates(vector)
            for vector in _sharp_kernel(bundle_map(structure, degree), domain)]


def _sharp_kernel(bundle: FirstOrderMap, domain: TruncatedBasis) -> list[SparseVector]:
    """The nullspace of the bundle map on ``domain``, in its coordinates; only
    callers that do tensor arithmetic on it convert it to forms."""
    return TruncatedOperator.build(domain, bundle).matrix.nullspace()
