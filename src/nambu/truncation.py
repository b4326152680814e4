"""Finite-dimensional slices of form and multivector spaces.

A truncated basis is the product of two factors, and it holds the factors,
not the product: the strictly increasing index tuples of one degree, and the
monomials of total degree at most the bound in graded-lex order.  Elements
run index-major, so with M monomials the position of (I, a) is rank(I) * M +
rank(a).  Coordinate vectors are ``SparseVector``s of ``algebra``.
Converting a tensor to coordinates is strict: it raises when any component
falls outside the basis, so a tensor is never silently clipped.

An operator needs no codomain basis.  Its matrix has one column per domain
element and one row per (component, monomial) label that some image holds,
numbered in first-seen order over the images.  Rank, pivot columns and the
nullspace do not depend on the row order; a certified solve's certificate
does.

Operators are assembled from a first-order stencil, not from one image per
basis element.  The contract is that the mapping is linear and of order at
most one: L(g e_I) = g L(e_I) + sum_j (d_j g) s_{I,j}, with the symbol
s_{I,j} = L(x_j e_I) - x_j L(e_I).  So the mapping runs on e_I and each x_j
e_I only, and the column of x^a e_I is x^a L(e_I) + sum_j a_j x^(a - e_j)
s_{I,j}.  A guard checks that the second difference L(x_i x_j e_I) - x_i
L(x_j e_I) - x_j L(x_i e_I) + x_i x_j L(e_I) vanishes for all i <= j.  It is
function-linear for an operator of order two, so a failure is an
``InvariantError``, never a wrong matrix.  A stencil of order zero, all
symbols empty (the bundle map, a wedge), gives each column as its base,
shifted.  A ``FirstOrderMap`` keeps the stencil of each index, which does
not depend on the bound, so one ``cohomology._Complexes`` runs each mapping
and its guard once per index for its report, and no longer.

Sharp after d is composed, not probed: its stencil is sharp applied term by
term to d's, x^e e_J -> x^e sharp(e_J), off the bundle map's stencils.
That is exact only where the outer map is function-linear, so an outer
stencil with a symbol is an ``InvariantError``; d's guard and sharp's still
run on their own probes.

Rows are keyed by integers from the stencil to the solve.  The key of (I, a)
is rank(I) * span + the digits of a in a radix that no shift by a domain
exponent overflows, with span = radix ** m.  ``labels`` is decoded only when
read; ``coordinates_in`` takes divmod and one rank table per factor.  A
certified solve encodes its target's labels, a label that no row can hold
being its own key, and decodes only the certificate.  ``solve_in_span``
keys its rows by the labels themselves.

Each column lists its terms as the image would, because the row order picks
the printed certificate: by component, in the order the components first
appear in the fill (the shifted base, then the symbols for j ascending),
each component's terms in fill order.  Only the columns of an index whose
fill does not list each component in one block, decided once per index, are
regrouped.  Where contributions to one term cancel within a column and it is
added again, the image re-lists the term last and the stencil keeps its
place; apart from that the rows come out as from one image per element.
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
    """All exponent tuples of total degree <= bound, in graded-lex order,
    built one variable at a time with no sort: in lex order, the tuples of
    degree t in k + 1 variables are (a, *rest) for a ascending, rest over
    those of degree t - a in k variables."""
    layers = [[()]] + [[] for _ in range(degree_bound)]
    for _ in range(num_vars):
        layers = [[(a,) + rest for a in range(t + 1) for rest in layers[t - a]]
                  for t in range(degree_bound + 1)]
    return [exponent for layer in layers for exponent in layer]


def _tensor_entries(components: dict[Index, Scalar]) -> Iterable[tuple[Label, Rational]]:
    """The (component, monomial) label and coefficient of every term."""
    for idx, value in components.items():
        if not isinstance(value, Polynomial):
            raise ValueError(f"component {idx} is not a polynomial: {value}")
        for exponent, coeff in value.terms.items():
            yield (idx, exponent), coeff


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered basis of degree-k tensors with coefficient degree <= bound,
    held as its two factors (see the module docstring).  Element p is
    (indices[i], monomials[j]) with i, j = divmod(p, len(monomials)); a
    position is read off one rank table per factor, each built on first use.
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
    an index; a guard that fails stores nothing.  Calling the map calls the
    mapping, so a map stands wherever a mapping does.  A ``composed`` map
    probes nothing itself.
    """

    __slots__ = ("mapping", "_stencils", "_parts")

    def __init__(self, mapping: Callable[[GradedTensor], GradedTensor],
                 parts: tuple[FirstOrderMap, FirstOrderMap] | None = None):
        self.mapping = mapping
        self._parts = parts
        self._stencils: dict[tuple[Chart, str, Index], _Stencil] = {}

    def __call__(self, tensor: GradedTensor) -> GradedTensor:
        return self.mapping(tensor)

    def stencil(self, domain: TruncatedBasis, idx: Index) -> _Stencil:
        key = (domain.chart, domain.variance, idx)
        stencil = self._stencils.get(key)
        if stencil is None:
            stencil = self._stencils[key] = _composed_stencil(domain, *self._parts, idx) \
                if self._parts else _first_order_stencil(domain, self.mapping, idx)
        return stencil


def composed(outer: FirstOrderMap, inner: FirstOrderMap) -> FirstOrderMap:
    """outer after inner, for a function-linear outer map on the inner map's
    variance, built from both maps' stencils."""
    return FirstOrderMap(lambda tensor: outer(inner(tensor)), (outer, inner))


def _composed_stencil(domain: TruncatedBasis, outer: FirstOrderMap, inner: FirstOrderMap,
                      idx: Index) -> _Stencil:
    """The inner stencil with x^e e_J mapped to outer(e_J), shifted by e."""
    stencil = inner.stencil(domain, idx)
    parts = []
    for part in (stencil.base, *stencil.symbols):
        acc: dict[Label, Rational] = {}
        for (at, exponent), coeff in part.items():
            image = outer.stencil(
                TruncatedBasis.build(domain.chart, domain.variance, len(at), 0), at)
            if any(image.symbols):
                raise InvariantError("the outer map of a composition is not "
                                     f"function-linear on component {at}")
            _accumulate(acc, image.base, exponent, coeff)
        parts.append(acc)
    return _Stencil(parts[0], parts[1:])


class _Keys:
    """The integer row keys of an operator (see the module docstring)."""

    __slots__ = ("indices", "radix", "m", "span", "_ranks")

    def __init__(self, indices: list[Index], radix: int, m: int):
        self.indices, self.radix, self.m, self.span = indices, radix, m, radix ** m
        self._ranks = {idx: r for r, idx in enumerate(indices)}

    def key(self, label: Label) -> int | Label:
        """The key of a label; one that no row can hold is its own key."""
        idx, exponent = label
        rank = self._ranks.get(idx)
        if rank is None or max(exponent, default=0) >= self.radix:
            return label
        return rank * self.span + _digits(exponent, self.radix)

    def label(self, key: int) -> Label:
        rank, code = divmod(key, self.span)
        digits = []
        for _ in range(self.m):
            code, digit = divmod(code, self.radix)
            digits.append(digit)
        return self.indices[rank], tuple(digits)


class _Labelled:
    """The row keys of ``solve_in_span``: each label is its own key."""

    key = label = staticmethod(lambda label: label)


def _stencil_columns(domain: TruncatedBasis, mapping: FirstOrderMap,
                     ) -> tuple[Iterator[Iterable[tuple[int, Rational]]], _Keys]:
    """The image of each domain element in turn, as (key, coefficient) pairs
    listed as the module docstring says, and their key space.  A coefficient
    may be zero where contributions cancel.  The stencils are built, and the
    guard run, before this returns.
    """
    m = domain.chart.dimension
    stencils = [mapping.stencil(domain, idx) for idx in domain.indices]
    fills = [part for stencil in stencils for part in (stencil.base, *stencil.symbols)]
    radix = 1 + max((max(e) for part in fills for _, e in part), default=0) \
        + domain.coefficient_bound
    space = _Keys(sorted({idx for part in fills for idx, _ in part}), radix, m)
    span, units = space.span, [radix ** j for j in range(m)]

    def keyed(part: dict[Label, Rational]) -> list[tuple[int, Rational]]:
        return [(space.key(label), coeff) for label, coeff in part.items()]

    keyed_stencils = [(keyed(stencil.base), list(map(keyed, stencil.symbols)),
                       stencil.blocked) for stencil in stencils]
    # the code of x^a, then (j, a_j, code of x^(a - e_j)) for each a_j > 0
    plans = []
    for exponent in domain.monomials:
        at = _digits(exponent, radix)
        plans.append((at, [(j, power, at - units[j])
                           for j, power in enumerate(exponent) if power]))

    def columns() -> Iterator[Iterable[tuple[int, Rational]]]:
        for base, symbols, blocked in keyed_stencils:
            if blocked and not any(symbols):  # order 0: the base, shifted
                for at, _ in plans:
                    yield [(key + at, coeff) for key, coeff in base]
                continue
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

    return columns(), space


def _numbered_operator(columns: Iterable[Iterable[tuple[Key, Rational]]],
                       space: _Keys | type[_Labelled]) -> TruncatedOperator:
    """The operator with these columns of (key, coefficient) pairs, distinct
    keys of ``space``: one row per key with a non-zero coefficient, numbered
    in first-seen order and filled in column order.  The columns are read
    once, so a generator of them keeps only the rows alive."""
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
    return TruncatedOperator(tuple(rows), ExactMatrix._of_rows(width, list(rows.values())),
                             space)


@dataclass(frozen=True)
class TruncatedOperator:
    """Exact matrix of a linear first-order map on a truncated basis: column j
    is the image of basis element j, row i holds the coefficients of the label
    that ``space`` keys ``keys[i]``, numbered in first-seen order over the
    images; no row is all zero."""

    keys: tuple[Key, ...]
    matrix: ExactMatrix
    space: _Keys | type[_Labelled]

    @classmethod
    def build(cls, domain: TruncatedBasis,
              mapping: Callable[[GradedTensor], GradedTensor]) -> "TruncatedOperator":
        """Assemble from the stencil of each index; raises ``InvariantError``
        when the guard fails.  A ``FirstOrderMap`` lends the stencils it
        holds, and keeps the ones built here."""
        if not isinstance(mapping, FirstOrderMap):
            mapping = FirstOrderMap(mapping)
        return _numbered_operator(*_stencil_columns(domain, mapping))

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        """The (component, monomial) label of each row, decoded on first read."""
        return tuple(map(self.space.label, self.keys))

    def coordinates_in(self, basis: TruncatedBasis) -> list[SparseVector]:
        """The image of each domain element as coordinates in ``basis``: the
        transpose of the matrix, each key placed by its divmod by the span and
        one rank table per factor.  The images are the engine's own, so one
        that leaves ``basis`` is an ``InvariantError``."""
        space, width = self.space, len(basis.monomials)
        ranks = [basis._index_ranks.get(idx) for idx in space.indices]
        offsets = {_digits(a, space.radix): r for r, a in enumerate(basis.monomials)
                   if basis.coefficient_bound < space.radix or max(a) < space.radix}
        positions = []
        for key in self.keys:
            rank, code = divmod(key, space.span)
            at, offset = ranks[rank], offsets.get(code)
            if at is None or offset is None:
                try:
                    basis.position(space.label(key))
                except ValueError as error:
                    raise InvariantError(f"an operator image leaves its basis: {error}") \
                        from None
            positions.append(at * width + offset)
        return transpose(zip(positions, self.matrix.row_dicts()), self.matrix.cols)


def _certified_solve(operator: TruncatedOperator, target: dict[Label, Rational]) -> Solution:
    """Solve target = sum c_j column_j of the operator exactly, one equation
    per label: the target's labels first, then the operator's rows in their
    order, each keyed in the operator's key space.  Returns (coefficients,
    None) when solvable, else (None, certificate) with a labelled left-kernel
    functional, its labels in that order, separating the target from the
    span."""
    space = operator.space
    labels = {space.key(label): label for label in target}
    rows: dict[Key, dict[int, Rational]] = {key: {} for key in labels}
    rows.update(zip(operator.keys, operator.matrix.row_dicts()))
    rhs = [target.get(labels.get(key), 0) for key in rows]
    solution, certificate = ExactMatrix._of_rows(operator.matrix.cols,
                                                 list(rows.values())).solve(rhs)
    if certificate is None:
        return solution, None
    return None, tuple((labels[key] if key in labels else space.label(key), weight)
                       for key, weight in zip(rows, certificate) if weight != 0)


def solve_in_span(images: Iterable[GradedTensor], target: GradedTensor) -> Solution:
    """Solve target = sum c_i images_i exactly, for polynomial tensors: the
    decomposition lemmas' few hand-picked images, read once, so a generator
    of them is never held.  Returns as ``_certified_solve``."""
    operator = _numbered_operator(
        (_tensor_entries(image.components) for image in images), _Labelled)
    return _certified_solve(operator, dict(_tensor_entries(target.components)))


def solve_in_image(domain: TruncatedBasis, mapping: Callable[[GradedTensor], GradedTensor],
                   target: GradedTensor) -> Solution:
    """Solve target = sum c_j L(domain_j) exactly, for a linear first-order L
    and a polynomial target, on the operator of L: the certified solves of
    the modular tensor.  No image of a domain element is ever built."""
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
