"""Graded exterior calculus on a coordinate chart.

Forms and multivector fields share one sparse representation: a map from a
strictly increasing index tuple to a coefficient.  Coefficients are
polynomials; a rational function appears only after dividing by a
non-constant volume coefficient (see ``modular``).  Three kernels loop over
components: ``wedge``, ``_front_contract`` (behind ``contract_form`` and
``interior_form``) and ``ext_d``; every other operator, from the pairing to
both Lie derivatives, is composed from them.  The determinant pairing
<dx^I, e_J> = delta_{I,J} on sorted multi-indices fixes every sign in the
module; both contraction operators are its adjoints,

    <gamma, contract_form(beta, P)>  = <beta ^ gamma, P>
    <interior_form(Q, omega), R>     = <omega, Q ^ R>

with the contracted factor in front.  The single golden identity

    i(dx1 ^ dx2) ((x1^2+x2^2+x3^2) e1^e2^e3) = (x1^2+x2^2+x3^2) e3

pins the whole sign scheme; see tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .algebra import Polynomial, RationalFunction, signed_sum

FORM = "form"
MULTIVECTOR = "mv"

Index = tuple[int, ...]
Scalar = Polynomial | RationalFunction


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: an ordered tuple of distinct coordinate names."""

    coordinates: tuple[str, ...]

    def __post_init__(self):
        if len(self.coordinates) < 1:
            raise ValueError("a chart needs at least one coordinate")
        if len(set(self.coordinates)) != len(self.coordinates):
            raise ValueError("coordinate names must be distinct")

    @classmethod
    def of(cls, names: str | Sequence[str]) -> "Chart":
        parts = tuple(names.split()) if isinstance(names, str) else tuple(names)
        return cls(parts)

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def coordinate_polynomial(self, index: int) -> Polynomial:
        return Polynomial.variable(self.coordinates, index)

    def zero_polynomial(self) -> Polynomial:
        return Polynomial.zero(self.coordinates)

    def scalar(self, value) -> Scalar:
        if isinstance(value, (Polynomial, RationalFunction)):
            return value
        return Polynomial.constant(self.coordinates, value)


def merge_indices(left: Index, right: Index) -> tuple[int, Index] | None:
    """Merge two disjoint sorted index tuples; None when they intersect.

    Returns ``(sign, merged)`` where sign is the parity of the shuffle taking
    the concatenation ``left + right`` to sorted order.
    """
    merged: list[int] = []
    sign = 1
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (nl - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def sort_index(indices: Sequence[int]) -> tuple[int, Index] | None:
    """Sort an index tuple, returning the permutation sign; None on repeats."""
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
    return (-1) ** inversions, tuple(sorted(indices))


class GradedTensor:
    """Degree-k antisymmetric tensor (form or multivector) on a chart.

    Components are stored on strictly increasing index tuples only; zero
    components are never stored, so the zero tensor of any degree is the
    empty map.  Degrees above the chart dimension are representable only for
    the zero tensor (wedge products and exterior derivatives can land there).
    """

    __slots__ = ("chart", "variance", "degree", "components")

    def __init__(self, chart: Chart, variance: str, degree: int,
                 components: dict[Index, Scalar] | None = None):
        if variance not in (FORM, MULTIVECTOR):
            raise ValueError(f"unknown variance {variance!r}")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.chart = chart
        self.variance = variance
        self.degree = degree
        clean: dict[Index, Scalar] = {}
        if components:
            m = chart.dimension
            for raw_index, value in components.items():
                index = tuple(raw_index)
                if len(index) != degree:
                    raise ValueError(f"index {index} has wrong length for degree {degree}")
                if any(not 0 <= i < m for i in index):
                    raise ValueError(f"index {index} out of range for dimension {m}")
                if list(index) != sorted(set(index)):
                    raise ValueError(f"index {index} must be strictly increasing")
                coeff = chart.scalar(value)
                if not coeff.is_zero():
                    clean[index] = coeff
        if degree > chart.dimension and clean:
            raise ValueError("non-zero tensor of degree above the chart dimension")
        self.components = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, variance: str, degree: int) -> "GradedTensor":
        return cls(chart, variance, degree, {})

    @classmethod
    def from_scalar(cls, chart: Chart, variance: str, value) -> "GradedTensor":
        return cls(chart, variance, 0, {(): value})

    @classmethod
    def basis(cls, chart: Chart, variance: str, indices: Sequence[int]) -> "GradedTensor":
        return cls(chart, variance, len(indices), {tuple(indices): 1})

    @classmethod
    def coordinate_differential(cls, chart: Chart, index: int) -> "GradedTensor":
        return cls.basis(chart, FORM, (index,))

    @classmethod
    def coordinate_field(cls, chart: Chart, index: int) -> "GradedTensor":
        return cls.basis(chart, MULTIVECTOR, (index,))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def is_polynomial(self) -> bool:
        return all(isinstance(c, Polynomial) for c in self.components.values())

    def component(self, indices: Sequence[int]) -> Scalar:
        """Component at an arbitrary index tuple, with antisymmetry applied."""
        sorted_ = sort_index(indices)
        if sorted_ is None:
            return self.chart.scalar(0)
        sign, key = sorted_
        value = self.components.get(key)
        if value is None:
            return self.chart.scalar(0)
        return value if sign == 1 else -value

    def scalar_value(self) -> Scalar:
        if self.degree != 0:
            raise ValueError("scalar_value only applies to degree-0 tensors")
        return self.components.get((), self.chart.scalar(0))

    def sorted_components(self) -> list[tuple[Index, Scalar]]:
        return sorted(self.components.items(), key=lambda item: item[0])

    def _check_mate(self, other: "GradedTensor") -> None:
        if self.chart != other.chart:
            raise ValueError("tensors live on different charts")
        if self.variance != other.variance:
            raise ValueError(f"variance mismatch: {self.variance} vs {other.variance}")

    # -- linear operations ---------------------------------------------------

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        self._check_mate(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        out = dict(self.components)
        for index, value in other.components.items():
            acc = out.get(index)
            acc = value if acc is None else acc + value
            if acc.is_zero():
                out.pop(index, None)
            else:
                out[index] = acc
        return _raw(self.chart, self.variance, self.degree, out)

    def __neg__(self) -> "GradedTensor":
        return _raw(self.chart, self.variance, self.degree,
                    {i: -v for i, v in self.components.items()})

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        return self + (-other)

    def scale(self, factor) -> "GradedTensor":
        coeff = self.chart.scalar(factor)
        if coeff.is_zero():
            return GradedTensor.zero(self.chart, self.variance, self.degree)
        return _raw(self.chart, self.variance, self.degree,
                    {i: v * coeff for i, v in self.components.items()})

    def __mul__(self, factor) -> "GradedTensor":
        if isinstance(factor, GradedTensor):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedTensor):
            return NotImplemented
        if self.chart != other.chart or self.variance != other.variance:
            return False
        if self.degree != other.degree:
            return self.is_zero() and other.is_zero()
        if self.components.keys() != other.components.keys():
            return False
        return all(other.components[i] == v for i, v in self.components.items())

    def __hash__(self) -> int:
        return hash((self.chart, self.variance, self.degree,
                     frozenset(self.components.items())))

    def __str__(self) -> str:
        return format_tensor(self)

    def __repr__(self) -> str:
        return f"GradedTensor({self.variance}, deg={self.degree}, {self})"


def _raw(chart: Chart, variance: str, degree: int,
         components: dict[Index, Scalar]) -> GradedTensor:
    """Unchecked constructor for kernel output: sorted indices, no zero values.

    Components above the chart dimension are dropped, since only the zero
    tensor lives there.
    """
    result = GradedTensor.__new__(GradedTensor)
    result.chart, result.variance, result.degree = chart, variance, degree
    result.components = components if degree <= chart.dimension else {}
    return result


def format_tensor(tensor: GradedTensor) -> str:
    """Deterministic rendering in the model-file syntax."""
    if tensor.degree == 0:
        return str(tensor.scalar_value())
    if tensor.is_zero():
        return "0"
    names = tensor.chart.coordinates
    pieces: list[tuple[str, str]] = []
    for index, value in tensor.sorted_components():
        if tensor.variance == FORM:
            basis = "^".join(f"d{names[i]}" for i in index)
        else:
            basis = "^".join(f"@{i + 1}" for i in index)
        sign = "+"
        single_term = isinstance(value, Polynomial) and len(value.terms) == 1
        if single_term and next(iter(value.terms.values())) < 0:
            sign = "-"
            value = -value
        if single_term and value.is_one():
            pieces.append((sign, basis))
            continue
        text = str(value)
        if text.startswith("(") or single_term:
            pieces.append((sign, f"{text} * {basis}"))
        else:
            pieces.append((sign, f"({text}) * {basis}"))
    return signed_sum(pieces)


def wedge(left: GradedTensor, right: GradedTensor) -> GradedTensor:
    """Antisymmetric product; zero tensor when the degree exceeds the chart."""
    left._check_mate(right)
    degree = left.degree + right.degree
    out: dict[Index, Scalar] = {}
    for il, vl in left.components.items():
        for ir, vr in right.components.items():
            merged = merge_indices(il, ir)
            if merged is None:
                continue
            sign, index = merged
            term = vl * vr
            if sign < 0:
                term = -term
            acc = out.get(index)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(index, None)
            else:
                out[index] = acc
    return _raw(left.chart, left.variance, degree, out)


def wedge_all(factors: Iterable[GradedTensor]) -> GradedTensor:
    items = list(factors)
    if not items:
        raise ValueError("empty wedge product")
    acc = items[0]
    for item in items[1:]:
        acc = wedge(acc, item)
    return acc


def pair(form: GradedTensor, field: GradedTensor) -> Scalar:
    """Determinant pairing of a k-form with a k-multivector."""
    if form.degree != field.degree:
        raise ValueError(f"degree mismatch: {form.degree} vs {field.degree}")
    return contract_form(form, field).scalar_value()


def _front_contract(front: GradedTensor, target: GradedTensor) -> dict[Index, Scalar]:
    """Shared kernel of both contractions: result[K] = sum sign(I,K) f[I] t[I u K]."""
    out: dict[Index, Scalar] = {}
    for fi, fv in front.components.items():
        fset = set(fi)
        for ti, tv in target.components.items():
            if not fset.issubset(ti):
                continue
            rest = tuple(i for i in ti if i not in fset)
            merged = merge_indices(fi, rest)
            assert merged is not None
            sign, _ = merged
            term = fv * tv
            if sign < 0:
                term = -term
            acc = out.get(rest)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = acc
    return out


def contract_form(form: GradedTensor, field: GradedTensor) -> GradedTensor:
    """Contraction of a k-form into a p-multivector, giving a (p-k)-vector.

    Adjoint convention: <gamma, contract_form(beta, P)> = <beta ^ gamma, P>.
    """
    if form.variance != FORM or field.variance != MULTIVECTOR:
        raise ValueError("contract_form expects (form, multivector)")
    if form.chart != field.chart:
        raise ValueError("tensors live on different charts")
    if form.degree > field.degree:
        raise ValueError(f"cannot contract a {form.degree}-form into a "
                         f"{field.degree}-multivector")
    return _raw(field.chart, MULTIVECTOR, field.degree - form.degree,
                _front_contract(form, field))


def interior_form(field: GradedTensor, form: GradedTensor) -> GradedTensor:
    """Interior product of a k-multivector into a p-form (front convention).

    Adjoint convention: <interior_form(Q, omega), R> = <omega, Q ^ R>.  For
    vector fields it is the usual i(X).  Degrees k > p give the zero
    (p-k < 0 -> degree-0) tensor.
    """
    if field.variance != MULTIVECTOR or form.variance != FORM:
        raise ValueError("interior_form expects (multivector, form)")
    if field.chart != form.chart:
        raise ValueError("tensors live on different charts")
    if field.degree > form.degree:
        return GradedTensor.zero(form.chart, FORM, 0)
    return _raw(form.chart, FORM, form.degree - field.degree,
                _front_contract(field, form))


def ext_d(form: GradedTensor) -> GradedTensor:
    """Coordinate exterior derivative; d(d(.)) = 0."""
    if form.variance != FORM:
        raise ValueError("the exterior derivative applies to forms only")
    chart = form.chart
    out: dict[Index, Scalar] = {}
    for index, value in form.components.items():
        for j in range(chart.dimension):
            partial = value.diff(j)
            if partial.is_zero():
                continue
            merged = merge_indices((j,), index)
            if merged is None:
                continue
            sign, key = merged
            term = partial if sign > 0 else -partial
            acc = out.get(key)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return _raw(chart, FORM, form.degree + 1, out)


def differential(chart: Chart, scalar: Scalar) -> GradedTensor:
    """d of a scalar function, as a 1-form."""
    value = chart.scalar(scalar)
    return ext_d(GradedTensor.from_scalar(chart, FORM, value))


def apply_vector(field: GradedTensor, scalar) -> Scalar:
    """Directional derivative X(f) of a scalar along a vector field."""
    if field.variance != MULTIVECTOR or field.degree != 1:
        raise ValueError("apply_vector expects a vector field")
    return pair(differential(field.chart, scalar), field)


def lie_form(field: GradedTensor, form: GradedTensor) -> GradedTensor:
    """Lie derivative of a form along a vector field (Cartan formula)."""
    if field.variance != MULTIVECTOR or field.degree != 1:
        raise ValueError("lie_form expects a degree-1 multivector")
    if form.variance != FORM:
        raise ValueError("lie_form expects a form as second argument")
    return ext_d(interior_form(field, form)) + interior_form(field, ext_d(form))


def lie_mv_of(tensor: GradedTensor) -> Callable[[GradedTensor], GradedTensor]:
    """The Lie derivative X -> L_X P of one multivector P along vector fields.

    L_X P = sum_I X(P^I) e_I - sum_j (d_j X) ^ i(dx^j) P, where d_j X is the
    field of j-th partials of the components of X; on degree 1 it reduces to
    the commutator of vector fields.  The parts that depend on P alone, d of
    each component P^I and each non-zero slice i(dx^j) P, are made here once,
    so each field costs only its pairings, partials and wedges.
    """
    if tensor.variance != MULTIVECTOR:
        raise ValueError("lie_mv expects a multivector as second argument")
    chart = tensor.chart
    gradients = [(index, differential(chart, value))
                 for index, value in tensor.components.items()]
    slices = []
    if tensor.degree:
        for j in range(chart.dimension):
            piece = contract_form(GradedTensor.coordinate_differential(chart, j), tensor)
            if not piece.is_zero():
                slices.append((j, piece))

    def along(field: GradedTensor) -> GradedTensor:
        if field.variance != MULTIVECTOR or field.degree != 1:
            raise ValueError("lie_mv expects a degree-1 multivector as first argument")
        if field.chart != chart:
            raise ValueError("tensors live on different charts")
        transported = {}
        for index, gradient in gradients:
            value = pair(gradient, field)
            if not value.is_zero():
                transported[index] = value
        out = _raw(chart, MULTIVECTOR, tensor.degree, transported)
        for j, piece in slices:
            partial = {}
            for index, value in field.components.items():
                derivative = value.diff(j)
                if not derivative.is_zero():
                    partial[index] = derivative
            if partial:
                out = out - wedge(_raw(chart, MULTIVECTOR, 1, partial), piece)
        return out

    return along


def lie_mv(field: GradedTensor, tensor: GradedTensor) -> GradedTensor:
    """Lie derivative L_X P of a multivector along a vector field: ``lie_mv_of``
    applied once.  To apply it to many fields, hold ``lie_mv_of(P)``."""
    return lie_mv_of(tensor)(field)
