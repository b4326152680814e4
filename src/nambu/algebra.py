"""Exact multivariate polynomial, rational-function and linear algebra over Q.

A polynomial is a sparse map from exponent tuples to exact rational
coefficients; the zero polynomial is the empty map.  A coefficient is an
``int`` when it is integral and a ``Fraction`` when it is not: construction
and ``_quotient``, the one coefficient division, turn an integral
``Fraction`` into its int.  Ints are closed under ``+``, ``-`` and ``*``, so
integral inputs stay in ints through every product, operator column and
elimination.  ``Fraction`` arithmetic may leave an integral ``Fraction``,
which equals and hashes as its int.  Everything here is exact: no floating
point enters any computation, so kernel dimensions and identity checks are
trustworthy.  The canonical term order is graded lexicographic (total degree
first, then the exponent tuple), which fixes serialization and report output.
The one way out to floats is ``compile_float``, which lowers a polynomial
once into nested Horner steps for the numeric flow check.  It lowers
polynomials only: structures and model scalars are polynomial, and so is
every function that a flow evaluates.

Tensor coefficients are polynomials.  ``p / q`` is the polynomial quotient
whenever q divides p, and a ``RationalFunction`` only when it does not, which
in practice means dividing by a non-constant volume coefficient.  Rational
functions are reduced pairs of polynomials.  Reduction cancels the rational
content, common monomial factors and exact polynomial divisors; full
multivariate GCD reduction is deliberately not attempted, because equality
is decided by cross-multiplication and is therefore independent of the
chosen representative.

The matrix layer has one elimination, ``ExactMatrix._echelon``.  It runs
forward only and fraction-free: rows are cleared to integers, each update
is ``(p/g)*row - (f/g)*pivot`` followed by gcd content removal, and a
column -> rows index finds the rows to update.  The pivot row of each column
is the first row in the current order that holds it, swapped into place as
Gauss-Jordan swaps it, so the pivot rows and the order of the leftover rows
are those of Gauss-Jordan.  ``rank`` and ``pivot_columns`` stop there.
``solve`` eliminates ``[A | b]``, with b as one more column.  A feasible
``solve`` and ``nullspace`` both back-substitute with ``_back_substitute``
before they read the exact quotients off.  The kernel basis with free slots set
to 1/0 and the solution with free variables zero are unique, and so is the
infeasibility certificate (a left-kernel row ``y`` with ``y*A = 0`` and
``y*b != 0``) of the row that b's column pivots on, the first inconsistent
leftover row, because it is the only left-kernel vector supported on the
pivot rows and that row with a 1 there.  No row carries that transform
through the elimination: ``solve`` finds its weights on the pivot rows with
one elimination of the transposed system, and checks the certificate on the
given rows before returning it.  So every answer is the one Gauss-Jordan
gives.  A column or coordinate vector is a ``SparseVector``: a map from
position to its non-zero exact coefficient; zeros are never stored.
Nullspace bases are returned in this format.  Three helpers do all sparse
vector work: ``clear_denominators`` scales a vector to ints, ``transpose``
turns keyed vectors into vectors by position, and ``weighted_sums`` sums
combinations, so a matrix times vectors is the weighted sums of its rows
over the vectors' transpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

Exponent = tuple[int, ...]

Rational = int | Fraction

SparseVector = dict[int, Rational]

FloatFunction = Callable[[Sequence[float]], float]


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug in the engine, not bad input."""


def _exact(value: Rational) -> Rational:
    """The value as an ``int`` when it is integral, else as a ``Fraction``.

    A ``bool`` becomes the plain int it equals, so it never prints as
    ``True``; a float is never exact and raises ``TypeError``.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _quotient(a: Rational, b: Rational) -> Rational:
    """``a / b`` exactly: an ``int`` when the quotient is integral, else a
    ``Fraction``.  Every coefficient division goes through here, since ``/``
    on two ints gives a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Sort key of a monomial in graded lexicographic order."""
    return (sum(exponent), exponent)


def signed_sum(pieces: list[tuple[str, str]]) -> str:
    """``a - b + c`` from its (sign, body) terms, with no sign before a
    leading "+" term."""
    text = " ".join(f"{sign} {body}" for sign, body in pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients: an
    ``int`` when integral, else a ``Fraction``.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values may be shared freely between threads.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[Exponent, Rational] | None = None):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.variables = names
        clean: dict[Exponent, Rational] = {}
        if terms:
            m = len(names)
            for exponent, coeff in terms.items():
                if len(exponent) != m:
                    raise ValueError(f"exponent {exponent} has wrong length for {m} variables")
                c = _exact(coeff)
                if c:
                    clean[tuple(exponent)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Rational) -> "Polynomial":
        c = _exact(value)
        if not c:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "Polynomial":
        names = tuple(variables)
        if not 0 <= index < len(names):
            raise IndexError(f"variable index {index} out of range for {len(names)} variables")
        exponent = [0] * len(names)
        exponent[index] = 1
        return cls(names, {tuple(exponent): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponent: Exponent,
                 coeff: Rational = 1) -> "Polynomial":
        return cls(variables, {tuple(exponent): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        exponent, coeff = next(iter(self.terms.items()))
        return not any(exponent) and coeff == 1

    def constant_value(self) -> Rational:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable lists differ: {self.variables} vs {other.variables}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for exponent, coeff in rhs.terms.items():
            acc = out.get(exponent, 0) + coeff
            if acc == 0:
                out.pop(exponent, None)
            else:
                out[exponent] = acc
        result = Polynomial.__new__(Polynomial)
        result.variables = self.variables
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result.variables = self.variables
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Exponent, Rational] = {}
        for ea, ca in self.terms.items():
            for eb, cb in rhs.terms.items():
                exponent = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(exponent, 0) + ca * cb
                if acc == 0:
                    out.pop(exponent, None)
                else:
                    out[exponent] = acc
        result = Polynomial.__new__(Polynomial)
        result.variables = self.variables
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.variables, 1)
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other) -> "Polynomial | RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _divide(self, rhs)

    def __rtruediv__(self, other) -> "Polynomial | RationalFunction":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return _divide(lhs, self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its value as a number, so it hashes as that number
        if self.is_constant():
            return hash(self.terms.get((0,) * len(self.variables), 0))
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus and evaluation -------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < len(self.variables):
            raise IndexError(f"variable index {index} out of range")
        out: dict[Exponent, Rational] = {}
        for exponent, coeff in self.terms.items():
            k = exponent[index]
            if k == 0:
                continue
            lowered = list(exponent)
            lowered[index] = k - 1
            out[tuple(lowered)] = coeff * k
        return Polynomial(self.variables, out)

    def compile_float(self) -> FloatFunction:
        """Lower to a float function of a point, for evaluation at many points.

        The term order, grouping and float coefficients are fixed here once.
        The returned function only indexes the point, so it does not check
        its length.
        """
        if not self.terms:
            return lambda point: 0.0
        return _horner_plan(self.sorted_terms(), 0)

    def sorted_terms(self) -> list[tuple[Exponent, Rational]]:
        """Terms in ascending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def divides_exactly(self, numerator: "Polynomial") -> "Polynomial | None":
        """Return ``numerator / self`` when the division is exact, else None."""
        if self.is_zero():
            return None
        if numerator.is_zero():
            return Polynomial.zero(self.variables)
        if self.is_constant():
            k = self.constant_value()
            # descending grlex, the order long division finds the terms in
            return Polynomial(self.variables,
                              {e: _quotient(c, k) for e, c in reversed(numerator.sorted_terms())})
        lead_e, lead_c = max(self.terms.items(), key=lambda item: grlex_key(item[0]))
        quotient: dict[Exponent, Rational] = {}
        rest = numerator
        while not rest.is_zero():
            top_e, top_c = max(rest.terms.items(), key=lambda item: grlex_key(item[0]))
            diff = tuple(a - b for a, b in zip(top_e, lead_e))
            if any(d < 0 for d in diff):
                return None
            quotient[diff] = c = _quotient(top_c, lead_c)
            rest = rest - Polynomial.monomial(self.variables, diff, c) * self
        return Polynomial(self.variables, quotient)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[tuple[str, str]] = []
        for exponent, coeff in sorted(self.terms.items(),
                                      key=lambda item: grlex_key(item[0]), reverse=True):
            factors = []
            for name, e in zip(self.variables, exponent):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}**{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        return signed_sum(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _horner_plan(terms: list[tuple[Exponent, Rational]], axis: int) -> FloatFunction:
    """Compile non-empty grlex-sorted terms into nested Horner steps, one
    variable per level from ``axis`` on.

    The terms are grouped by their power of the variable, highest first, and
    each group's cofactor is compiled on the next variable.  A variable that
    no term holds is skipped, and ``x ** 1`` is ``x``: multiplying by
    ``x ** 0 == 1.0`` or taking ``x ** 1`` is exact, so skipping either
    changes no bit.  A power ``x ** k`` that overflows raises
    ``OverflowError`` at evaluation.
    """
    m = len(terms[0][0])
    while axis < m and all(exponent[axis] == 0 for exponent, _ in terms):
        axis += 1
    if axis == m:
        value = float(terms[0][1])  # every exponent is fixed: a single term
        return lambda point: value
    groups: dict[int, list[tuple[Exponent, Rational]]] = {}
    for exponent, coeff in terms:
        groups.setdefault(exponent[axis], []).append((exponent, coeff))
    powers = sorted(groups, reverse=True)
    head = _horner_plan(groups[powers[0]], axis + 1)
    last = powers[-1]
    if len(powers) == 1:
        if last == 1:
            return lambda point: head(point) * point[axis]
        return lambda point: head(point) * point[axis] ** last
    steps = tuple((prev - power, _horner_plan(groups[power], axis + 1))
                  for prev, power in zip(powers, powers[1:]))

    def horner(point: Sequence[float]) -> float:
        x = point[axis]
        acc = head(point)
        for gap, cofactor in steps:
            acc = acc * x ** gap + cofactor(point)
        return acc * x ** last if last else acc

    return horner


def variables(names: str | Sequence[str]) -> tuple[Polynomial, ...]:
    """Convenience: build the coordinate polynomials for a space-separated list."""
    parts = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(Polynomial.variable(parts, i) for i in range(len(parts)))


class RationalFunction:
    """Quotient of two polynomials over the same variables.

    The representation is normalized so that the denominator is never zero,
    has positive leading (graded-lex) coefficient, and shares no rational
    content or monomial factor with the numerator.  If the denominator divides
    the numerator exactly the quotient is stored with denominator one; the
    arithmetic below returns that quotient as a ``Polynomial`` instead.
    Equality is decided by cross-multiplication, so callers never depend on
    the representative being fully reduced.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial | None = None):
        if denominator is None:
            denominator = Polynomial.constant(numerator.variables, 1)
        if numerator.variables != denominator.variables:
            raise ValueError("numerator and denominator use different variables")
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        exact = denominator.divides_exactly(numerator)
        if exact is not None:
            self.numerator, self.denominator = exact, Polynomial.constant(exact.variables, 1)
        else:
            self.numerator, self.denominator = _reduce_fraction(numerator, denominator)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.numerator.variables

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def _parts(self, other) -> tuple[Polynomial, Polynomial] | None:
        if isinstance(other, RationalFunction):
            return other.numerator, other.denominator
        poly = self.numerator._coerce(other)
        if poly is None:
            return None
        return poly, Polynomial.constant(self.variables, 1)

    def __add__(self, other) -> "Polynomial | RationalFunction":
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        num, den = rhs
        return _divide(self.numerator * den + num * self.denominator, self.denominator * den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        out = RationalFunction.__new__(RationalFunction)
        out.numerator = -self.numerator
        out.denominator = self.denominator
        return out

    def __sub__(self, other) -> "Polynomial | RationalFunction":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial | RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial | RationalFunction":
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        num, den = rhs
        return _divide(self.numerator * num, self.denominator * den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial | RationalFunction":
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        num, den = rhs
        return _divide(self.numerator * den, self.denominator * num)

    def __rtruediv__(self, other) -> "Polynomial | RationalFunction":
        lhs = self._parts(other)
        if lhs is None:
            return NotImplemented
        num, den = lhs
        return _divide(num * self.denominator, den * self.numerator)

    def __eq__(self, other) -> bool:
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        num, den = rhs
        return self.numerator * den == num * self.denominator

    def __hash__(self) -> int:
        # Equal values share the leading term of numerator / denominator, and
        # a polynomial value is stored over 1 and hashes as that polynomial.
        if self.denominator.is_one():
            return hash(self.numerator)
        (top_e, top_c), (low_e, low_c) = (
            max(p.terms.items(), key=lambda item: grlex_key(item[0]))
            for p in (self.numerator, self.denominator))
        return hash((self.variables, tuple(a - b for a, b in zip(top_e, low_e)),
                     _quotient(top_c, low_c)))

    def diff(self, index: int) -> "Polynomial | RationalFunction":
        return _divide(
            self.numerator.diff(index) * self.denominator
            - self.numerator * self.denominator.diff(index),
            self.denominator * self.denominator)

    def __str__(self) -> str:
        return f"({self.numerator})/({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _divide(numerator: Polynomial, denominator: Polynomial) -> "Polynomial | RationalFunction":
    """``numerator / denominator``: the polynomial quotient when the division
    is exact, otherwise a reduced RationalFunction."""
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    exact = denominator.divides_exactly(numerator)
    if exact is not None:
        return exact
    result = RationalFunction.__new__(RationalFunction)
    result.numerator, result.denominator = _reduce_fraction(numerator, denominator)
    return result


def _reduce_fraction(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Normal form of an inexact quotient: common monomial factor removed and
    the denominator's leading (graded-lex) coefficient made 1."""
    m = len(num.variables)
    shift = tuple(
        min(min(e[i] for e in num.terms), min(e[i] for e in den.terms)) for i in range(m))
    if any(shift):
        num = Polynomial(num.variables, {tuple(a - s for a, s in zip(e, shift)): c
                                         for e, c in num.terms.items()})
        den = Polynomial(den.variables, {tuple(a - s for a, s in zip(e, shift)): c
                                         for e, c in den.terms.items()})
    lead = max(den.terms.items(), key=lambda item: grlex_key(item[0]))[1]
    if lead != 1:
        inv = _quotient(1, lead)
        num = num * inv
        den = den * inv
    return num, den


def clear_denominators(vector: SparseVector) -> dict[int, int]:
    """The vector scaled by the lcm of its denominators, so every entry is an
    int; a vector of ints is returned itself, not a copy."""
    if all(type(v) is int for v in vector.values()):
        return vector
    scale = lcm(*(v.denominator for v in vector.values()))
    return {j: v.numerator * (scale // v.denominator) for j, v in vector.items()}


def transpose(keyed_vectors: Iterable[tuple[int, SparseVector]], size: int) -> list[SparseVector]:
    """``size`` vectors, the i-th holding entry i of each vector at its key;
    a position outside 0..size-1 raises ``ValueError``."""
    vectors: list[SparseVector] = [{} for _ in range(size)]
    for key, vector in keyed_vectors:
        if vector and not (0 <= min(vector) and max(vector) < size):
            raise ValueError(f"row index outside 0..{size - 1}")
        for i, v in vector.items():
            vectors[i][key] = v
    return vectors


def weighted_sums(weights: Iterable[SparseVector], vectors: Sequence[SparseVector],
                  ) -> Iterator[SparseVector]:
    """sum_i w_i vectors[i] for each weight vector w, without the entries that cancel."""
    for weight in weights:
        total: SparseVector = {}
        for i, w in weight.items():
            for j, v in vectors[i].items():
                total[j] = total.get(j, 0) + w * v
        yield {j: v for j, v in total.items() if v}


class ExactMatrix:
    """Sparse exact rational matrix with row-dict storage.

    The matrix owns the row dicts it is given: callers hand them over and do
    not change them afterwards.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int,
                 row_dicts: list[dict[int, Rational]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        if row_dicts is None:
            self._rows = [{} for _ in range(rows)]
        else:
            if len(row_dicts) != rows:
                raise ValueError("row count mismatch")
            for row in row_dicts:
                if row and not (0 <= min(row) and max(row) < cols):
                    raise ValueError(f"column index outside 0..{cols - 1}")
            self._rows = row_dicts

    @classmethod
    def _of_rows(cls, cols: int, row_dicts: list[dict[int, Rational]]) -> "ExactMatrix":
        """The matrix over rows whose keys are already known to lie in
        0..cols-1, such as an operator's own rows; they are not checked again."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix._rows = len(row_dicts), cols, row_dicts
        return matrix

    def _echelon(self) -> tuple[list[int], list[int], list[dict[int, int]]]:
        """Forward, fraction-free elimination in the row order of Gauss-Jordan.

        Each row is scaled to integers by ``clear_denominators``; a row
        of ints, the common case, is copied as it is.  The columns are taken
        left to right.  The pivot row of a column is the first row in the
        current order that holds it, swapped into the next echelon position.
        Every other row that holds the column becomes ``(p/g)*row -
        (f/g)*pivot``, where ``p`` is the pivot entry, ``f`` the row's entry
        and ``g = gcd(p, f)``, and then loses its integer content.  A column
        -> rows index over the rows that are not pivots yet finds those rows
        without a scan over the others.  Pivot rows are
        never changed again: there is no back-elimination.  A row that is
        not a pivot stays a non-zero multiple of the row Gauss-Jordan holds
        at its position, so both pick the same pivot rows and leave the same
        rows over, in the same order.  Only pivot rows are subtracted, and a
        pivot row is subtracted only from rows below it, so each row is a
        combination of the given row at its index and of earlier pivot rows.

        Returns ``(pivots, order, rows)``: the ascending pivot columns; the
        original index of the row at each echelon position, pivot rows first
        and the leftover rows after them; and the integer rows by original
        index.
        """
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
                g = gcd(p, f)
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

    def pivot_columns(self) -> list[int]:
        """Ascending pivot columns of the row echelon form.

        Column j is a pivot exactly when it is independent of columns 0..j-1,
        so the pivots are the greedy left-to-right choice of a column basis.
        """
        return self._echelon()[0]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def nullspace(self) -> list[SparseVector]:
        """Exact basis of the kernel; empty list when the kernel is trivial.

        rank + len(result) == cols always holds.  Basis vectors are indexed by
        the free columns in ascending order, each with a 1 in its free slot
        and 0 in the other free slots, which makes the basis unique.
        """
        pivots, order, rows = self._echelon()
        reduced = _back_substitute(pivots, [rows[r] for r in order[:len(pivots)]])
        pivot_set = set(pivots)
        basis = {free: {free: 1} for free in range(self.cols) if free not in pivot_set}
        for row, pivot_col in zip(reduced, pivots):
            lead = row[pivot_col]
            for free, coeff in row.items():
                if free != pivot_col:
                    basis[free][pivot_col] = _quotient(-coeff, lead)
        return list(basis.values())

    def solve(self, rhs: Sequence[Rational]
              ) -> tuple[tuple[Rational, ...] | None, tuple[Rational, ...] | None]:
        """Solve ``A*x = b`` exactly: ``(x, None)``, or ``(None, y)`` with a
        certificate ``y`` that no solution exists.

        One elimination of ``[A | b]``, with b as column ``cols``, answers
        both: b's column is a pivot exactly when no solution exists.  Its
        pivot row r is the first leftover row of A, in echelon order, whose
        entry of b did not cancel.  The certificate is the one left-kernel
        vector of A supported on r and the pivot rows P above it, with a 1 at
        r: the one Gauss-Jordan with the same row order reads off its
        transform.  The rows of A at P are independent, so the weights on P
        are the unique solution of ``y_P*A_P = -A_r``, found by eliminating
        the transposed system ``[A_P^T | -A_r^T]`` once; when A_r has no
        entries, ``y`` is the unit vector at r.  As ``y*b != 0`` it proves
        infeasibility independently of the eliminations that found it; ``y*A
        = 0`` and ``y*b != 0`` are checked on the given rows before it is
        returned.  A failed check, or a transposed system with no solution,
        raises ``InvariantError``.

        Otherwise the solution sets every free variable to zero, which makes
        it unique (see ``_solution``).
        """
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length mismatch")
        n = self.cols
        augmented = ExactMatrix._of_rows(n + 1, [
            {**row, n: v} if v else row for row, v in zip(self._rows, map(_exact, rhs))])
        pivots, order, rows = augmented._echelon()
        x = _solution(pivots, order, rows, n)
        if x is not None:
            return tuple(x), None
        k = len(pivots) - 1
        r = order[k]
        y: SparseVector = {r: 1}
        if self._rows[r]:
            # each row is a non-empty column of A on P, then -A_r; in A's column
            # order the elimination meets the pivots as the first one did, with low fill
            keyed = [*((position, self._rows[i]) for position, i in enumerate(order[:k])),
                     (k, {j: -v for j, v in self._rows[r].items()})]
            system = ExactMatrix._of_rows(k + 1, [row for row in transpose(keyed, n) if row])
            weights = _solution(*system._echelon(), k)
            if weights is None:
                raise InvariantError("the pivot rows do not span the certificate's row")
            y.update(zip(order[:k], weights))
        augmented._check_certificate(y)
        return None, tuple(y.get(i, 0) for i in range(self.rows))

    def _check_certificate(self, y: SparseVector) -> None:
        """Raise ``InvariantError`` unless ``y*[A | b] = [0 | s]`` with
        ``s != 0``, for b the last column, summed in one pass over the given
        rows on the support of ``y``."""
        total, = weighted_sums([y], self._rows)
        separation = total.pop(self.cols - 1, 0)
        if total:
            raise InvariantError("infeasibility certificate does not annihilate the matrix")
        if not separation:
            raise InvariantError("infeasibility certificate does not separate the right-hand side")

    def row_dicts(self) -> list[dict[int, Rational]]:
        """The sparse rows themselves, not copies; callers must not change them."""
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._rows == other._rows

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def _combine(row: dict[int, int], a: int, c: int, other: dict[int, int]) -> None:
    """row <- a*row - c*other in place, dropping the entries that cancel."""
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in other.items():
        s = row.get(j, 0) - c * v
        if s:
            row[j] = s
        else:
            row.pop(j, None)


def _remove_content(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _solution(pivots: list[int], order: list[int], rows: list[dict[int, int]],
              n: int) -> list[Rational] | None:
    """The solution with every free variable zero of a system ``[A | b]``
    that ``_echelon`` eliminated, with b as column ``n``; None when b's
    column is a pivot and there is no solution.

    The free columns are deleted from the pivot rows, so ``_back_substitute``
    leaves each row with its pivot and b alone.
    """
    if pivots and pivots[-1] == n:
        return None
    kept = {*pivots, n}
    echelon = [rows[r] for r in order[:len(pivots)]]
    for row in echelon:
        for j in [j for j in row if j not in kept]:
            del row[j]
    x: list[Rational] = [0] * n
    for row, pivot_col in zip(_back_substitute(pivots, echelon), pivots):
        if n in row:
            x[pivot_col] = _quotient(row[n], row[pivot_col])
    return x


def _back_substitute(pivots: list[int], echelon: list[dict[int, int]]) -> list[dict[int, int]]:
    """Clear each pivot column above its pivot, in place, last pivot first.

    The rows come out in reduced echelon form up to a non-zero integer factor
    per row: row k holds no pivot column but ``pivots[k]``.
    """
    where = {col: k for k, col in enumerate(pivots)}
    for k in range(len(pivots) - 1, -1, -1):
        row, pivot_col = echelon[k], pivots[k]
        for col in [j for j in row if j in where and j != pivot_col]:
            below = echelon[where[col]]
            p, f = below[col], row[col]
            g = gcd(p, f)
            _combine(row, p // g, f // g, below)
        _remove_content(row)
    return echelon

