"""Exact multivariate polynomial, rational-function and linear algebra over Q.

A polynomial is a sparse map from exponent tuples to ``Fraction`` coefficients;
the zero polynomial is the empty map.  Everything here is exact: no floating
point enters any computation, so kernel dimensions and identity checks are
trustworthy.  The canonical term order is graded lexicographic (total degree
first, then the exponent tuple), which fixes serialization and report output.
The one way out to floats is ``compile_float``, which lowers a polynomial or
rational function once into nested Horner steps for the numeric flow check.

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
are those of Gauss-Jordan.  ``rank`` and ``pivot_columns`` stop there; only
``nullspace`` and ``solve`` back-substitute into ``Fraction``s.  The kernel
basis with free slots set to 1/0 and the solution with free variables zero
are unique, and so is the infeasibility certificate (a left-kernel row
``y`` with ``y*A = 0`` and ``y*b != 0``) read off the first inconsistent
leftover row, because it is the only left-kernel vector supported on the
pivot rows and that row with a 1 there.  So every answer is the one
Gauss-Jordan gives.  A column or coordinate vector is a
``SparseVector``: a map from position to its non-zero ``Fraction``; zeros are
never stored.  Nullspace bases are returned in this format and
``matrix_from_columns`` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

Exponent = tuple[int, ...]

SparseVector = dict[int, Fraction]

FloatFunction = Callable[[Sequence[float]], float]

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Sort key of a monomial in graded lexicographic order."""
    return (sum(exponent), exponent)


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values may be shared freely between threads.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict[Exponent, Fraction] | None = None):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.variables = names
        clean: dict[Exponent, Fraction] = {}
        if terms:
            m = len(names)
            for exponent, coeff in terms.items():
                if len(exponent) != m:
                    raise ValueError(f"exponent {exponent} has wrong length for {m} variables")
                c = _as_fraction(coeff)
                if c != 0:
                    clean[tuple(exponent)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: int | Fraction) -> "Polynomial":
        c = _as_fraction(value)
        if c == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "Polynomial":
        names = tuple(variables)
        if not 0 <= index < len(names):
            raise IndexError(f"variable index {index} out of range for {len(names)} variables")
        exponent = [0] * len(names)
        exponent[index] = 1
        return cls(names, {tuple(exponent): ONE})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponent: Exponent,
                 coeff: int | Fraction = 1) -> "Polynomial":
        return cls(variables, {tuple(exponent): _as_fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        exponent, coeff = next(iter(self.terms.items()))
        return not any(exponent) and coeff == ONE

    def constant_value(self) -> Fraction:
        if not self.terms:
            return ZERO
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
            acc = out.get(exponent, ZERO) + coeff
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
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in rhs.terms.items():
                exponent = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(exponent, ZERO) + ca * cb
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
            return hash(self.terms.get((0,) * len(self.variables), ZERO))
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus and evaluation -------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < len(self.variables):
            raise IndexError(f"variable index {index} out of range")
        out: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            k = exponent[index]
            if k == 0:
                continue
            lowered = list(exponent)
            lowered[index] = k - 1
            out[tuple(lowered)] = coeff * k
        return Polynomial(self.variables, out)

    def evaluate(self, point: Sequence[int | Fraction]) -> Fraction:
        """Exact value at a rational point."""
        values = [_as_fraction(v) for v in point]
        if len(values) != len(self.variables):
            raise ValueError("wrong number of coordinates")
        total = ZERO
        for exponent, coeff in self.sorted_terms():
            term = coeff
            for e, v in zip(exponent, values):
                if e:
                    term *= v ** e
            total += term
        return total

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Float value via Horner steps in the fixed variable order."""
        values = list(point)
        if len(values) != len(self.variables):
            raise ValueError("wrong number of coordinates")
        return self.compile_float()(values)

    def compile_float(self) -> FloatFunction:
        """Lower to a float function of a point, for evaluation at many points.

        The term order, grouping and float coefficients are fixed here once.
        The returned function only indexes the point, so it does not check
        its length; ``evaluate_float`` is this function behind that check.
        """
        if not self.terms:
            return lambda point: 0.0
        return _horner_plan(self.sorted_terms(), 0)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
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
                              {e: c / k for e, c in reversed(numerator.sorted_terms())})
        lead_e, lead_c = max(self.terms.items(), key=lambda item: grlex_key(item[0]))
        quotient: dict[Exponent, Fraction] = {}
        rest = numerator
        while not rest.is_zero():
            top_e, top_c = max(rest.terms.items(), key=lambda item: grlex_key(item[0]))
            diff = tuple(a - b for a, b in zip(top_e, lead_e))
            if any(d < 0 for d in diff):
                return None
            factor = Polynomial.monomial(self.variables, diff, top_c / lead_c)
            quotient[diff] = top_c / lead_c
            rest = rest - factor * self
        return Polynomial(self.variables, quotient)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
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
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _horner_plan(terms: list[tuple[Exponent, Fraction]], axis: int) -> FloatFunction:
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
    groups: dict[int, list[tuple[Exponent, Fraction]]] = {}
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
        return hash((self.variables, tuple(a - b for a, b in zip(top_e, low_e)), top_c / low_c))

    def diff(self, index: int) -> "Polynomial | RationalFunction":
        return _divide(
            self.numerator.diff(index) * self.denominator
            - self.numerator * self.denominator.diff(index),
            self.denominator * self.denominator)

    def evaluate_float(self, point: Sequence[float]) -> float:
        values = list(point)
        if len(values) != len(self.variables):
            raise ValueError("wrong number of coordinates")
        return self.compile_float()(values)

    def compile_float(self) -> FloatFunction:
        """Lower numerator and denominator once; see ``Polynomial.compile_float``."""
        numerator = self.numerator.compile_float()
        denominator = self.denominator.compile_float()

        def quotient(point: Sequence[float]) -> float:
            den = denominator(point)
            return numerator(point) / den

        return quotient

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
        inv = 1 / lead
        num = num * inv
        den = den * inv
    return num, den


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of an exact linear solve.

    Exactly one of ``solution`` and ``certificate`` is set.  The certificate
    is a left-kernel row ``y`` of the system matrix with ``y*b != 0``, which
    proves infeasibility independently of the elimination that found it.
    """

    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


class ExactMatrix:
    """Sparse exact rational matrix with row-dict storage.

    The matrix owns the row dicts it is given: callers hand them over and do
    not change them afterwards.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int,
                 row_dicts: list[dict[int, Fraction]] | None = None):
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
    def from_dense(cls, entries: Sequence[Sequence[int | Fraction]]) -> "ExactMatrix":
        data = [list(row) for row in entries]
        rows = len(data)
        cols = len(data[0]) if data else 0
        out = cls(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                v = _as_fraction(value)
                if v != 0:
                    out._rows[i][j] = v
        return out

    def get(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self._rows[i].get(j, ZERO)

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = ExactMatrix(self.rows, other.cols)
        for i, row in enumerate(self._rows):
            acc: dict[int, Fraction] = {}
            for k, a in row.items():
                for j, b in other._rows[k].items():
                    s = acc.get(j, ZERO) + a * b
                    if s == 0:
                        acc.pop(j, None)
                    else:
                        acc[j] = s
            out._rows[i] = acc
        return out

    __matmul__ = matmul

    def _echelon(self, rhs: Sequence[Fraction] | None = None
                 ) -> tuple[list[int], list[int], list[dict[int, int]],
                            list[dict[int, int]] | None]:
        """Forward, fraction-free elimination in the row order of Gauss-Jordan.

        Each row is scaled to integers by the lcm of its denominators.  The
        columns are taken left to right.  The pivot row of a column is the
        first row in the current order that holds it, swapped into the next
        echelon position.  Every other row that holds the column becomes
        ``(p/g)*row - (f/g)*pivot``, where ``p`` is the pivot entry, ``f`` the
        row's entry and ``g = gcd(p, f)``, and then loses its integer
        content.  A column -> rows index over the rows that are not pivots yet
        finds those rows without a scan over the others.  Pivot rows are
        never changed again: there is no back-elimination.  A row that is
        not a pivot stays a non-zero multiple of the row Gauss-Jordan holds
        at its position, so both pick the same pivot rows and leave the same
        rows over, in the same order.

        With ``rhs`` each row also carries a tail, where key -1 holds its
        entry of b and key i its coefficient on original row i, so that the
        row equals ``sum_i tail[i] * A[i]`` and ``tail[-1]`` is the same sum
        over b.  Tails follow every update and share the content removal.

        Returns ``(pivots, order, rows, tails)``: the ascending pivot columns;
        the original index of the row at each echelon position, pivot rows
        first and the leftover rows after them; the integer rows by original
        index; and the tails, or None without ``rhs``.
        """
        nrows, ncols = self.rows, self.cols
        rows: list[dict[int, int]] = []
        tails: list[dict[int, int]] | None = None if rhs is None else []
        for i, row in enumerate(self._rows):
            scale = lcm(*(v.denominator for v in row.values()))
            tail = None
            if tails is not None:
                b = rhs[i]
                scale = lcm(scale, b.denominator)
                tail = {i: scale}
                if b:
                    tail[-1] = b.numerator * (scale // b.denominator)
                tails.append(tail)
            ints = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
            _remove_content(ints, tail)
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
                tail = None
                if tails is not None:
                    tail = tails[r]
                    _combine(tail, a, c, tails[sel])
                _remove_content(row, tail)
            index[col] = set()
            pivots.append(col)
            if len(pivots) == nrows:
                break
        return pivots, order, rows, tails

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
        pivots, order, rows, _ = self._echelon()
        reduced = _back_substitute(pivots, [rows[r] for r in order[:len(pivots)]])
        pivot_set = set(pivots)
        basis = {free: {free: ONE} for free in range(self.cols) if free not in pivot_set}
        for row, pivot_col in zip(reduced, pivots):
            lead = row[pivot_col]
            for free, coeff in row.items():
                if free != pivot_col:
                    basis[free][pivot_col] = Fraction(-coeff, lead)
        return list(basis.values())

    def solve(self, rhs: Sequence[int | Fraction]) -> LinearSolveResult:
        """Solve ``A*x = b`` exactly, or certify that no solution exists.

        The solution sets every free variable to zero, which makes it unique.
        The certificate comes from the first leftover row, in echelon order,
        whose entry of b did not cancel: its tail divided by its coefficient
        on its own original row.  That is the one left-kernel vector supported
        on the pivot rows and that row with a 1 at that row, so it is the
        certificate Gauss-Jordan with the same row order reads off its
        transform.
        """
        b = [_as_fraction(v) for v in rhs]
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        pivots, order, rows, tails = self._echelon(b)
        assert tails is not None
        rank = len(pivots)
        for r in order[rank:]:
            tail = tails[r]
            if tail.get(-1):
                lead = tail[r]
                certificate = tuple(Fraction(tail.get(i, 0), lead) for i in range(self.rows))
                return LinearSolveResult(solution=None, certificate=certificate)
        x = [ZERO] * self.cols
        for k in range(rank - 1, -1, -1):
            r, pivot_col = order[k], pivots[k]
            row = rows[r]
            acc = Fraction(tails[r].get(-1, 0))
            for j, v in row.items():
                if j != pivot_col and x[j]:
                    acc -= v * x[j]
            x[pivot_col] = acc / row[pivot_col]
        return LinearSolveResult(solution=tuple(x), certificate=None)

    def row_dicts(self) -> list[dict[int, Fraction]]:
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


def _remove_content(row: dict[int, int], tail: dict[int, int] | None = None) -> None:
    """Divide an integer row, and its tail if given, by their common gcd."""
    g = gcd(*row.values(), *(tail or {}).values())
    if g > 1:
        for j in row:
            row[j] //= g
        if tail:
            for j in tail:
                tail[j] //= g


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


def matrix_from_columns(columns: Iterable[SparseVector], nrows: int) -> ExactMatrix:
    """Assemble a matrix whose j-th column is the j-th sparse vector given."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
    width = 0
    for column in columns:
        for i, value in column.items():
            if not 0 <= i < nrows:
                raise ValueError(f"row index {i} outside 0..{nrows - 1}")
            rows[i][width] = value
        width += 1
    return ExactMatrix(nrows, width, rows)
