"""Calibration kernel: a fixed exact-arithmetic job that tracks machine speed.

On a shared machine the speed of a core can change by half, in spells that
last from seconds to minutes, as other tenants come and go.  The kernel is
timed after every command of a run; scaling the run's median times by
``REFERENCE_S`` over the kernel's median time cancels the speed the machine
had during that run.  The kernel is sparse Gauss-Jordan elimination and
sparse polynomial products over ``Fraction``s, the same kinds of interpreter
work as the engine's, and it shares no code with nambu, so no change to the
engine can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# the kernel's time at the reference speed, by definition; a little under its
# median time on a 2-vCPU Xeon virtual machine
REFERENCE_S = 0.05


def _rows() -> list[dict[int, Fraction]]:
    rng = random.Random(12345)
    return [{j: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for j in rng.sample(range(24), 8)} for _ in range(24)]


def _eliminate(rows: list[dict[int, Fraction]]) -> int:
    """Gauss-Jordan elimination on sparse rational rows; returns the rank."""
    rank = 0
    for col in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r].get(col)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        inverse = 1 / lead[col]
        for r, row in enumerate(rows):
            factor = row.get(col)
            if r == rank or not factor:
                continue
            factor *= inverse
            for j, value in lead.items():
                entry = row.get(j, 0) - factor * value
                if entry:
                    row[j] = entry
                else:
                    row.pop(j, None)
        rank += 1
    return rank


def _polynomials() -> list[dict[tuple[int, ...], Fraction]]:
    rng = random.Random(54321)
    return [{tuple(rng.randint(0, 3) for _ in range(4)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(terms)} for terms in (24, 24, 8)]


def _multiply(left, right) -> dict[tuple[int, ...], Fraction]:
    """Sparse polynomial product over exponent tuples."""
    out: dict[tuple[int, ...], Fraction] = {}
    for a, x in left.items():
        for b, y in right.items():
            key = tuple(i + j for i, j in zip(a, b))
            value = out.get(key, 0) + x * y
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


def kernel_seconds() -> float:
    """Time of one run of the kernel at the machine's current speed.

    Elimination stands for the engine's linear algebra, the polynomial
    products for its tensor kernels, which build many small objects.
    """
    rows = _rows()
    first, second, third = _polynomials()
    started = time.perf_counter()
    _eliminate(rows)
    _multiply(_multiply(first, second), third)
    return time.perf_counter() - started
