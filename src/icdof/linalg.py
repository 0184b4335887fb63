"""Exact kernel computation via sparse fraction-free elimination.

The independence checker needs certificates, not numerical judgments, so
everything here is integer/rational arithmetic. Each row is stored as a dict
{column: nonzero int}, cleared of denominators over its nonzero entries only.
Rows are reduced one at a time against the pivot row whose leading column
they hit, as row <- a*row - b*pivot followed by division by the row's content
gcd, so entries stay integers and stay small; a row with no entry in a pivot
column is never touched. The channel checker's matrices are mostly columns of
distinct unit vectors, for which this runs in time linear in the nonzeros.
Kernel vectors are back-substituted as fractions, then cleared to primitive
integer vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError

SparseRow = dict[int, int]


def _integer_row(entries: Mapping[int, Fraction | int]) -> SparseRow:
    """The nonzero entries {column: value}, scaled to coprime integers."""
    denom = lcm(*(x.denominator for x in entries.values()))
    return _primitive({c: x.numerator * (denom // x.denominator) for c, x in entries.items()})


def _primitive(row: SparseRow) -> SparseRow:
    content = gcd(*row.values())
    if content > 1:
        return {col: x // content for col, x in row.items()}
    return row


def _reduce(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """Eliminate the row's leading entry while it hits a pivot column; the
    result is empty or leads in a column with no pivot yet."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return row
        g = gcd(pivot[lead], row[lead])
        a, b = pivot[lead] // g, row[lead] // g
        combined = {col: a * x for col, x in row.items()}
        for col, x in pivot.items():
            value = combined.get(col, 0) - b * x
            if value:
                combined[col] = value
            else:
                del combined[col]
        row = _primitive(combined)
    return row


def _pivots(rows: Iterable[Mapping[int, Fraction | int]]) -> dict[int, SparseRow]:
    """Reduced pivot rows keyed by their leading column."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        reduced = _reduce(_integer_row(row), pivots)
        if reduced:
            pivots[min(reduced)] = reduced
    return pivots


def _kernel_vector(pivots: dict[int, SparseRow], free: int, n_cols: int) -> list[Fraction]:
    """The kernel vector with 1 in the free column `free` and 0 in every
    other free column."""
    vec: dict[int, Fraction] = {free: Fraction(1)}
    # every entry of a pivot row lies at or right of its leading column, so
    # back-substitution runs over pivots from the rightmost leading column
    for col in sorted(pivots, reverse=True):
        if col > free:
            continue  # its row only meets columns right of `free`, all zero
        pivot = pivots[col]
        residue = sum(x * vec[c] for c, x in pivot.items() if c in vec)
        if residue:
            vec[col] = -residue / pivot[col]
    zero = Fraction(0)
    return [vec.get(c, zero) for c in range(n_cols)]


def kernel_basis(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for the matrix with the given rows.

    Returns one vector per free (non-pivot) column, holding 1 in that column
    and 0 in every other free column; the empty list means the kernel is
    trivial. The pivot columns depend only on the matrix, so the basis is
    unique.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    if any(len(row) != n_cols for row in rows):
        raise ValueError("ragged matrix")
    pivots = _pivots({c: Fraction(x) for c, x in enumerate(row) if x} for row in rows)
    return [_kernel_vector(pivots, free, n_cols) for free in range(n_cols) if free not in pivots]


def first_kernel_vector(
    rows: Iterable[Mapping[int, Fraction | int]], n_cols: int
) -> Optional[list[Fraction]]:
    """`kernel_basis(M)[0]` for the matrix with `n_cols` columns whose rows
    are given sparsely as {column: nonzero value}, or None when the kernel is
    trivial. Only that one vector is back-substituted."""
    pivots = _pivots(rows)
    free = next((c for c in range(n_cols) if c not in pivots), None)
    return None if free is None else _kernel_vector(pivots, free, n_cols)


def primitive_integer_vector(vec: Sequence[Fraction]) -> list[int]:
    """Clear denominators and divide by the gcd; sign fixed so the first
    nonzero entry is positive."""
    nonzero = {c: x for c, x in enumerate(map(Fraction, vec)) if x}
    if not nonzero:
        raise ValidationError("zero vector has no primitive form")
    row = _integer_row(nonzero)
    sign = -1 if row[min(row)] < 0 else 1
    return [sign * row.get(c, 0) for c in range(len(vec))]
