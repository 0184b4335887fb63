"""Exact linear relations among sparse rational vectors, by one fraction-free
column elimination.

The independence checker needs certificates, not numerical judgments, so
everything here is integer/rational arithmetic. Vectors are sparse dicts
{key: nonzero value} over any ordered keys, taken in order. Each is cleared
of denominators over its nonzero entries only, then reduced on its
predecessors' pivots by its top (largest) key, as v <- a*v - b*pivot followed
by division by the content gcd, so entries stay integers and stay small; a
vector with no entry at a pivot's top key is never touched. Each vector
carries its relation {index: int}, the integer combination of the original
vectors it equals, so the first vector that reduces to zero gives the first
relation. The channel checker's vectors mostly have distinct top keys, for
which this runs in time linear in the nonzeros.
"""

from __future__ import annotations

from collections import ChainMap
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, MutableMapping, Optional, Sequence

from .errors import ValidationError

Relation = dict[int, int]


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a*x - b*y, without its zero entries."""
    combined = {key: a * v for key, v in x.items()}
    for key, v in y.items():
        value = combined.get(key, 0) - b * v
        if value:
            combined[key] = value
        else:
            del combined[key]
    return combined


def _reduce(row: dict, relation: Relation, pivots: Mapping) -> tuple[dict, Relation]:
    """Eliminate the row's top entry while it hits a pivot's, carrying the
    relation along; the row ends empty or topped by a key with no pivot yet."""
    while row:
        top = max(row)
        pivot = pivots.get(top)
        if pivot is None:
            break
        pivot_row, pivot_relation = pivot
        g = gcd(pivot_row[top], row[top])
        a, b = pivot_row[top] // g, row[top] // g
        row = _combine(a, row, b, pivot_row)
        relation = _combine(a, relation, b, pivot_relation)
        content = gcd(*row.values(), *relation.values())
        if content > 1:
            row = {key: v // content for key, v in row.items()}
            relation = {col: v // content for col, v in relation.items()}
    return row, relation


def _relations(
    vectors: Iterable[Mapping], pivots: MutableMapping, start: int = 0
) -> Iterator[Optional[Relation]]:
    """Reduce each vector on `pivots` in turn, numbered from `start`: None for
    one that becomes a pivot, its relation for one that reduces to zero."""
    for index, vector in enumerate(vectors, start):
        denom = lcm(*(x.denominator for x in vector.values()))
        row = {key: x.numerator * (denom // x.denominator) for key, x in vector.items()}
        row, relation = _reduce(row, {index: denom}, pivots)
        if row:
            pivots[max(row)] = row, relation
            yield None
        else:
            yield relation


def first_relations(
    base: Iterable[Mapping], extras: Iterable[Iterable[Mapping]]
) -> Iterator[Optional[list[int]]]:
    """Per group of `extras`, the first linear relation among the vectors of
    `base` followed by that group's, or None when they are independent.

    A relation is a primitive integer vector r (first nonzero entry positive)
    over those vectors, up to and including the first that depends on its
    predecessors; as every vector before it is independent, r is unique.
    `base` is reduced once, and only up to its first dependent vector, which
    then gives every group's relation; otherwise each group is reduced on
    base's pivots, up to its own first dependent vector.
    """
    pivots: dict = {}
    shared = next(filter(None, _relations(base, pivots)), None)
    n = len(pivots)  # every base vector is a pivot unless `shared` is set
    for group in extras:
        relation = shared or next(filter(None, _relations(group, ChainMap({}, pivots), n)), None)
        yield None if relation is None else primitive_integer_vector(
            [relation.get(c, 0) for c in range(max(relation) + 1)])


def kernel_basis(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for the matrix with the given rows.

    Returns one vector per free (non-pivot) column, holding 1 in that column
    and 0 in every other free column; the empty list means the kernel is
    trivial. A column is free when it depends on the columns before it, and
    its vector is that dependence, so the basis is unique.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    if any(len(row) != n_cols for row in rows):
        raise ValueError("ragged matrix")
    columns = ({r: Fraction(row[c]) for r, row in enumerate(rows) if row[c]} for c in range(n_cols))
    return [
        [Fraction(relation.get(c, 0), relation[free]) for c in range(n_cols)]
        for free, relation in enumerate(_relations(columns, {}))
        if relation is not None
    ]


def primitive_integer_vector(vec: Sequence[Fraction]) -> list[int]:
    """Clear denominators and divide by the gcd; sign fixed so the first
    nonzero entry is positive."""
    values = [Fraction(x) for x in vec]
    if not any(values):
        raise ValidationError("zero vector has no primitive form")
    denom = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (denom // x.denominator) for x in values]
    content = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return [x // content for x in ints]
