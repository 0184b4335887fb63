"""Exact linear relations by one column elimination, cross-checked against
two slow twins: sympy's nullspace for `kernel_basis` (both normalize each
kernel vector to 1 in its own free column and 0 in the other free columns, so
the bases must agree entry for entry), and a row echelon elimination with
back-substitution for `first_relations`."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from icdof import ValidationError, kernel_basis
from icdof.linalg import _primitive_integer_vector
from icdof.linalg import first_relations


def _integer_row(entries: Mapping[int, Fraction | int]) -> dict[int, int]:
    """The nonzero entries {column: value}, scaled to coprime integers."""
    denom = math.lcm(*(x.denominator for x in entries.values()))
    return _primitive({c: x.numerator * (denom // x.denominator) for c, x in entries.items()})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    content = math.gcd(*row.values())
    if content > 1:
        return {col: x // content for col, x in row.items()}
    return row


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """Eliminate the row's leading entry while it hits a pivot column; the
    result is empty or leads in a column with no pivot yet."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return row
        g = math.gcd(pivot[lead], row[lead])
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


def reference_first_kernel_vector(
    rows: Iterable[Mapping[int, Fraction | int]], n_cols: int
) -> Optional[list[Fraction]]:
    """Slow twin of the first relation among a matrix's columns, by row
    echelon form and back-substitution: the kernel vector of the first free
    column of the matrix with `n_cols` columns whose rows are given sparsely
    as {column: nonzero value}, with 1 there and 0 in every other free column,
    or None when the kernel is trivial."""
    pivots: dict[int, dict[int, int]] = {}  # reduced rows keyed by their leading column
    for row in rows:
        reduced = _reduce(_integer_row(row), pivots)
        if reduced:
            pivots[min(reduced)] = reduced
    free = next((c for c in range(n_cols) if c not in pivots), None)
    if free is None:
        return None
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


def _check_in_kernel(rows, vec):
    for row in rows:
        assert sum(Fraction(a) * x for a, x in zip(row, vec)) == 0


def _sympy_basis(rows):
    matrix = sympy.Matrix(
        [[sympy.Rational(a.numerator, a.denominator) for a in row] for row in rows]
    )
    return [
        [Fraction(int(x.p), int(x.q)) for x in vec]
        for vec in matrix.nullspace()
    ]


class TestKernelBasis:
    def test_rank_one_row(self):
        rows = [[Fraction(1), Fraction(1), Fraction(1)]]
        basis = kernel_basis(rows)
        assert len(basis) == 2
        for vec in basis:
            _check_in_kernel(rows, vec)

    def test_no_rows_and_ragged_rows(self):
        assert kernel_basis([]) == []
        with pytest.raises(ValueError, match="^ragged matrix$"):
            kernel_basis([[Fraction(1), Fraction(2)], [Fraction(3)]])

    def test_full_rank_has_empty_kernel(self):
        rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
        assert kernel_basis(rows) == []

    def test_proportional_columns(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        basis = kernel_basis(rows)
        assert len(basis) == 1
        _check_in_kernel(rows, basis[0])
        assert _primitive_integer_vector(basis[0]) == [2, -1]

    def test_fractional_entries(self):
        rows = [[Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)]]
        basis = kernel_basis(rows)
        assert len(basis) == 2
        for vec in basis:
            _check_in_kernel(rows, vec)

    def test_zero_matrix(self):
        rows = [[Fraction(0), Fraction(0)]]
        basis = kernel_basis(rows)
        assert len(basis) == 2

    def test_against_sympy_on_random_matrices(self):
        rng = random.Random(99)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)
            ]
            assert kernel_basis(rows) == _sympy_basis(rows)

    def test_against_sympy_on_sparse_matrices(self):
        rng = random.Random(2026)
        for _ in range(12):
            rows = [
                [
                    Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                    if rng.random() < 0.1
                    else Fraction(0)
                    for _ in range(35)
                ]
                for _ in range(25)
            ]
            basis = kernel_basis(rows)
            assert basis == _sympy_basis(rows)
            for vec in basis:
                _check_in_kernel(rows, vec)

    def test_against_sympy_on_rank_deficient_matrices(self):
        rng = random.Random(404)
        for _ in range(20):
            n = rng.randint(3, 8)
            base = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))
            ]
            rows = list(base)
            for _ in range(rng.randint(1, 4)):
                a, b = rng.choice(base), rng.choice(base)
                if rng.random() < 0.5:
                    rows.append(list(a))  # repeated row
                else:
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    rows.append([x + c * y for x, y in zip(a, b)])  # combined rows
            rng.shuffle(rows)
            basis = kernel_basis(rows)
            assert len(basis) >= n - len(base)
            assert basis == _sympy_basis(rows)


class TestPrimitiveVector:
    def test_clears_denominators_and_reduces(self):
        assert _primitive_integer_vector([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
        assert _primitive_integer_vector([Fraction(0), Fraction(-5, 2)]) == [0, 1]
        assert _primitive_integer_vector([Fraction(6), Fraction(9)]) == [2, 3]

    def test_leading_sign_is_positive(self):
        vec = _primitive_integer_vector([Fraction(-1, 2), Fraction(1, 4)])
        assert vec[0] > 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="^zero vector has no primitive form$"):
            _primitive_integer_vector([Fraction(0), Fraction(0)])

    @given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1))
    def test_primitive_multiple_of_the_input(self, vec):
        if not any(vec):
            return
        ints = _primitive_integer_vector(vec)
        assert all(type(x) is int for x in ints) and len(ints) == len(vec)
        assert math.gcd(*ints) == 1
        assert next(x for x in ints if x) > 0
        lead = next(c for c, x in enumerate(vec) if x)  # ints = (ints[lead] / vec[lead]) * vec
        assert all(x * vec[lead] == ints[lead] * v for x, v in zip(ints, vec))


_sparse_vectors = st.dictionaries(
    st.integers(0, 5),
    st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
    max_size=4,
)


class TestFirstRelations:
    """`first_relations` against the row echelon twin on the matrix whose
    columns are the base vectors followed by one group's."""

    @staticmethod
    def _expected(columns):
        rows: dict[int, dict[int, Fraction]] = {}
        for c, vector in enumerate(columns):
            for key, x in vector.items():
                rows.setdefault(key, {})[c] = x
        vector = reference_first_kernel_vector(rows.values(), len(columns))
        return None if vector is None else _primitive_integer_vector(vector)

    def _check(self, base, extras):
        found = list(first_relations(iter(base), (iter(group) for group in extras)))
        assert len(found) == len(extras)
        for group, relation in zip(extras, found):
            columns = base + group
            expected = self._expected(columns)
            if relation is not None:  # it ends at the first dependent vector
                assert relation[-1] != 0
                relation = relation + [0] * (len(columns) - len(relation))
            assert relation == expected

    @given(st.lists(_sparse_vectors, max_size=6),
           st.lists(st.lists(_sparse_vectors, max_size=3), max_size=3))
    def test_random_sparse_vectors(self, base, extras):
        self._check(base, extras)

    @given(st.lists(_sparse_vectors, min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 5), st.fractions(-3, 3, max_denominator=3)),
                    min_size=1, max_size=3),
           st.lists(st.lists(_sparse_vectors, max_size=2), min_size=1, max_size=3))
    def test_dependent_base_gives_every_group_its_relation(self, base, combination, extras):
        # a combination of earlier base vectors, then more base vectors
        dependent: dict[int, Fraction] = {}
        for index, factor in combination:
            for key, x in base[index % len(base)].items():
                dependent[key] = dependent.get(key, 0) + factor * x
        base = base + [{k: x for k, x in dependent.items() if x}] + base[:1]
        self._check(base, extras)
        shared = next(first_relations(iter(base), iter([[]])))
        assert shared is not None
        assert list(first_relations(iter(base), (iter(g) for g in extras))) == [shared] * len(extras)

    def test_edge_cases(self):
        one, half = {0: Fraction(1)}, {0: Fraction(1, 2), 3: Fraction(-2, 3)}
        self._check([], [[], [{}], [one, {}], [one, {0: Fraction(-5, 2)}]])
        self._check([{}], [[one]])  # a zero vector depends on nothing
        self._check([one, half], [[{3: Fraction(7)}], [{0: Fraction(1, 3), 3: Fraction(4)}]])
        assert list(first_relations(iter([one, half]), [[{0: 3, 3: -4}]])) == [[0, 6, -1]]
        assert list(first_relations(iter([one, {0: 4}, half]), [[one], []])) == [[4, -1]] * 2
