"""Exact kernels via sparse fraction-free elimination, cross-checked against
sympy: both normalize each kernel vector to 1 in its own free column and 0 in
the other free columns, so the bases must agree entry for entry."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from icdof import ValidationError, kernel_basis, primitive_integer_vector


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

    def test_full_rank_has_empty_kernel(self):
        rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
        assert kernel_basis(rows) == []

    def test_proportional_columns(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        basis = kernel_basis(rows)
        assert len(basis) == 1
        _check_in_kernel(rows, basis[0])
        assert primitive_integer_vector(basis[0]) == [2, -1]

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
        assert primitive_integer_vector([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
        assert primitive_integer_vector([Fraction(0), Fraction(-5, 2)]) == [0, 1]
        assert primitive_integer_vector([Fraction(6), Fraction(9)]) == [2, 3]

    def test_leading_sign_is_positive(self):
        vec = primitive_integer_vector([Fraction(-1, 2), Fraction(1, 4)])
        assert vec[0] > 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="^zero vector has no primitive form$"):
            primitive_integer_vector([Fraction(0), Fraction(0)])

    @given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1))
    def test_primitive_multiple_of_the_input(self, vec):
        if not any(vec):
            return
        ints = primitive_integer_vector(vec)
        assert all(type(x) is int for x in ints) and len(ints) == len(vec)
        assert math.gcd(*ints) == 1
        assert next(x for x in ints if x) > 0
        lead = next(c for c, x in enumerate(vec) if x)  # ints = (ints[lead] / vec[lead]) * vec
        assert all(x * vec[lead] == ints[lead] * v for x, v in zip(ints, vec))
