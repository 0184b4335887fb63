"""Channel matrices, monomial families, the alphabet builder, and the
rational-independence checker with its witnesses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from icdof import (
    BudgetExceededError,
    ChannelMatrix,
    ExactScalar,
    ValidationError,
    as_scalar,
    basis_values,
    build_wn,
    channel_from_json,
    channel_to_json,
    check_condition_star,
    enumerate_monomials,
    evaluate_monomial,
    is_fully_connected,
    off_diagonal_name,
    phi,
    verify_witness,
)


def rational_matrix(K: int, rng: random.Random) -> ChannelMatrix:
    return ChannelMatrix.from_rows(
        [[Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(K)] for _ in range(K)]
    )


class TestChannelMatrix:
    def test_generic_entries_are_distinct_generators(self):
        H = ChannelMatrix.generic(3)
        names = {str(H.entry(i, j)) for i in range(3) for j in range(3)}
        assert len(names) == 9
        assert str(H.entry(0, 1)) == off_diagonal_name(1, 2)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            ChannelMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValidationError):
            ChannelMatrix.from_rows([[1]])

    def test_fully_connected(self):
        assert is_fully_connected(ChannelMatrix.generic(4))
        lower_triangular = ChannelMatrix.from_rows([[1, 0, 0], [1, -1, 0], [1, 1, 1]])
        assert not is_fully_connected(lower_triangular)

    def test_json_round_trip(self):
        H = ChannelMatrix.from_rows([[1, Fraction(2, 3)], [3, 4]])
        assert channel_from_json(channel_to_json(H)) == H

    def test_json_generic_token(self):
        obj = {"K": 2, "entries": [["generic", "generic"], ["generic", "3/4"]]}
        H = channel_from_json(obj)
        assert H.entry(0, 0) == ExactScalar.generator(off_diagonal_name(1, 1))
        assert H.entry(1, 1) == as_scalar(Fraction(3, 4))

    def test_json_malformed(self):
        with pytest.raises(Exception):
            channel_from_json({"K": 2, "entries": [["1", "2"]]})
        with pytest.raises(Exception):
            channel_from_json({"entries": []})


class TestMonomialFamilies:
    def test_phi_values(self):
        assert [phi(3, d) for d in (0, 1, 2)] == [1, 7, 28]
        assert phi(2, 1) == 3
        assert phi(2, 0) == 1

    def test_enumeration_count_and_order(self):
        for K, d in ((2, 2), (3, 1), (3, 2)):
            basis = enumerate_monomials(K, d)
            assert len(basis) == phi(K, d)
            degrees = [mono[0] for mono in basis.monomials]
            assert degrees[0] == 0  # constant first
            assert degrees == sorted(degrees)
            assert len(set(basis.monomials)) == len(basis)

    def test_evaluate_monomial_is_a_product(self):
        H = ChannelMatrix.generic(2)
        basis = enumerate_monomials(2, 2)
        values = basis_values(H, basis)
        h12 = H.entry(0, 1)
        h21 = H.entry(1, 0)
        assert values[0] == ExactScalar.ONE
        assert h12 * h21 in values
        assert all(evaluate_monomial(H, m) == v for m, v in zip(basis.monomials, values))


class TestBuildWn:
    def test_desk_scale_size(self):
        alphabet = build_wn(ChannelMatrix.generic(3), 1, 2)
        assert len(alphabet) == 2 ** phi(3, 1) == 128
        assert len(set(alphabet)) == 128

    def test_degree_zero_gives_coefficient_range(self):
        alphabet = build_wn(ChannelMatrix.generic(3), 0, 3)
        assert set(alphabet) == {as_scalar(v) for v in (1, 2, 3)}

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_wn(ChannelMatrix.generic(3), 2, 2)  # 2^28 points

    def test_rational_matrix_collapses(self):
        H = ChannelMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        alphabet = build_wn(H, 1, 2)
        assert len(set(alphabet)) < 2 ** phi(3, 1)


class TestConditionStar:
    def test_generic_holds(self):
        H = ChannelMatrix.generic(3)
        for d in (0, 1):
            report = check_condition_star(H, d)
            assert report.status == "holds-up-to-bound"
            assert report.witness is None

    def test_generic_four_users_degree_two_holds(self):
        report = check_condition_star(ChannelMatrix.generic(4), 2)
        assert report.status == "holds-up-to-bound"

    def test_rational_matrix_violated_with_verifiable_witness(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        report = check_condition_star(H, 0)
        assert report.status == "violated"
        witness = report.witness
        assert witness is not None and len(witness.terms) >= 2
        assert verify_witness(H, witness)

    def test_witness_is_the_first_free_column(self):
        # the kernel vector of the first free column, as in the README example
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert check_condition_star(H, 2).witness.to_json()["combination"] == [
            {"family": "monomial", "monomial": "1", "coefficient": "2"},
            {"family": "monomial", "monomial": "h_1_2", "coefficient": "-1"},
        ]
        H = channel_from_json({"K": 3, "entries": [
            ["generic"] * 3, ["generic"] * 3, ["generic", "generic", "h_1_2 * h_2_1 + 1/2"]]})
        assert check_condition_star(H, 1).witness.to_json() == {
            "user": 3,
            "degree": 1,
            "combination": [
                {"family": "monomial", "monomial": "1", "coefficient": "1"},
                {"family": "monomial", "monomial": "h_1_2*h_2_1", "coefficient": "2"},
                {"family": "diag-multiple", "monomial": "1", "coefficient": "-2"},
            ],
        }

    def test_witness_resubstitutes_to_zero(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        witness = check_condition_star(H, 1).witness
        total = ExactScalar.ZERO
        for term in witness.terms:
            value = evaluate_monomial(H, term.monomial)
            if term.family == "diag-multiple":
                value = H.entry(witness.user - 1, witness.user - 1) * value
            total = total + term.coefficient * value
        assert total == ExactScalar.ZERO

    def test_integer_offdiagonal_with_generic_diagonal(self):
        g = ExactScalar.generator
        H = ChannelMatrix.from_rows(
            [[g("g_1"), 1, 1], [1, g("g_2"), 1], [1, 1, g("g_3")]]
        )
        report = check_condition_star(H, 0)
        assert report.status == "violated"
        # the pure monomials collapse; the diagonal multiples are clean
        assert all(t.family == "monomial" for t in report.witness.terms)
        assert verify_witness(H, report.witness)

    def test_random_rational_matrices_yield_verifiable_witnesses(self):
        rng = random.Random(7)
        for _ in range(10):
            H = rational_matrix(rng.choice((2, 3)), rng)
            report = check_condition_star(H, rng.choice((0, 1)))
            assert report.status == "violated"  # rationals are always dependent
            assert verify_witness(H, report.witness)

    def test_witness_json_shape(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        obj = check_condition_star(H, 0).to_json()
        assert obj["status"] == "violated"
        assert {"user", "degree", "combination"} <= obj["witness"].keys()
        for term in obj["witness"]["combination"]:
            assert {"family", "monomial", "coefficient"} <= term.keys()
