"""Finite sumsets, progression detection, and the entropy inequality suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdof import (
    BudgetExceededError,
    ExactScalar,
    NotRationalError,
    as_scalar,
    check_trivial_bounds,
    entropy_inequality_suite,
    finite_set,
    is_arithmetic_progression,
    point_mass,
    set_from_json,
    set_to_json,
    sumset,
    uniform_on,
)
from conftest import random_rational_dist

G1 = ExactScalar.generator("g1")


def reference_progression(A):
    """Slow twin of `is_arithmetic_progression`: sorts `Fraction`s."""
    values = sorted(x.as_fraction() for x in A)
    if len(values) == 1:
        return values[0], None, 1
    step = values[1] - values[0]
    if any(cur - prev != step for prev, cur in zip(values, values[1:])):
        return None
    return values[0], step, len(values)


def int_set(values) -> frozenset:
    return finite_set(values)


class TestSumset:
    def test_examples(self):
        assert len(sumset(int_set([0, 1, 2]), int_set([0, 1, 2]))) == 5
        assert len(sumset(int_set([0, 1, 4]), int_set([0, 2, 9]))) == 9
        A = int_set([3, 7, 11])
        assert sumset(A, int_set([0])) == A

    def test_symbolic_elements(self):
        A = finite_set([ExactScalar.ZERO, G1])
        S = sumset(A, A)
        assert S == finite_set([ExactScalar.ZERO, G1, 2 * G1])

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            sumset(frozenset(), int_set([1]))

    def test_budget(self):
        A = int_set(range(300))
        with pytest.raises(BudgetExceededError):
            sumset(A, A, budget=1000)


class TestTrivialBounds:
    def test_on_random_integer_sets(self):
        rng = random.Random(5)
        for _ in range(30):
            A = int_set(rng.sample(range(-30, 31), rng.randint(1, 10)))
            B = int_set(rng.sample(range(-30, 31), rng.randint(1, 10)))
            lower_ok, upper_ok = check_trivial_bounds(A, B)
            assert lower_ok and upper_ok

    def test_on_symbolic_sets(self):
        A = finite_set([ExactScalar.ZERO, G1, 2 * G1 + 1])
        B = finite_set([as_scalar(1), G1])
        lower_ok, upper_ok = check_trivial_bounds(A, B)
        assert lower_ok and upper_ok

    def test_integer_refinement(self):
        # |A+B| >= |A| + |B| - 1 for integer sets, tight exactly for
        # progressions with a common step
        rng = random.Random(11)
        for _ in range(30):
            A = int_set(rng.sample(range(-20, 21), rng.randint(2, 8)))
            B = int_set(rng.sample(range(-20, 21), rng.randint(2, 8)))
            assert len(sumset(A, B)) >= len(A) + len(B) - 1
        A = int_set([0, 2, 4])
        B = int_set([10, 12])
        assert len(sumset(A, B)) == len(A) + len(B) - 1


class TestProgressionDetection:
    def test_examples(self):
        assert is_arithmetic_progression(int_set([3, 5, 7, 9])) == (3, 2, 4)
        assert is_arithmetic_progression(int_set([0, 1, 3])) is None
        assert is_arithmetic_progression(int_set([8])) == (8, None, 1)

    def test_rational_step(self):
        A = finite_set([Fraction(1, 2), 1, Fraction(3, 2)])
        assert is_arithmetic_progression(A) == (Fraction(1, 2), Fraction(1, 2), 3)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_fraction_sorting_reference(self, data):
        start = Fraction(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 12)))
        step = Fraction(data.draw(st.integers(1, 30)), data.draw(st.integers(1, 12)))
        values = [start + step * i for i in range(data.draw(st.integers(1, 8)))]
        # a few extra non-integer points, which usually break the progression
        values += data.draw(st.lists(
            st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)), max_size=2))
        A = finite_set(values)
        assert is_arithmetic_progression(A) == reference_progression(A)

    def test_symbolic_rejected(self):
        with pytest.raises(NotRationalError):
            is_arithmetic_progression(finite_set([ExactScalar.ZERO, G1]))

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            is_arithmetic_progression(frozenset())


class TestJson:
    def test_round_trip(self):
        A = finite_set([0, Fraction(1, 2), G1])
        assert set_from_json(set_to_json(A)) == A

    def test_duplicates_rejected(self):
        with pytest.raises(Exception):
            set_from_json({"elements": ["1", "1/1"]})


class TestInequalitySuite:
    def test_equal_uniform_pair(self):
        U = uniform_on([0, 1])
        report = entropy_inequality_suite(U, U)
        assert report.h_u == 1.0 and report.h_v == 1.0
        assert report.h_sum == pytest.approx(1.5, abs=1e-12)
        assert report.h_diff == pytest.approx(1.5, abs=1e-12)
        assert report.slack_triple == pytest.approx(1.0, abs=1e-12)
        assert report.slack_mixed == pytest.approx(7 / 12, abs=1e-12)
        assert report.slack_combined == pytest.approx(1.25, abs=1e-12)

    def test_point_mass_edge(self):
        V = uniform_on([0, 3])
        report = entropy_inequality_suite(point_mass(5), V)
        assert report.h_u == 0.0
        assert report.h_sum == report.h_diff == 1.0
        assert report.slack_triple == pytest.approx(1.0, abs=1e-12)

    def test_slacks_nonnegative_on_corpus(self, rng):
        for _ in range(40):
            U = random_rational_dist(rng, min_support=2, max_support=8)
            V = random_rational_dist(rng, max_support=8)
            report = entropy_inequality_suite(U, V)
            assert report.slack_triple >= -1e-9
            assert report.slack_mixed >= -1e-9
            assert report.slack_combined >= -1e-9

    def test_json_shape(self):
        U = uniform_on([0, 1])
        obj = entropy_inequality_suite(U, U).to_json()
        assert {"h_u", "h_v", "h_sum", "h_diff", "slacks"} <= obj.keys()
        assert {"triple_difference", "mixed_half_two_thirds", "combined"} == obj["slacks"].keys()
