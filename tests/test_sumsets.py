"""Finite sumsets, progression detection, and the entropy inequality suite."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdof import (
    BudgetExceededError,
    ExactScalar,
    NotRationalError,
    ValidationError,
    as_scalar,
    convolve,
    entropy_bits,
    entropy_inequality_suite,
    finite_set,
    is_arithmetic_progression,
    linear_combination,
    point_mass,
    scale,
    set_from_json,
    set_to_json,
    sumset,
    support_set,
    uniform_on,
    weighted_on,
)
from icdof.dist import SupportSet
from conftest import random_rational_dist

G1 = ExactScalar.generator("g1")
G2 = ExactScalar.generator("g2")
G3 = ExactScalar.generator("g3")


def reference_sumset(A, B):
    """Slow twin of `sumset`: adds every pair of `ExactScalar`s."""
    return frozenset(a + b for a in A for b in B)


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


RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
SCALARS = {
    "integer": st.integers(-20, 20).map(as_scalar),
    "rational": RATIONALS.map(as_scalar),
    # the constant term and the coefficients of g1, g2 and g1*g2
    "symbolic": st.tuples(RATIONALS, st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
    .map(lambda t: t[0] + t[1] * G1 + t[2] * G2 + t[3] * G1 * G2),
}
SCALARS["mixed"] = st.one_of(*SCALARS.values())
# sums of rational multiples of the generators
SYMBOLIC_POINTS = st.lists(st.tuples(RATIONALS, st.sampled_from([G1, G2, G3])),
                           min_size=1, max_size=3).map(lambda terms: sum(c * g for c, g in terms))


def draw_set(data, kind):
    """A packed or a plain frozenset operand of 1 to 6 points of one kind."""
    points = data.draw(st.lists(SCALARS[kind], min_size=1, max_size=6))
    return finite_set(points) if data.draw(st.booleans()) else frozenset(points)


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

    def test_refuses_exactly_over_the_pair_budget(self):
        A, B = int_set(range(7)), int_set([Fraction(1, 3), 5, -2])
        message = "convolution needs 21 atom pairs, over the budget of 20"
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            sumset(A, B, budget=20)
        assert sumset(A, B, budget=21) == reference_sumset(A, B)

    def test_wide_keys_count_against_the_budget(self):
        # three monomials with coordinates near 10**6 need two 64-bit words
        # per key, so convolve refuses 16 pairs at a budget of 16 to 31
        A = finite_set([0, 1000000 * G1, 1000000 * G2 + 1000000 * G3, -999999 * G3])
        for budget in (16, 31):
            message = f"convolution needs 16 atom pairs of 2-word keys, over the budget of {budget}"
            with pytest.raises(BudgetExceededError, match=re.escape(message)):
                sumset(A, A, budget=budget)
        assert sumset(A, A, budget=32) == reference_sumset(A, A)

    def test_pair_and_word_refusals_read_alike(self):
        A = finite_set([0, 1000000 * G1, 1000000 * G2 + 1000000 * G3, -999999 * G3])
        refusals = []
        for budget in (15, 16):
            with pytest.raises(BudgetExceededError) as info:
                sumset(A, A, budget=budget)
            refusals.append(str(info.value))
        assert refusals == [
            "convolution needs 16 atom pairs, over the budget of 15",
            "convolution needs 16 atom pairs of 2-word keys, over the budget of 16",
        ]

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_reference_sumset(self, data):
        A = draw_set(data, data.draw(st.sampled_from(sorted(SCALARS))))
        B = draw_set(data, data.draw(st.sampled_from(sorted(SCALARS))))
        S = sumset(A, B)
        assert isinstance(S, SupportSet)
        reference = reference_sumset(A, B)
        assert S == reference and len(S) == len(reference)
        assert hash(S) == hash(reference)
        assert all(x in S for x in reference)
        probes = data.draw(st.lists(SCALARS["mixed"], max_size=4))
        assert [x in S for x in probes] == [x in reference for x in probes]

    @settings(max_examples=200)
    @given(st.data())
    def test_support_of_convolution(self, data):
        dists = []
        for _ in range(2):
            kind = data.draw(st.sampled_from(sorted(SCALARS)))
            points = list(dict.fromkeys(data.draw(st.lists(SCALARS[kind], min_size=1, max_size=6))))
            weights = data.draw(st.lists(st.integers(1, 9), min_size=len(points),
                                         max_size=len(points)))
            # a scaled distribution sits on a lattice `_pack` built, not `_born`
            c = data.draw(st.sampled_from([1, -1, Fraction(2, 3), G1]))
            dists.append(scale(c, weighted_on(points, weights)))
        U, V = dists
        S = sumset(support_set(U), support_set(V))
        assert S == support_set(convolve(U, V))
        assert S == reference_sumset(support_set(U), support_set(V))


class TestTrivialBounds:
    def test_on_random_integer_sets(self):
        rng = random.Random(5)
        for _ in range(30):
            A = int_set(rng.sample(range(-30, 31), rng.randint(1, 10)))
            B = int_set(rng.sample(range(-30, 31), rng.randint(1, 10)))
            assert max(len(A), len(B)) <= len(sumset(A, B)) <= len(A) * len(B)

    def test_on_symbolic_sets(self):
        A = finite_set([ExactScalar.ZERO, G1, 2 * G1 + 1])
        B = finite_set([as_scalar(1), G1])
        assert max(len(A), len(B)) <= len(sumset(A, B)) <= len(A) * len(B)

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
        form = data.draw(st.sampled_from(["packed", "plain", "sum", "cancelled"]))
        if form == "packed":
            A = finite_set(values)
        elif form == "plain":
            A = frozenset(map(as_scalar, values))
        elif form == "sum":  # a shift or a second set on another denominator
            other = data.draw(st.lists(RATIONALS, min_size=1, max_size=2))
            A = sumset(finite_set(values), finite_set(other))
        else:  # rational points on a symbolic lattice
            A = sumset(finite_set([x + G1 for x in values]), finite_set([-G1]))
        assert is_arithmetic_progression(A) == reference_progression(A)

    @pytest.mark.parametrize("a, b", [
        ([Fraction(-3, 4)], None),
        ([0], None),
        ([-9, -6, -3], None),
        ([Fraction(-7, 5), Fraction(-1, 5), 1], None),
        ([-4, -1, 0], None),
        # sums of sets on different denominators
        ([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2)]),
        ([Fraction(1, 6), Fraction(-1, 4)], [Fraction(1, 4), 0]),
        # rational sums of symbolic sets
        ([G1], [-G1]),
        ([G1 + 2 * G2 + 1, G1 + 2 * G2 + 4], [-G1 - 2 * G2, -G1 - 2 * G2 + Fraction(3, 2)]),
    ])
    def test_packed_edge_cases_match_reference(self, a, b):
        A = finite_set(a) if b is None else sumset(finite_set(a), finite_set(b))
        assert is_arithmetic_progression(A) == reference_progression(A)

    def test_symbolic_rejected(self):
        message = "progression test requires ordered rationals"
        for A in (finite_set([ExactScalar.ZERO, G1]), frozenset([ExactScalar.ZERO, G1]),
                  sumset(finite_set([G1, G1 + 1]), finite_set([-G1, 0]))):
            with pytest.raises(NotRationalError, match=message):
                is_arithmetic_progression(A)

    def test_empty_rejected(self):
        for A in (frozenset(), finite_set([])):
            with pytest.raises(ValidationError, match="empty set"):
                is_arithmetic_progression(A)


class TestSupportSet:
    POINTS = [0, -3, Fraction(1, 2), 2, Fraction(-1, 3)]

    def test_equality_with_frozensets_and_sets(self):
        S = finite_set(self.POINTS)
        plain = [as_scalar(x) for x in self.POINTS]
        for other in (frozenset(plain), set(plain)):
            assert S == other and other == S
            assert not (S != other) and not (other != S)
        for other in (frozenset(plain[1:]), set(plain + [as_scalar(7)])):
            assert S != other and other != S
        assert S == support_set(uniform_on(reversed(plain)))

    def test_hash_is_the_frozenset_hash(self):
        for points in (self.POINTS, [G1, 2 * G1 + 1, ExactScalar.ZERO], [Fraction(5, 7)]):
            S = finite_set(points)
            assert hash(S) == hash(frozenset(S)) == hash(frozenset(map(as_scalar, points)))
            assert len({S, frozenset(S)}) == 1

    def test_membership(self):
        S = finite_set(self.POINTS)
        for x in (-3, Fraction(1, 2), Fraction(4, 2), as_scalar(2), ExactScalar.ZERO,
                  as_scalar(Fraction(-1, 3))):
            assert x in S
        for x in (1, Fraction(1, 3), Fraction(-2, 3), as_scalar(10**30), G1, "2", 2.0, True):
            assert x not in S
        T = finite_set([G1, 2 * G1 + 1, Fraction(1, 2)])
        assert G1 in T and 2 * G1 + 1 in T and Fraction(1, 2) in T
        # T's keys are v_1 + 9*v_g1 over the denominator 2, so 9, with a
        # constant coordinate of 18, would alias g1's key without the reach check
        for x in (0, 9, 3 * G1, G2, G1 + Fraction(1, 2), G1 * G1, 2 * G1):
            assert x not in T

    def test_operators_return_frozensets(self):
        S = finite_set([0, 1, 2])
        T = finite_set([1, 2, Fraction(5, 2)])
        plain_s, plain_t = frozenset(S), frozenset(T)
        for packed, plain in (
            (S | T, plain_s | plain_t), (S & T, plain_s & plain_t), (S - T, plain_s - plain_t),
            (plain_s | T, plain_s | plain_t), (plain_s & T, plain_s & plain_t),
            (plain_s - T, plain_s - plain_t), (S ^ T, plain_s ^ plain_t),
        ):
            assert type(packed) is frozenset and packed == plain

    def test_json_order(self):
        # sort_key of 0 is (), so 0 comes first, then rationals in order, then g1
        S = finite_set([Fraction(1, 2), 3, G1, 0, -2, Fraction(-1, 3)])
        expected = ["0", "-2", "-1/3", "1/2", "3", "g1"]
        assert set_to_json(S) == {"elements": expected}
        assert set_to_json(frozenset(S)) == {"elements": expected}
        assert set_to_json(sumset(S, finite_set([0]))) == {"elements": expected}


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

    @settings(max_examples=150)
    @given(st.data())
    def test_inequalities_hold_on_symbolic_distributions(self, data):
        def draw_dist():
            support = data.draw(st.lists(SYMBOLIC_POINTS, min_size=1, max_size=6, unique=True))
            size = len(support)
            return weighted_on(support, data.draw(st.lists(st.integers(1, 20), min_size=size,
                                                           max_size=size)))

        U, V = draw_dist(), draw_dist()
        report = entropy_inequality_suite(U, V)
        assert min(report.slack_triple, report.slack_mixed, report.slack_combined) >= -1e-9
        assert min(report.h_sum, report.h_diff) >= max(report.h_u, report.h_v) - 1e-9
        assert report.h_sum == entropy_bits(linear_combination([1, 1], [U, V]))
        assert report.h_diff == entropy_bits(linear_combination([1, -1], [U, V]))

    def test_json_shape(self):
        U = uniform_on([0, 1])
        obj = entropy_inequality_suite(U, U).to_json()
        assert {"h_u", "h_v", "h_sum", "h_diff", "slacks"} <= obj.keys()
        assert {"triple_difference", "mixed_half_two_thirds", "combined"} == obj["slacks"].keys()
