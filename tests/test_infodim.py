"""Information dimension: the closed formula, exact truncations, and the
quantization-based empirical estimator."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import icdof.dist
from icdof import (
    BudgetExceededError,
    ExactScalar,
    IFSSpec,
    NotRationalError,
    ValidationError,
    empirical_infodim,
    entropy_bits,
    infodim_formula,
    recommended_quantization,
    support_set,
    truncated_dist,
)

CANTOR = IFSSpec.create(Fraction(1, 3), [0, 2], [Fraction(1, 2), Fraction(1, 2)])
DYADIC = IFSSpec.create(Fraction(1, 2), [0, 1], [Fraction(1, 2), Fraction(1, 2)])


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            IFSSpec.create(Fraction(3, 2), [0, 1], [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValidationError):
            IFSSpec.create(Fraction(1, 2), [0, 0], [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValidationError):
            IFSSpec.create(Fraction(1, 2), [0, 1], [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ValidationError):
            IFSSpec.create(Fraction(1, 2), [0], [Fraction(1)])


class TestFormula:
    def test_cantor(self):
        assert infodim_formula(CANTOR) == pytest.approx(math.log2(2) / math.log2(3), abs=1e-12)

    def test_full_dimension_clamps_at_one(self):
        assert infodim_formula(DYADIC) == 1.0
        rich = IFSSpec.create(
            Fraction(1, 2), [0, 1, 2, 3], [Fraction(1, 4)] * 4
        )
        assert infodim_formula(rich) == 1.0  # H = 2 > log2(1/r) = 1

    def test_fine_contraction(self):
        quarter = IFSSpec.create(Fraction(1, 4), [0, 1], [Fraction(1, 2), Fraction(1, 2)])
        assert infodim_formula(quarter) == pytest.approx(0.5, abs=1e-12)

    def test_skewed_probabilities(self):
        skewed = IFSSpec.create(Fraction(1, 3), [0, 2], [Fraction(1, 4), Fraction(3, 4)])
        expected = entropy_bits(skewed.offset_dist()) / math.log2(3)
        assert infodim_formula(skewed) == pytest.approx(expected, abs=1e-12)


class TestTruncation:
    def test_single_term_is_the_offset_dist(self):
        assert truncated_dist(CANTOR, 1) == CANTOR.offset_dist()

    def test_dyadic_three_terms(self):
        X = truncated_dist(DYADIC, 3)
        assert len(X) == 8
        values = sorted(v.as_fraction() for v in support_set(X))
        assert values == [Fraction(k, 4) for k in range(8)]

    def test_cantor_two_terms(self):
        X = truncated_dist(CANTOR, 2)
        values = {v.as_fraction() for v in support_set(X)}
        assert values == {Fraction(0), Fraction(2, 3), Fraction(2), Fraction(8, 3)}
        assert all(p == Fraction(1, 4) for _, p in X.items())

    def test_refusal_forms_only_the_keys_it_needs(self, monkeypatch):
        # `infodim --m 16000` at r = 1/3, w = {0, 1} in small: keys of 317
        # bits need 5 words, and the step of 256 pairs is the first refused
        formed = []

        class SpyKey(int):
            def __mul__(self, other):
                formed.append(self)
                return int(self) * other

        ifs = IFSSpec.create(Fraction(1, 3), [0, 1], [Fraction(1, 2)] * 2)
        W = ifs.offset_dist()
        spied = icdof.dist._new(
            W._lattice, {SpyKey(k): w for k, w in W._weights.items()}, W._denominator, W._reach)
        monkeypatch.setattr(IFSSpec, "offset_dist", lambda self: spied)
        m, budget = 200, 1000
        with pytest.raises(BudgetExceededError) as new:
            truncated_dist(ifs, m, budget=budget)
        # the text of forming every term's keys first
        every_key = list(icdof.dist._pack([(ExactScalar.rational(ifs.r**k), W) for k in range(m)]))
        with pytest.raises(BudgetExceededError) as old:
            icdof.dist._sum(iter(every_key), budget)
        assert str(new.value) == str(old.value) == (
            "convolution needs 256 atom pairs of 5-word keys, over the budget of 1000")
        assert len(formed) == 2 * 8  # terms 0 to 7: the sum so far and the refused step's


class TestEmpirical:
    def test_dyadic_hits_full_dimension(self):
        m = 16
        k = recommended_quantization(DYADIC, m)
        assert k == 2**15
        estimate = empirical_infodim(DYADIC, m, k)
        assert estimate == pytest.approx(1.0, abs=0.02)

    def test_cantor_converges(self):
        estimate = empirical_infodim(CANTOR, 12, 3**8)
        assert estimate == pytest.approx(infodim_formula(CANTOR), abs=0.02)

    def test_refinement_improves(self):
        coarse = empirical_infodim(CANTOR, 4, 3**2)
        fine = empirical_infodim(CANTOR, 10, 3**7)
        target = infodim_formula(CANTOR)
        assert abs(fine - target) <= abs(coarse - target) + 1e-9

    def test_near_deterministic(self):
        eps = Fraction(1, 2**20)
        spiky = IFSSpec.create(Fraction(1, 2), [0, 1], [1 - eps, eps])
        estimate = empirical_infodim(spiky, 12, recommended_quantization(spiky, 12))
        assert estimate == pytest.approx(infodim_formula(spiky), abs=0.05)

    def test_guard_warns_but_still_returns(self):
        with pytest.warns(UserWarning):
            value = empirical_infodim(CANTOR, 2, 1000)
        assert math.isfinite(value)

    def test_symbolic_offsets_rejected(self):
        g = ExactScalar.generator("g1")
        symbolic = IFSSpec.create(Fraction(1, 2), [ExactScalar.ZERO, g], [Fraction(1, 2), Fraction(1, 2)])
        assert math.isfinite(infodim_formula(symbolic))
        with pytest.raises(NotRationalError):
            empirical_infodim(symbolic, 4, 16)

    def test_quantization_floor(self):
        with pytest.raises(ValidationError):
            empirical_infodim(CANTOR, 4, 1)


class TestRecommendedQuantization:
    def test_cantor_values(self):
        assert recommended_quantization(CANTOR, 8) == 2187  # 3^7
        assert recommended_quantization(CANTOR, 2) == 3

    def test_never_below_two(self):
        assert recommended_quantization(CANTOR, 1) >= 2
