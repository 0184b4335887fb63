"""Information dimension: the closed formula, exact truncations, and the
quantization-based empirical estimator."""

from __future__ import annotations

import gc
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icdof.dist
from icdof import (
    BudgetExceededError,
    ExactScalar,
    IFSSpec,
    NotRationalError,
    ValidationError,
    as_scalar,
    empirical_infodim,
    entropy_bits,
    infodim_formula,
    recommended_quantization,
    support_set,
    truncated_dist,
)
from icdof.dist import floor_dist
from conftest import PowerSpy, counting_merge, reference_empirical_infodim, reference_truncation

CANTOR = IFSSpec.create(Fraction(1, 3), [0, 2], [Fraction(1, 2), Fraction(1, 2)])
DYADIC = IFSSpec.create(Fraction(1, 2), [0, 1], [Fraction(1, 2), Fraction(1, 2)])
G1 = ExactScalar.generator("g1")
OVERLAP = IFSSpec.create(Fraction(1, 3), [0, 1, 3], [Fraction(1, 3)] * 3)  # Kenyon's {0, 1, 3}
DENSE = IFSSpec.create(Fraction(1, 2), [0, 1, 2, 3], [Fraction(1, 10), Fraction(2, 10),
                                                      Fraction(3, 10), Fraction(4, 10)])


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

    def test_needs_one_term(self):
        with pytest.raises(ValidationError) as info:
            truncated_dist(CANTOR, 0)
        assert str(info.value) == "need m >= 1, got 0"

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
        # `infodim --m 16000` at r = 1/3, w = {0, 1} in small: after X_2, X_3
        # and X_6, the step X_12 = X_6 + r^6 X_6 is the first over the budget
        forms, steps = [], []  # per linear form [terms, terms placed]; admitted pairs
        pack = icdof.dist._pack

        def spy_pack(terms, budget=None):
            forms.append(form := [len(terms), 0])
            for term in pack(terms, budget):  # a placed term's keys are formed
                form[1] += 1
                yield term

        monkeypatch.setattr(icdof.dist, "_pack", spy_pack)
        monkeypatch.setattr(icdof.dist, "_merge", counting_merge(steps))
        ifs = IFSSpec.create(Fraction(1, 3), [0, 1], [Fraction(1, 2)] * 2)
        budget = 1000
        with pytest.raises(BudgetExceededError) as info:
            truncated_dist(ifs, 200, budget=budget)
        assert str(info.value) == "convolution needs 4096 atom pairs, over the budget of 1000"
        assert steps == [4, 8, 64] and max(steps) <= budget
        # no lattice of more than two terms, and none of the refused step's keys
        assert forms == [[2, 2]] * 3 + [[2, 0]]

    def test_leaves_no_cyclic_garbage(self):
        truncated_dist(CANTOR, 10)  # warm up
        gc.collect()
        gc.disable()
        try:
            truncated_dist(CANTOR, 10)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_the_left_fold(self, data):
        q = data.draw(st.integers(2, 6))
        r = Fraction(data.draw(st.integers(1, q - 1)), q)
        rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
        offsets = data.draw(st.lists(
            st.one_of(rationals, st.builds(lambda o: o + G1, rationals)),
            min_size=2, max_size=4, unique=True))
        weights = [data.draw(st.integers(1, 9)) for _ in offsets]
        ifs = IFSSpec.create(r, offsets, [Fraction(w, sum(weights)) for w in weights])
        m = data.draw(st.integers(1, 7))
        X, fold = truncated_dist(ifs, m), reference_truncation(ifs, m)
        assert X == fold
        assert entropy_bits(X) == entropy_bits(fold)


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

    def test_guard_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning) as record:
            empirical_infodim(CANTOR, 2, 1000)
        assert [w.filename for w in record] == [__file__]

    def test_symbolic_offsets_rejected(self):
        g = ExactScalar.generator("g1")
        symbolic = IFSSpec.create(Fraction(1, 2), [ExactScalar.ZERO, g], [Fraction(1, 2), Fraction(1, 2)])
        assert math.isfinite(infodim_formula(symbolic))
        for k in (16, None):  # one refusal, whether or not the factor is given
            with pytest.raises(NotRationalError, match="the empirical path requires rational"):
                empirical_infodim(symbolic, 4, k)
            with pytest.raises(ValidationError, match="need m >= 1, got 0") as info:
                empirical_infodim(symbolic, 0, k)
            assert type(info.value) is ValidationError

    @pytest.mark.parametrize("k", [3, 2**64, None])  # None: the recommended factor
    def test_refused_before_r_to_the_m(self, k):
        # at m = 10^7, r^m has 4.8 million digits and took seconds to form;
        # the truncation is refused after a few small steps, before any
        # power of r at or past m is taken
        r = PowerSpy(1, 3)
        ifs = IFSSpec(r, (as_scalar(0), as_scalar(1)), (Fraction(1, 2),) * 2)
        m = 10**7
        with pytest.raises(BudgetExceededError) as info:
            empirical_infodim(ifs, m, k)
        assert str(info.value) == (
            "convolution needs 274877906944 atom pairs, over the budget of 5000000")
        assert r.exponents and max(r.exponents) < m

    @pytest.mark.parametrize("ifs", [CANTOR, OVERLAP, DENSE], ids=["cantor", "overlap", "dense"])
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_matches_the_fraction_floors(self, ifs, m):
        # the last step floored pair by pair reads the same float as flooring
        # each atom of X_m
        for k in (recommended_quantization(ifs, m), 3**m + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert empirical_infodim(ifs, m, k) == reference_empirical_infodim(ifs, m, k)

    @pytest.mark.parametrize("ifs, atoms", [(CANTOR, 2**16), (DENSE, 3 * 2**16 - 2)],
                             ids=["cantor", "dense"])
    def test_never_holds_the_truncation(self, monkeypatch, ifs, atoms):
        # X_16 has 2^16 atoms on the Cantor set and 196606 on the dense one,
        # where `_merge` takes its steps as `_kronecker`'s product; the
        # estimator holds the two halves of X_16 and the cells, never a
        # weights dict of X_16
        sizes = []
        new, merge, kronecker = icdof.dist._new, icdof.dist._merge, icdof.dist._kronecker

        def spy_new(lattice, weights, denominator, reach):
            sizes.append(len(weights))
            return new(lattice, weights, denominator, reach)

        def spy_merge(a, b):
            sizes.append(len(merged := merge(a, b)))
            return merged

        def spy_kronecker(a, b):
            merged = kronecker(a, b)
            sizes.append(0 if merged is None else len(merged))
            return merged

        monkeypatch.setattr(icdof.dist, "_new", spy_new)
        monkeypatch.setattr(icdof.dist, "_merge", spy_merge)
        monkeypatch.setattr(icdof.dist, "_kronecker", spy_kronecker)
        k = recommended_quantization(ifs, 16)
        estimate = empirical_infodim(ifs, 16, k)
        assert sizes and max(sizes) < atoms
        X = truncated_dist(ifs, 16)  # the spies see the truncation itself
        assert len(X) == max(sizes) == atoms
        assert estimate == entropy_bits(floor_dist(k * ifs.r, X)) / math.log2(k)

    @pytest.mark.parametrize("k", [3, None])
    @pytest.mark.parametrize("r, budget, message", [
        (Fraction(1, 3), 1000, "convolution needs 4096 atom pairs, over the budget of 1000"),
        (Fraction(1, 3**20), 5000,  # 4096 pairs, each of a 6-word key
         "convolution needs 4096 atom pairs of 6-word keys, over the budget of 5000"),
    ])
    def test_last_step_refused_before_r_to_the_m(self, k, r, budget, message):
        # X_12 = X_6 + r^6 X'_6 is the first step over the budget: it is
        # refused, as `truncated_dist` refuses it, before any r^j with j >= m
        ifs = IFSSpec(PowerSpy(r), (as_scalar(0), as_scalar(1)), (Fraction(1, 2),) * 2)
        m = 12
        with pytest.raises(BudgetExceededError) as info:
            empirical_infodim(ifs, m, k, budget)
        assert str(info.value) == message
        assert ifs.r.exponents and max(ifs.r.exponents) < m
        with pytest.raises(BudgetExceededError) as info:
            truncated_dist(ifs, m, budget)
        assert str(info.value) == message

    def test_recommended_factor_is_reported(self):
        # without k the estimate is taken at the recommended factor
        assert recommended_quantization(CANTOR, 8) == 2187
        assert empirical_infodim(CANTOR, 8, k=None) == empirical_infodim(CANTOR, 8, 2187)

    def test_quantization_floor(self):
        with pytest.raises(ValidationError):
            empirical_infodim(CANTOR, 4, 1)

    def test_fractional_m_and_float_k_are_refused(self):
        # a fractional m halves towards 0 forever; a float k cannot be floored exactly
        for call, message in (
            (lambda: truncated_dist(CANTOR, 2.5), "need an integer m, got 2.5"),
            (lambda: truncated_dist(CANTOR, 4.0), "need an integer m, got 4.0"),
            (lambda: empirical_infodim(CANTOR, Fraction(5, 2)), "need an integer m, got 5/2"),
            (lambda: empirical_infodim(CANTOR, 4, 2.5),
             "need an integer or Fraction quantization factor k, got 2.5"),
        ):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                call()
        assert truncated_dist(CANTOR, Fraction(4)) == truncated_dist(CANTOR, 4)
        assert empirical_infodim(CANTOR, 4, Fraction(9)) == empirical_infodim(CANTOR, 4, 9)


class TestRecommendedQuantization:
    def test_cantor_values(self):
        assert recommended_quantization(CANTOR, 8) == 2187  # 3^7
        assert recommended_quantization(CANTOR, 2) == 3

    def test_never_below_two(self):
        assert recommended_quantization(CANTOR, 1) >= 2
