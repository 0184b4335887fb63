"""Bound formulas: clamped entropy differences, certified constructions,
closed-form floors, and the two-user and K-user entropy ratios."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

import icdof.bounds
import icdof.dist
from icdof import (
    BudgetExceededError,
    ChannelMatrix,
    ConditionStarViolationError,
    ExactScalar,
    ValidationError,
    convolve,
    entropy_bits,
    hlambda_bound,
    integer_example_bound,
    linear_combination,
    nonasymptotic_floor,
    phi,
    point_mass,
    prop1_bound,
    prop4_dist,
    scale,
    theorem1_certified_bound,
    theorem3_ratio,
    uniform_on,
)
from icdof.channel import build_wn
from icdof.bounds import SPLIT_TOL, BoundReport, _certified_report, _clamped_terms, _user_entropies
from conftest import counting_convolve, random_rational_dist


def hlambda_matrix(lam) -> ChannelMatrix:
    return ChannelMatrix.from_rows([[1, 0, 0], [1, Fraction(lam), 0], [1, 1, 1]])


class TestProp1Bound:
    def test_point_masses_give_zero(self):
        H = ChannelMatrix.generic(3)
        report = prop1_bound(H, [point_mass(1)] * 3, r_log=4.0)
        assert report.bound == 0.0
        assert all(term == (0.0, 0.0, 0.0) for term in report.per_user_terms)

    def test_requires_positive_resolution(self):
        H = ChannelMatrix.generic(2)
        with pytest.raises(ValidationError):
            prop1_bound(H, [point_mass(0)] * 2, r_log=0.0)

    def test_wrong_user_count(self):
        with pytest.raises(ValidationError):
            prop1_bound(ChannelMatrix.generic(3), [point_mass(0)] * 2, r_log=1.0)


class TestTheorem1Certified:
    def test_needs_two_points(self):
        with pytest.raises(ValidationError) as info:
            theorem1_certified_bound(ChannelMatrix.generic(2), 0, 1)
        assert str(info.value) == "need N >= 2, got 1 (the floor formula needs log N > 0)"

    def test_two_users_degree_zero(self):
        report = theorem1_certified_bound(ChannelMatrix.generic(2), 0, 2)
        assert report.bound == pytest.approx(1.0, abs=1e-12)
        assert report.r_log == pytest.approx(2.0, abs=1e-12)
        for full, interference, clamped in report.per_user_terms:
            assert full == pytest.approx(2.0, abs=1e-12)
            assert interference == pytest.approx(1.0, abs=1e-12)
            assert clamped == pytest.approx(0.5, abs=1e-12)

    def test_two_users_degree_one(self):
        report = theorem1_certified_bound(ChannelMatrix.generic(2), 1, 4)
        assert report.r_log == pytest.approx(2 * phi(2, 1) * 2, abs=1e-12)
        assert 0.0 < report.bound <= 1.0 + 1e-9

    def test_rational_matrix_raises_with_witness(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(ConditionStarViolationError) as excinfo:
            theorem1_certified_bound(H, 1, 2)
        assert "witness" in excinfo.value.payload

    def test_refused_before_the_alphabet_is_built(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("build_wn reached for a refused job")

        monkeypatch.setattr(icdof.bounds, "build_wn", fail)
        with pytest.raises(BudgetExceededError) as excinfo:
            theorem1_certified_bound(ChannelMatrix.generic(3), 1, 4)
        assert str(excinfo.value) == (
            "convolution needs 268435456 atom pairs, over the budget of 5000000"
        )

    def test_pair_count_is_exact(self):
        # |W| = 4, and user 1's first convolution pairs 4 * 4 atoms
        H = ChannelMatrix.generic(2)
        theorem1_certified_bound(H, 0, 4, budget=16)
        with pytest.raises(BudgetExceededError, match="needs 16 atom pairs"):
            theorem1_certified_bound(H, 0, 4, budget=15)

    def test_condition_violation_is_reported_before_the_budget(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        # 4^7 = 16384 values fit the budget, their 16384^2 pairs do not
        with pytest.raises(ConditionStarViolationError):
            theorem1_certified_bound(H, 1, 4, budget=20_000)

    def test_not_fully_connected_rejected(self):
        with pytest.raises(ValidationError, match="connected"):
            theorem1_certified_bound(hlambda_matrix(-1), 0, 2)


def user_dists(H, W, i, budget):
    """Slow twin of a user's entropy routine: user i's (interference, full)
    outputs enumerated with `linear_combination`, the full output first, its
    terms in the order cross terms, then signal, so that its steps are
    refused as the enumeration before `split_entropies` refused them. The
    zero coefficients are dropped, and a row without cross terms has a point
    mass at 0 for interference."""
    row = H.row(i)
    cross = [(c, d) for j, (c, d) in enumerate(zip(row, W)) if j != i and c != 0]
    coeffs, dists = zip(*(cross or [(1, point_mass(0))]))
    full = linear_combination([*coeffs, row[i]], [*dists, W[i]], budget=budget)
    return linear_combination(coeffs, dists, budget=budget), full


class TestUserDists:
    def test_matches_decoded_distributions(self, rng):
        # reference: the interference from the cross terms alone (a point
        # mass at 0 without any), the full output from the whole row
        g = ExactScalar.generator("g")
        H = ChannelMatrix.from_rows([[g, 2, 0], [0, 0, 0], [1, g + 1, Fraction(-1, 3)]])
        W = [random_rational_dist(rng, min_support=2, max_support=5) for _ in range(3)]
        splits = list(_user_entropies(H, W, 10**6))
        for i in range(3):
            row = H.row(i)
            cross = [(c, d) for j, (c, d) in enumerate(zip(row, W)) if j != i and c != 0]
            interference = linear_combination(*zip(*cross)) if cross else point_mass(0)
            full = linear_combination(row, W) if any(c != 0 for c in row) else point_mass(0)
            assert user_dists(H, W, i, 10**6) == (interference, full)
            # sizes and entropies from the packed weights
            assert splits[i] == (
                entropy_bits(interference), entropy_bits(full), len(interference), len(full))
            # the certified split reads the signal's size and entropy off W[i]
            if row[i] != 0:
                signal = scale(row[i], W[i])
                assert (len(signal), entropy_bits(signal)) == (len(W[i]), entropy_bits(W[i]))


def reference_user_entropies(H, W, budget):
    """Slow twin of `_user_entropies`, enumerated with `user_dists`."""
    if len(W) != H.K:
        raise ValidationError(f"{len(W)} input distributions for K={H.K} users")
    for i in range(H.K):
        interference, full = user_dists(H, W, i, budget)
        yield entropy_bits(interference), entropy_bits(full), len(interference), len(full)


def reference_certified_report(H, W_dist, r_log, budget, params, closed_form) -> BoundReport:
    """Slow twin of `_certified_report`: enumerate every user's full output
    with `user_dists`, then count its atoms and check the entropy gap."""
    entropies = []
    for i in range(H.K):
        interference, full = user_dists(H, [W_dist] * H.K, i, budget)
        if len(full) != len(W_dist) * len(interference):
            raise RuntimeError(
                "entropy split violated: joint support does not factor "
                f"({len(full)} != {len(W_dist)} * {len(interference)})"
            )
        h_full, h_intf = entropy_bits(full), entropy_bits(interference)
        gap = abs(h_full - entropy_bits(W_dist) - h_intf)
        if gap > SPLIT_TOL:
            raise RuntimeError(f"entropy split off by {gap:.3e} despite support factorization")
        entropies.append((h_intf, h_full))
    terms, bound = _clamped_terms(entropies, r_log)
    return BoundReport(bound, terms, r_log, params=params, closed_form=closed_form)


def outcome(job) -> dict:
    """A bound's report (or ratio), or its error type and message."""
    try:
        result = job()
    except (BudgetExceededError, RuntimeError, ValidationError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"report": result.to_json() if isinstance(result, BoundReport) else result}


def with_oracle(monkeypatch, job) -> dict:
    """The outcome of `job` with the per-user entropies and the certified
    driver replaced by their twins."""
    with monkeypatch.context() as patch:
        patch.setattr(icdof.bounds, "_user_entropies", reference_user_entropies)
        patch.setattr(icdof.bounds, "_certified_report", reference_certified_report)
        return outcome(job)


G = ExactScalar.generator("g")


def random_entry(rng: random.Random, i: int, j: int) -> ExactScalar:
    """Zero, rational, a fresh generator, or a polynomial in the shared
    generator g, which the symbolic inputs also use."""
    kind = rng.randrange(4)
    if kind == 0:
        return ExactScalar.rational(0)
    if kind == 1:
        return ExactScalar.rational(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)))
    if kind == 2:
        return ExactScalar.generator(f"h_{i + 1}_{j + 1}")
    return G + rng.randint(-1, 1)


def random_input(rng: random.Random):
    if rng.random() < 0.7:
        return random_rational_dist(rng, min_support=1, max_support=4, value_span=4)
    points = {G * rng.randint(-2, 2) + rng.randint(-2, 2) for _ in range(rng.randint(1, 4))}
    return uniform_on(sorted(points, key=ExactScalar.sort_key))


def random_channels(seed: int, count: int):
    """K = 2 or 3 channels with zero, rational, generator and polynomial
    entries (zero diagonals included), some with a zero row."""
    rng = random.Random(seed)
    for _ in range(count):
        K = rng.randint(2, 3)
        rows = [[random_entry(rng, i, j) for j in range(K)] for i in range(K)]
        if rng.random() < 0.15:
            rows[rng.randrange(K)] = [0] * K
        yield ChannelMatrix.from_rows(rows), [random_input(rng) for _ in range(K)]


def bound_jobs(H, W, budget):
    return (lambda: prop1_bound(H, W, 3.0, budget=budget),
            lambda: theorem3_ratio(H, W, budget=budget))


class TestEntropiesMatchEnumeration:
    """`prop1_bound` and `theorem3_ratio` against the enumerating twin:
    the same reports, ratios and refusals, compared by `==`."""

    def test_generator_diagonals_never_build_the_full_sum(self, monkeypatch, rng):
        for K in (2, 3):
            H = ChannelMatrix.generic(K)
            W = [random_rational_dist(rng, min_support=2, max_support=5) for _ in range(K)]
            calls: list = []
            with monkeypatch.context() as patch:
                patch.setattr(icdof.dist, "convolve", counting_convolve(calls))
                results = [outcome(job) for job in bound_jobs(H, W, 10**6)]
            # per user, the cross step at K = 3 (none at K = 2), and no
            # step of |I| * |W_i| pairs
            sizes = [[len(W[j]) for j in range(K) if j != i] for i in range(K)]
            cross_steps = [a * b for a, b in sizes] if K == 3 else []
            assert calls == cross_steps * 2  # prop1_bound, then theorem3_ratio
            assert results == [with_oracle(monkeypatch, job) for job in bound_jobs(H, W, 10**6)]

    def test_random_channels_match_enumeration(self, monkeypatch):
        for H, W in random_channels(seed=11, count=80):
            for job in bound_jobs(H, W, 10**6):
                assert outcome(job) == with_oracle(monkeypatch, job)

    def test_refused_at_the_budgets_of_the_enumerated_steps(self, monkeypatch):
        edge_cases = [
            # h_11 = 0 and one cross term: user 1 takes no step at all
            (ChannelMatrix.from_rows([[0, G], [1, 2]]), [uniform_on(range(3)), uniform_on(range(5))]),
            # h_11 != 0 with W_1 = {0}: user 1 still takes its |I| * 1 step
            (ChannelMatrix.from_rows([[3, G], [1, 0]]), [point_mass(0), uniform_on(range(5))]),
            # a zero row, and a row whose only nonzero entry is its diagonal
            (ChannelMatrix.from_rows([[0, 0, 0], [0, G, 0], [1, 2, 3]]),
             [uniform_on(range(2)), uniform_on(range(3)), uniform_on(range(4))]),
        ]
        compared = 0
        for H, W in [*edge_cases, *random_channels(seed=12, count=60)]:
            steps: list = []
            with monkeypatch.context() as patch:
                patch.setattr(icdof.dist, "convolve", counting_convolve(steps))
                with_oracle(patch, bound_jobs(H, W, 10**6)[0])
            for budget in sorted({b for p in steps for b in (p - 1, p)} - {0}):
                for job in bound_jobs(H, W, budget):
                    expected = with_oracle(monkeypatch, job)
                    compared += "error" in expected
                    assert outcome(job) == expected
        assert compared > 50  # the budgets do refuse


def integer_tables(seed: int, count: int):
    rng = random.Random(seed)
    for t in range(count):
        K = 3 + t % 3
        table = [[0 if i == j else rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                  for j in range(K)] for i in range(K)]
        yield K, table, rng.randint(2, 4)


class TestCertifiedReport:
    def test_split_that_does_not_factor_is_refused(self):
        # {0,1} + {0,1} = {0,1,2}: three sums for 2 x 2 pairs
        H = ChannelMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(RuntimeError, match="does not factor"):
            _certified_report(H, uniform_on([0, 1]), 1.0, 100, params={}, closed_form=0.0)

    @pytest.mark.parametrize("K, d, N", [
        (2, 0, 2), (2, 0, 3), (2, 0, 4), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3),
        (2, 2, 4), (3, 0, 2), (3, 0, 3), (3, 0, 4), (3, 0, 5), (3, 0, 6), (3, 1, 2),
        (4, 0, 2), (4, 0, 3), (4, 0, 4),
    ])
    def test_generic_matches_enumeration(self, monkeypatch, K, d, N):
        # (2, 2, 4) is refused on both paths, by its 4096 * 4096 pairs
        job = lambda: theorem1_certified_bound(ChannelMatrix.generic(K), d, N)
        assert outcome(job) == with_oracle(monkeypatch, job)

    def test_integer_tables_match_enumeration(self, monkeypatch):
        for K, table, N in integer_tables(seed=5, count=9):
            job = lambda: integer_example_bound(K, table, N)
            assert outcome(job) == with_oracle(monkeypatch, job)

    def test_overlapping_monomials_fall_back_to_enumeration(self, monkeypatch):
        # user 1's signal (b + e) * W and its interference b * W share the
        # monomial b, so the split is counted: the full step is built
        b, c, e, f = map(ExactScalar.generator, "bcef")
        H = ChannelMatrix.from_rows([[b + e, b], [c, f]])
        calls: list = []
        monkeypatch.setattr(icdof.dist, "convolve", counting_convolve(calls))
        job = lambda: theorem1_certified_bound(H, 1, 2)
        result = outcome(job)
        # W's two alphabet steps (2 * 2, 4 * 2), then user 1 only: |I| * |W| = 8 * 8
        assert calls == [4, 8, 64]
        assert result == with_oracle(monkeypatch, job)
        # a rational split that happens to be injective: {0,1} + {0,2}
        report = _certified_report(ChannelMatrix.from_rows([[2, 1], [1, 2]]), uniform_on([0, 1]),
                                   1.0, 100, params={}, closed_form=0.0)
        assert report.per_user_terms == ((2.0, 1.0, 0.0),) * 2

    @pytest.mark.parametrize("d, N", [(0, 2), (0, 3), (1, 2), (1, 3)])
    def test_two_term_entries_match_enumeration(self, monkeypatch, d, N):
        # (g12 + 1) * W maps each digit to two monomials, and g12 * 1 = 1 * g12
        # collide, so the inputs are placed point by point
        g11, g12, g21, g22 = map(ExactScalar.generator, ["h_1_1", "h_1_2", "h_2_1", "h_2_2"])
        H = ChannelMatrix.from_rows([[g11, g12 + 1], [g21 + 1, g22]])
        W = build_wn(H, d, N)
        jobs = [lambda: theorem1_certified_bound(H, d, N),
                lambda: prop1_bound(H, [W, W], 3.0),
                lambda: theorem1_certified_bound(H, d, N, budget=len(W) ** 2 - 1)]
        for job in jobs:
            assert outcome(job) == with_oracle(monkeypatch, job)

    def test_generic_theorem1_never_builds_the_full_sum(self, monkeypatch):
        calls: list = []
        monkeypatch.setattr(icdof.dist, "convolve", counting_convolve(calls))
        for K, d, N in ((2, 1, 3), (3, 0, 3), (3, 1, 2), (4, 0, 2)):
            calls.clear()
            size = N ** phi(K, d)
            theorem1_certified_bound(ChannelMatrix.generic(K), d, N)
            # W's phi - 1 alphabet steps, then per user the K - 2 cross steps
            # (no merging yet in these cases) and no step of |I| * |W| pairs
            alphabet = [N ** k * N for k in range(1, phi(K, d))]
            assert calls == alphabet + [size ** k * size for k in range(1, K - 1)] * K
        for K, table, N in integer_tables(seed=5, count=3):
            calls.clear()
            integer_example_bound(K, table, N)
            assert len(calls) == K * (K - 2)  # the cross steps only

    def test_generic_theorem1_forms_no_signal_key(self, monkeypatch):
        # a proved split reads the signal's weights, never its keys: each of
        # the K users forms the keys of its K - 1 cross terms, one product
        # per alphabet point and coordinate, and none of its signal term
        formed = []
        monkeypatch.setattr(icdof.dist, "mul", lambda a, b: formed.append(a) or a * b)
        for K, d, N in ((2, 1, 3), (3, 1, 2)):
            formed.clear()
            W = build_wn(ChannelMatrix.generic(K), d, N)
            theorem1_certified_bound(ChannelMatrix.generic(K), d, N)
            assert len(formed) == K * (K - 1) * len(W) * len(W._lattice.basis)

    @pytest.mark.parametrize("K, d, N", [(2, 1, 2), (3, 0, 3), (3, 1, 2)])
    def test_full_step_refused_as_enumeration_refuses_it(self, monkeypatch, K, d, N):
        H = ChannelMatrix.generic(K)
        W = build_wn(H, d, N)
        interference = linear_combination(H.row(0)[1:], [W] * (K - 1))
        pairs = len(interference) * len(W)  # of user 1's full step
        refused = outcome(lambda: theorem1_certified_bound(H, d, N, budget=pairs))
        wide = re.search(r"of (\d+)-word keys", refused.get("message", ""))
        words = int(wide.group(1)) if wide else 1
        for budget in sorted({pairs - 1, pairs, pairs * words - 1} - {pairs * words}):
            job = lambda: theorem1_certified_bound(H, d, N, budget=budget)
            result = outcome(job)
            assert "error" in result
            assert result == with_oracle(monkeypatch, job)
        assert "report" in outcome(lambda: theorem1_certified_bound(H, d, N, budget=pairs * words))


class TestFloor:
    def test_known_values(self):
        assert nonasymptotic_floor(3, 3, 4) == pytest.approx(-2.625, abs=1e-12)
        assert nonasymptotic_floor(3, 1, 2) == pytest.approx(-9.0, abs=1e-12)

    def test_closed_form_along_doubling_grid(self):
        # with N = 2^d the K=3 floor reduces to 1.5 - 10.5/d
        for d in (2, 10, 100, 1000):
            assert nonasymptotic_floor(3, d, 2**d) == pytest.approx(
                1.5 - 10.5 / d, abs=1e-9
            )

    def test_large_parameters_approach_capacity_half(self):
        value = nonasymptotic_floor(3, 1000, 2**1000)
        assert 1.4 < value < 1.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            nonasymptotic_floor(1, 1, 2)
        with pytest.raises(ValidationError):
            nonasymptotic_floor(3, -1, 2)
        with pytest.raises(ValidationError):
            nonasymptotic_floor(3, 1, 1)

    def test_parameters_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="too large"):
            nonasymptotic_floor(10**400, 0, 2)
        with pytest.raises(ValidationError, match="too large"):
            nonasymptotic_floor(3, 10**400, 2)


class TestIntegerExample:
    def test_all_ones_matches_closed_form(self):
        for N, expected in ((2, 0.4184144184766949), (4, 0.6543128759565946)):
            report = integer_example_bound(3, [[1] * 3] * 3, N)
            assert report.bound == pytest.approx(expected, abs=1e-12)
            assert report.bound == pytest.approx(report.closed_form, abs=1e-9)

    def test_two_user_mixed_entries(self):
        offdiag = [[0, 2], [3, 0]]  # diagonal slots are ignored
        report = integer_example_bound(2, offdiag, 4)
        assert report.bound == pytest.approx(0.35810446350208275, abs=1e-12)
        h_max = 3
        closed = 2 * math.log2(4) / (2 * math.log2(2 * h_max * 2 * 4))
        assert report.closed_form == pytest.approx(closed, abs=1e-12)

    def test_needs_one_point(self):
        with pytest.raises(ValidationError) as info:
            integer_example_bound(2, [[0, 1], [1, 0]], 0)
        assert str(info.value) == "need N >= 1, got 0"

    def test_zero_offdiagonal_rejected(self):
        with pytest.raises(ValidationError):
            integer_example_bound(2, [[0, 0], [1, 0]], 2)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            integer_example_bound(2, [[0, 1.5], [1, 0]], 2)

    def test_single_point_inputs(self):
        report = integer_example_bound(2, [[0, 1], [1, 0]], 1)
        assert report.bound == 0.0
        assert report.closed_form == 0.0


class TestTheorem3Ratio:
    def test_uniform_plus_point_mass(self):
        H = ChannelMatrix.generic(2)
        ratio = theorem3_ratio(H, [uniform_on([0, 1]), point_mass(0)])
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_generic_matrix_ratio_is_one(self, rng):
        # independent generic coefficients make output entropies additive,
        # so the sum of per-user gaps telescopes to the max
        H = ChannelMatrix.generic(3)
        W = [random_rational_dist(rng, min_support=2, max_support=4) for _ in range(3)]
        assert theorem3_ratio(H, W) == pytest.approx(1.0, abs=1e-9)

    def test_lower_triangular_identity(self, rng):
        # on the three-user lower-triangular family the ratio reduces to
        # [H(U - V) + H(U + V + W) - H(U + V)] / max of the three entropies
        U = random_rational_dist(rng, min_support=2, max_support=5)
        V = random_rational_dist(rng, min_support=2, max_support=5)
        W = random_rational_dist(rng, min_support=2, max_support=5)
        ratio = theorem3_ratio(hlambda_matrix(-1), [U, V, W])
        h_u = entropy_bits(U)
        h_diff = entropy_bits(convolve(U, scale(-1, V)))
        h_sum = entropy_bits(convolve(U, V))
        h_all = entropy_bits(convolve(convolve(U, V), W))
        expected = (h_u + h_diff - h_u + h_all - h_sum) / max(h_u, h_diff, h_all)
        assert ratio == pytest.approx(expected, abs=1e-9)

    def test_matches_two_user_bound_at_equal_uniforms(self):
        U = uniform_on([0, 1])
        ratio = theorem3_ratio(hlambda_matrix(-1), [U, U, U])
        bound = hlambda_bound(-1, U, U)
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        H = ChannelMatrix.from_rows([[1, 2], [3, 1]])
        W1 = random_rational_dist(rng, min_support=2, max_support=5)
        W2 = random_rational_dist(rng, min_support=2, max_support=5)
        scaled_H = ChannelMatrix.from_rows([[1, 2 * 5], [3, 1 * 5]])
        scaled_W = [W1, scale(Fraction(1, 5), W2)]
        assert theorem3_ratio(H, [W1, W2]) == pytest.approx(
            theorem3_ratio(scaled_H, scaled_W), abs=1e-9
        )

    def test_deterministic_inputs_rejected(self):
        H = ChannelMatrix.generic(2)
        with pytest.raises(ValidationError, match="deterministic"):
            theorem3_ratio(H, [point_mass(0), point_mass(1)])


class TestHlambdaBound:
    def test_lambda_one_is_always_one(self, rng):
        for _ in range(5):
            U = random_rational_dist(rng, min_support=2)
            V = random_rational_dist(rng, min_support=2)
            assert hlambda_bound(1, U, V) == pytest.approx(1.0, abs=1e-12)

    def test_published_construction(self):
        W = prop4_dist()
        assert hlambda_bound(-1, W, W) == pytest.approx(1.132575568463234, abs=1e-12)

    def test_equal_uniforms(self):
        U = uniform_on([0, 1])
        assert hlambda_bound(-1, U, U) == pytest.approx(1.0, abs=1e-12)

    def test_zero_lambda_rejected(self):
        U = uniform_on([0, 1])
        with pytest.raises(ValidationError):
            hlambda_bound(0, U, U)

    def test_deterministic_rejected(self):
        with pytest.raises(ValidationError):
            hlambda_bound(-1, point_mass(0), point_mass(0))

    def test_rational_lambda(self, rng):
        U = random_rational_dist(rng, min_support=2, max_support=6)
        V = random_rational_dist(rng, min_support=2, max_support=6)
        value = hlambda_bound(Fraction(2, 3), U, V)
        denom = entropy_bits(convolve(U, scale(Fraction(2, 3), V)))
        numer = entropy_bits(convolve(U, V))
        assert value == pytest.approx(2 - numer / denom, abs=1e-12)
