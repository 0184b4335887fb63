"""Restarted derivative-free search: determinism, warm starts, and
agreement between the two objective routes."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import icdof
from icdof import (
    ChannelMatrix,
    OptConfig,
    ValidationError,
    hlambda_bound,
    optimize_hlambda,
    optimize_theorem3,
    prop4_dist,
)
from icdof.optimize import (
    _limit_denominator,
    dist_from_logweights,
    integer_grid,
    rationalize_weights,
)

FAST = OptConfig(restarts=2, max_iters=40, seed=0)


def fraction_rationalize_weights(weights, max_denominator) -> tuple[Fraction, ...]:
    """Slow twin of `rationalize_weights`: `Fraction.limit_denominator` per
    weight, floored at 1/max_denominator, normalized as `Fraction`s."""
    approx = []
    floor = Fraction(1, max_denominator)
    for w in weights:
        q = Fraction(w).limit_denominator(max_denominator)
        approx.append(q if q > 0 else floor)
    total = sum(approx)
    return tuple(q / total for q in approx)


def normalized(weights) -> tuple[Fraction, ...]:
    return tuple(Fraction(w, sum(weights)) for w in weights)


_weights = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True)
_max_denominators = st.one_of(st.integers(2, 20), st.integers(2, 10**7))
# x = n/d halfway between the last convergent and the semiconvergent below
# max_denominator; the convergent wins: 1/4 -> 0/1 (then floored), 3/4 -> 1/1
TIES = [(0.25, 2), (0.75, 2), (1.25, 2), (0.125, 4), (0.875, 4), (1 / 16, 8), (15 / 16, 8)]


class TestParametrization:
    def test_rationalized_weights_are_positive_and_sum_to_one(self):
        weights = rationalize_weights([0.3, 1e-300, 2.5], 10**6)
        assert all(type(w) is int and w > 0 for w in weights)
        probs = normalized(weights)
        assert sum(probs) == 1
        assert all(p > 0 for p in probs)

    def test_underflow_is_floored(self):
        weights = rationalize_weights([1.0, 0.0], 1000)
        assert normalized(weights)[1] == Fraction(1, 1001)

    @given(st.lists(_weights, min_size=1, max_size=6), _max_denominators)
    def test_matches_fraction_rationalization(self, weights, max_denominator):
        assert normalized(rationalize_weights(weights, max_denominator)) == (
            fraction_rationalize_weights(weights, max_denominator))

    @given(_weights, _max_denominators)
    def test_limit_denominator_matches_fraction(self, w, max_denominator):
        expected = Fraction(w).limit_denominator(max_denominator)
        assert _limit_denominator(*w.as_integer_ratio(), max_denominator) == (
            expected.numerator, expected.denominator)

    @pytest.mark.parametrize("w, max_denominator", [
        (0.0, 10**6), (5e-324, 10**6), (5e-324, 2), (1.0, 10**6), (1.0, 2),
        # dyadic weights whose denominator is within the bound are kept exactly
        (0.375, 8), (0.5, 2), (1.5, 2), (2.0**-20, 2**20),
        (0.3, 2), (2 / 3, 2), (0.999999, 2), (0.3, 10**6), (math.pi, 7),
        *TIES,
    ])
    def test_edge_cases(self, w, max_denominator):
        expected = Fraction(w).limit_denominator(max_denominator)
        assert _limit_denominator(*w.as_integer_ratio(), max_denominator) == (
            expected.numerator, expected.denominator)
        for weights in ([w], [w, 1.0], [1.0, w, 5e-324]):
            assert normalized(rationalize_weights(weights, max_denominator)) == (
                fraction_rationalize_weights(weights, max_denominator))

    def test_ties_go_to_the_convergent(self):
        assert [_limit_denominator(*w.as_integer_ratio(), m) for w, m in TIES] == [
            (0, 1), (1, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1)]

    def test_dist_from_logweights(self):
        support = integer_grid(3)
        D = dist_from_logweights([0.0, -50.0, 1.0], support, 10**6)
        assert len(D) == 3
        assert sum(p for _, p in D.items()) == 1

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OptConfig(restarts=0)
        with pytest.raises(ValidationError):
            OptConfig(max_iters=0)
        with pytest.raises(ValidationError):
            OptConfig(rationalization_denominator=1)


class TestHlambdaSearch:
    def test_constant_objective_at_lambda_one(self):
        result = optimize_hlambda(1, 3, FAST)
        assert result.best_value == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = optimize_hlambda(-1, 3, OptConfig(restarts=3, max_iters=60, seed=11))
        b = optimize_hlambda(-1, 3, OptConfig(restarts=3, max_iters=60, seed=11))
        assert a.best_value == b.best_value
        assert a.dists == b.dists
        assert a.trace == b.trace

    def test_warm_start_never_regresses(self):
        W = prop4_dist()
        target = hlambda_bound(-1, W, W)
        result = optimize_hlambda(-1, 4, OptConfig(restarts=1, max_iters=3, seed=0))
        assert result.best_value >= target - 1e-12
        assert result.trace[0]["start_value"] == pytest.approx(target, abs=1e-9)

    def test_warm_start_pads_wider_grids(self):
        result = optimize_hlambda(-1, 6, OptConfig(restarts=1, max_iters=3, seed=0))
        W = prop4_dist()
        assert result.best_value >= hlambda_bound(-1, W, W) - 1e-12

    def test_upper_bound_respected(self):
        result = optimize_hlambda(-1, 4, OptConfig(restarts=3, max_iters=80, seed=2))
        assert result.best_value <= 4 / 3 + 1e-9

    def test_best_dists_reproduce_best_value(self):
        result = optimize_hlambda(-1, 3, FAST)
        replay = hlambda_bound(-1, result.best_U, result.best_V)
        assert replay == pytest.approx(result.best_value, abs=1e-12)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValidationError):
            optimize_hlambda(0, 3, FAST)

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValidationError):
            optimize_hlambda(-1, 1, FAST)


class TestTheorem3Search:
    def test_generic_three_users_stays_in_window(self):
        result = optimize_theorem3(ChannelMatrix.generic(3), 2, FAST)
        assert 1.0 - 1e-9 <= result.best_value <= 1.5 + 1e-9
        assert len(result.dists) == 3

    def test_matches_two_user_route_on_triangular_matrix(self):
        H = ChannelMatrix.from_rows([[1, 0, 0], [1, -1, 0], [1, 1, 1]])
        config = OptConfig(restarts=8, max_iters=300, seed=0)
        via_matrix = optimize_theorem3(H, 2, config)
        via_pair = optimize_hlambda(-1, 2, config)
        assert via_matrix.best_value == pytest.approx(via_pair.best_value, abs=1e-3)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_all_zero_matrix_is_degenerate(self):
        H = ChannelMatrix.from_rows([[0, 0], [0, 0]])
        with pytest.raises(ValidationError, match="degenerate"):
            optimize_theorem3(H, 2, FAST)


def test_scipy_loads_only_for_the_optimizer():
    # a fresh interpreter, since this test process has scipy loaded already
    script = "\n".join(
        [
            "import sys",
            "import icdof",
            "icdof.nonasymptotic_floor(3, 1, 4)",
            "assert 'scipy' not in sys.modules, 'scipy loaded outside the optimizer'",
            "result = icdof.optimize_hlambda(1, 2, icdof.OptConfig(restarts=1, max_iters=5))",
            "print(result.best_value)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(icdof.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) == pytest.approx(1.0, abs=1e-12)
