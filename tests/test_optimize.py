"""Restarted derivative-free search: determinism, warm starts, and
agreement between the two objective routes."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
from icdof.optimize import dist_from_logweights, integer_grid, rationalize_weights

FAST = OptConfig(restarts=2, max_iters=40, seed=0)


class TestParametrization:
    def test_rationalized_weights_are_positive_and_sum_to_one(self):
        probs = rationalize_weights([0.3, 1e-300, 2.5], 10**6)
        assert sum(probs) == 1
        assert all(p > 0 for p in probs)

    def test_underflow_is_floored(self):
        probs = rationalize_weights([1.0, 0.0], 1000)
        assert probs[1] == Fraction(1, 1001)

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
