"""Restarted derivative-free search: determinism, warm starts, agreement
between the two objective routes, the in-repo simplex against scipy's, and
which verbs load numpy."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icdof
from icdof import (
    BudgetExceededError,
    ChannelMatrix,
    OptConfig,
    ValidationError,
    hlambda_bound,
    optimize_hlambda,
    optimize_theorem3,
    prop4_dist,
)
import icdof.optimize
from icdof.optimize import (
    _limit_denominator,
    _nelder_mead,
    integer_grid,
    rationalize_weights,
    weights_from_logweights,
)

FAST = OptConfig(restarts=2, max_iters=40, seed=0)


def spied_form(form, note):
    """`form`, whose evaluations each call note("score") before they score:
    the seam at which a search scores each candidate."""

    def placed(*args):
        evaluate = form(*args)

        def spy(inputs):
            note("score")
            return evaluate(inputs)

        return spy

    return placed


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

    @given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
           st.integers(2, 10**9))
    def test_limit_denominator_matches_fraction_on_any_float(self, w, max_denominator):
        # any sign and exponent, bounds up to 10^9
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
        D = icdof.weighted_on(support, weights_from_logweights([0.0, -50.0, 1.0], 10**6))
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

    def test_warm_start_needs_four_points(self):
        with pytest.raises(ValidationError) as info:
            prop4_dist(3)
        assert str(info.value) == "the warm-start construction needs n >= 4"

    def test_warm_start_pads_wider_grids(self):
        result = optimize_hlambda(-1, 6, OptConfig(restarts=1, max_iters=3, seed=0))
        W = prop4_dist()
        assert result.best_value >= hlambda_bound(-1, W, W) - 1e-12

    def test_upper_bound_respected(self):
        result = optimize_hlambda(-1, 4, OptConfig(restarts=3, max_iters=80, seed=2))
        assert result.best_value <= 4 / 3 + 1e-9

    def test_best_dists_reproduce_best_value(self):
        result = optimize_hlambda(-1, 3, FAST)
        replay = hlambda_bound(-1, *result.dists)
        assert replay == pytest.approx(result.best_value, abs=1e-12)

    def test_progress_reports_each_restart_as_it_ends(self):
        # between two progress calls come exactly the evaluations the second
        # one reports: its restart's, and none of the next restart's
        events = []
        config = OptConfig(restarts=3, max_iters=10, seed=4)
        with mock.patch.object(icdof.optimize, "hlambda_form",
                               spied_form(icdof.optimize.hlambda_form, events.append)):
            optimize_hlambda(2, 3, config, progress=events.append)
        counts, scores = [], 0
        for event in events:
            if event == "score":
                scores += 1
            else:
                counts.append((scores, event["evaluations"]))
                scores = 0
        assert scores == 0 and len(counts) == 3
        assert all(seen == reported for seen, reported in counts)

    def test_each_restart_draws_its_start_when_it_begins(self, monkeypatch):
        # restart 0 on {0..3} draws 2 * 4 start coordinates, and no restart
        # after it draws before it begins
        draws = []

        class CountingRandom(random.Random):
            def gauss(self, *args):
                draws.append(args)
                return super().gauss(*args)

        class Stop(Exception):
            pass

        def stop(entry):
            raise Stop

        monkeypatch.setattr(icdof.optimize.random, "Random", CountingRandom)
        with pytest.raises(Stop):
            optimize_hlambda(-1, 4, OptConfig(restarts=1000, max_iters=1), progress=stop)
        assert len(draws) == 8

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

    def test_all_zero_matrix_is_degenerate(self):
        H = ChannelMatrix.from_rows([[0, 0], [0, 0]])
        with pytest.raises(ValidationError, match="degenerate"):
            optimize_theorem3(H, 2, FAST)

    def test_budget_refusal_ends_the_search(self, monkeypatch):
        # n * n = 40000 pairs pass the up-front check; each user's full step,
        # 200^2 interference atoms times 200 signal atoms, does not
        calls = []
        monkeypatch.setattr(icdof.optimize, "theorem3_form",
                            spied_form(icdof.optimize.theorem3_form, calls.append))
        refusal = "^convolution needs 8000000 atom pairs, over the budget of 5000000$"
        with pytest.raises(BudgetExceededError, match=refusal):
            optimize_theorem3(ChannelMatrix.generic(3), 200,
                              OptConfig(restarts=1, max_iters=1, rationalization_denominator=2))
        assert len(calls) == 1


class TestUpFrontRefusals:
    """Searches whose first evaluation, or whose grid, is over the budget are
    refused before the grid is built."""

    @pytest.mark.parametrize("run", [
        lambda n: optimize_hlambda(-1, n, FAST),
        lambda n: optimize_hlambda(Fraction(3, 2), n, FAST),
        lambda n: optimize_theorem3(ChannelMatrix.from_rows([[1, 0], [2, 3]]), n, FAST),
    ], ids=["hlambda-warm", "hlambda", "thm3"])
    def test_first_step_is_refused_before_the_grid(self, monkeypatch, run):
        monkeypatch.setattr(icdof.optimize, "integer_grid", _never)
        for n in (2237, 300000, 10**8):
            with pytest.raises(BudgetExceededError,
                               match=f"^convolution needs {n * n} atom pairs, over the budget"):
                run(n)

    def test_grid_over_the_budget_is_refused_before_it_is_built(self, monkeypatch):
        # no row has two nonzero entries, so no pair step bounds n
        monkeypatch.setattr(icdof.optimize, "integer_grid", _never)
        H = ChannelMatrix.from_rows([[1, 0], [0, 1]])
        refusal = "^search grid would hold 5000001 points, over the budget of 5000000$"
        with pytest.raises(BudgetExceededError, match=refusal):
            optimize_theorem3(H, 5000001, FAST)


def _never(*args):
    raise AssertionError("the input was built for a refused search")


def scipy_nelder_mead(f, x0, maxiter, maxfev):
    """Slow twin of `_nelder_mead`: scipy's Nelder-Mead, called the way the
    optimizer called it before the simplex was ported."""
    from scipy.optimize import minimize

    minimize(f, list(x0), method="Nelder-Mead", options={"maxiter": maxiter, "maxfev": maxfev})


def visits(nelder_mead, f, x0, maxiter, maxfev) -> list[tuple[tuple[float, ...], float]]:
    """Every point `nelder_mead` evaluates, in order, with its value."""
    log = []

    def logged(x):
        value = f(x)
        log.append((tuple(float(v) for v in x), value))
        return value

    nelder_mead(logged, x0, maxiter, maxfev)
    return log


def search_visits(nelder_mead, search, *args):
    """Run one optimizer search with `nelder_mead` as its simplex; return its
    result (or the error it raised) and every point the simplex visited."""
    log = []

    def recording(f, x0, maxiter, maxfev):
        log.extend(visits(nelder_mead, f, x0, maxiter, maxfev))

    with mock.patch.object(icdof.optimize, "_nelder_mead", recording):
        try:
            result = search(*args)
        except ValidationError as exc:
            result = str(exc)
    return result, log


def assert_same_search(search, *args):
    port, port_log = search_visits(_nelder_mead, search, *args)
    twin, twin_log = search_visits(scipy_nelder_mead, search, *args)
    assert port_log == twin_log
    if isinstance(twin, str):
        assert port == twin
    else:
        assert (port.best_value, port.trace, port.dists) == (
            twin.best_value, twin.trace, twin.dists)
    return port, port_log


_configs = st.builds(
    OptConfig,
    restarts=st.integers(1, 2),
    max_iters=st.sampled_from([5, 20, 80]),
    seed=st.integers(0, 2**16),
    rationalization_denominator=st.sampled_from([10, 100, 10**6]),
)


class TestNelderMeadMatchesScipy:
    """`_nelder_mead` against scipy's `minimize(method="Nelder-Mead")`: the
    same points in the same order, so the same trace and distributions."""

    @settings(max_examples=20)
    @given(_configs, st.sampled_from([-1, 2, Fraction(-1, 2), Fraction(3, 2)]), st.integers(2, 4))
    def test_hlambda(self, config, lam, n):
        assert_same_search(optimize_hlambda, lam, n, config)

    @settings(max_examples=15)
    @given(_configs, st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    def test_theorem3(self, config, entries):
        H = ChannelMatrix.from_rows([entries[0:3], entries[3:6], entries[6:9]])
        assert_same_search(optimize_theorem3, H, 2, config)

    def test_warm_start_with_tied_halves(self):
        # the mirrored U and V halves of the warm start give tied values
        assert_same_search(optimize_hlambda, -1, 4, OptConfig(restarts=2, max_iters=80))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_all_minus_inf_channel(self):
        # every value is -inf, so the convergence test sees inf - inf = NaN
        H = ChannelMatrix.from_rows([[0, 0], [0, 0]])
        message, log = assert_same_search(optimize_theorem3, H, 2, FAST)
        assert "degenerate" in message
        assert len(log) == 2 * 4 * FAST.max_iters

    @pytest.mark.parametrize("n, max_iters", [(6, 4), (6, 2), (3, 2)])
    def test_max_evaluations_exhausted(self, n, max_iters):
        # (6, 2) runs out while evaluating the initial simplex
        config = OptConfig(restarts=1, max_iters=max_iters, seed=1)
        _, log = assert_same_search(optimize_hlambda, 2, n, config)
        assert len(log) == 4 * max_iters

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.3, 1e-3]), min_size=1, max_size=5),
        st.integers(1, 30),
        st.integers(1, 60),
    )
    def test_tied_quantized_objective(self, x0, maxiter, maxfev):
        def f(x):
            return round(sum((v - 0.7) ** 2 for v in x), 1)

        assert visits(_nelder_mead, f, x0, maxiter, maxfev) == (
            visits(scipy_nelder_mead, f, x0, maxiter, maxfev))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("x0", [[1.0, 0.0], [0.5, 1.0], [1.0, 1.0, 1.0], [0.5, 0.3]])
    def test_nan_values_never_count_as_converged(self, x0):
        # NaN sorts last, so the simplex shrinks onto the edge x[0] = c with
        # a NaN vertex behind it; a NaN anywhere in the convergence test
        # means "not converged", whatever the order of the differences
        def f(x):
            return math.nan if x[0] > x0[0] else -x[0]

        assert visits(_nelder_mead, f, x0, 200, 800) == visits(scipy_nelder_mead, f, x0, 200, 800)


def test_no_verb_loads_scipy_and_only_the_optimizer_loads_numpy(tmp_path):
    # a fresh interpreter, since this test process has both loaded already
    def files(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    inputs = {
        "coin": files("coin.json", {"atoms": [{"value": "0", "prob": "1/2"},
                                              {"value": "1", "prob": "1/2"}]}),
        "matrix": files("m.json", {"K": 2, "entries": [[1, 2], [3, -1]]}),
        "ifs": files("ifs.json", {"r": "1/3", "w": ["0", "2"], "probs": ["1/2", "1/2"]}),
        "set": files("set.json", {"elements": ["0", "1", "3"]}),
    }
    verbs = [
        ["condition", "--matrix", inputs["matrix"], "--degree", "1"],
        ["bound-thm1", "--k", "2", "--d", "0", "--n", "2"],
        ["bound-floor", "--k", "3", "--d", "1", "--n", "4"],
        ["bound-integer", "--matrix", inputs["matrix"], "--n", "2"],
        ["ratio-thm3", "--k", "2", "--dist", inputs["coin"], "--dist", inputs["coin"]],
        ["hlambda", "--lambda", "-1", "--u", inputs["coin"], "--v", inputs["coin"]],
        ["infodim", "--ifs", inputs["ifs"], "--m", "4"],
        ["sumset", "--a", inputs["set"], "--b", inputs["set"]],
        ["ineq-suite", "--u", inputs["coin"], "--v", inputs["coin"]],
    ]
    optimizer_verbs = [
        ["optimize", "--target", "hlambda", "--lambda", "-1", "--n", "4", "--max-iters", "5"],
        ["optimize", "--target", "thm3", "--matrix", inputs["matrix"], "--n", "2",
         "--restarts", "1", "--max-iters", "5"],
    ]
    script = "\n".join(
        [
            "import json, sys",
            "from icdof.cli import run",
            "loaded = []",
            "for argv in json.loads(sys.argv[1]):",
            "    assert run(argv) == 0, argv",
            "    loaded.append(sorted({'numpy', 'scipy'} & set(sys.modules)))",
            "print(json.dumps(loaded), file=sys.stderr)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(icdof.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", script, json.dumps(verbs + optimizer_verbs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stderr.splitlines()[-1])
    assert loaded == [[]] * len(verbs) + [["numpy"]] * len(optimizer_verbs)
