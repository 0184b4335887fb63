"""Release exit checks.

Each test pins one end-to-end claim at an explicit tolerance and records a
single PASS/FAIL status line; conftest reprints all of them in a summary
section at the end of the run.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import xlogy

import conftest
from conftest import random_rational_dist
from icdof import (
    NON_EXCEPTIONAL_CAVEAT,
    ChannelMatrix,
    DiscreteDist,
    ExactScalar,
    IFSSpec,
    OptConfig,
    as_scalar,
    build_wn,
    check_condition_star,
    empirical_infodim,
    entropy_inequality_suite,
    evaluate_monomial,
    hlambda_bound,
    infodim_formula,
    integer_example_bound,
    nonasymptotic_floor,
    optimize_hlambda,
    phi,
    theorem1_certified_bound,
    verify_witness,
)


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus() -> list[tuple[DiscreteDist, DiscreteDist]]:
    rng = random.Random(20260816)
    return [
        (random_rational_dist(rng, min_support=2), random_rational_dist(rng))
        for _ in range(10_000)
    ]


def test_criterion_01_four_atom_construction():
    base = Fraction(2, 25)
    tail = 1 - base - base**2 - base**3
    probs = (base**3, base**2, base, tail)
    W = DiscreteDist({as_scalar(k): p for k, p in zip(range(4), probs)})
    start = time.perf_counter()
    value = hlambda_bound(-1, W, W)
    elapsed = time.perf_counter() - start
    ok = abs(value - 1.13258) <= 1e-4 and elapsed < 1.0
    _report(
        1,
        ok,
        f"four-atom construction gives {value:.12f}"
        f" (1.13258 within 1e-4) in {elapsed:.3f}s",
    )


def test_criterion_02_bound_never_exceeds_four_thirds(corpus):
    start = time.perf_counter()
    worst_value = -math.inf
    worst_ratio = math.inf
    for U, V in corpus:
        value = hlambda_bound(-1, U, V)
        worst_value = max(worst_value, value)
        # the bound is 2 - H(U+V)/H(U-V), so the ratio falls out directly
        worst_ratio = min(worst_ratio, 2.0 - value)
    elapsed = time.perf_counter() - start
    ok = (
        worst_value <= 4.0 / 3.0 + 1e-9
        and worst_ratio >= 2.0 / 3.0 - 1e-9
        and elapsed < 300.0
    )
    _report(
        2,
        ok,
        f"10^4 random pairs: max bound {worst_value:.12f} <= 4/3,"
        f" min H(U+V)/H(U-V) {worst_ratio:.12f} >= 2/3, {elapsed:.1f}s",
    )


def test_criterion_03_inequality_slacks(corpus):
    start = time.perf_counter()
    worst = math.inf
    for U, V in corpus:
        rep = entropy_inequality_suite(U, V)
        worst = min(worst, rep.slack_triple, rep.slack_mixed, rep.slack_combined)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9
    _report(
        3,
        ok,
        f"10^4 random pairs: min slack across all three inequalities"
        f" {worst:.3e} >= -1e-9, {elapsed:.1f}s",
    )


def test_criterion_04_certified_small_channel():
    start = time.perf_counter()
    H = ChannelMatrix.generic(3)
    values = build_wn(H, 1, 2)
    # the atoms at probability 1/128, each reached by one of the 2^7 coefficient vectors
    distinct = sum(p == Fraction(1, 128) for _, p in values.items())
    report = theorem1_certified_bound(H, 1, 2)
    elapsed = time.perf_counter() - start

    signal_bits = math.log2(len(values))
    split_defect = max(
        abs(full - (intf + signal_bits)) for full, intf, _ in report.per_user_terms
    )
    rhs = 1.0 - phi(3, 2) * math.log2(2 * 2) / (2 * phi(3, 1) * math.log2(2))
    ok = (
        len(values) == 128
        and distinct == 128
        and report.r_log == pytest.approx(14.0)
        and report.bound == pytest.approx(3.0 / 28.0, abs=1e-9)
        and split_defect <= 1e-12
        and all(term >= rhs - 1e-12 for _, _, term in report.per_user_terms)
        and elapsed < 120.0
    )
    _report(
        4,
        ok,
        f"K=3, d=1, N=2: 128 distinct inputs, split defect {split_defect:.1e}"
        f" <= 1e-12, per-user terms >= {rhs:.0f}, bound {report.bound:.12f},"
        f" {elapsed:.1f}s",
    )


def test_criterion_05_floor_climbs_toward_three_halves():
    exps = (10, 100, 1000)
    table = {(d, e): nonasymptotic_floor(3, d, 2**e) for d in exps for e in exps}
    rows = all(
        table[(d, exps[i])] < table[(d, exps[i + 1])] for d in exps for i in range(2)
    )
    cols = all(
        table[(exps[i], e)] < table[(exps[i + 1], e)] for e in exps for i in range(2)
    )
    gaps = [1.5 - table[(d, d)] for d in exps]
    shrinking = all(g > 0 for g in gaps) and gaps[0] > gaps[1] > gaps[2]
    below = all(v < 1.5 for v in table.values())
    deep = table[(1000, 1000)]
    ok = rows and cols and shrinking and below and deep > 1.4
    _report(
        5,
        ok,
        f"floor rises monotonically over the (d, N) grid toward 3/2"
        f" and reaches {deep:.6f} > 1.4 at d=1000, N=2^1000",
    )


def test_criterion_06_integer_family():
    ones = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    start = time.perf_counter()
    checks = []
    bounds = {}
    for N in (2, 4, 8):
        rep = integer_example_bound(3, ones, N)
        bounds[N] = rep.bound
        tight = 3 * math.log2(N) / (2 * math.log2(6 * N))
        loose = 3 * math.log2(N) / (2 * math.log2(12 * N))
        checks.append(
            rep.bound >= tight - 1e-9
            and rep.bound >= loose - 1e-9
            and rep.closed_form == pytest.approx(tight, abs=1e-9)
        )
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 60.0
    rendered = ", ".join(f"N={N}: {b:.6f}" for N, b in bounds.items())
    _report(
        6,
        ok,
        f"all-ones integer channel: exact splits and {rendered},"
        f" each >= its closed form, {elapsed:.1f}s",
    )


def test_criterion_07_cantor_dimension():
    cantor = IFSSpec.create(Fraction(1, 3), [0, 2], [Fraction(1, 2), Fraction(1, 2)])
    start = time.perf_counter()
    dim = infodim_formula(cantor)
    expected = math.log2(2) / math.log2(3)
    emp = empirical_infodim(cantor, 20, 3**12)
    elapsed = time.perf_counter() - start
    ok = abs(dim - expected) <= 1e-12 and abs(emp - dim) <= 0.01 and elapsed < 60.0
    _report(
        7,
        ok,
        f"Cantor dimension: formula {dim:.12f} (error {abs(dim - expected):.1e}"
        f" <= 1e-12), empirical {emp:.12f} within 0.01, {elapsed:.1f}s",
    )


def test_criterion_08_condition_checker():
    start = time.perf_counter()
    rational = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    report = check_condition_star(rational, 2)
    witness = report.witness
    verified = (
        report.status == "violated"
        and witness is not None
        and verify_witness(rational, witness)
    )

    # independent route: substitute the witness back in and cancel exactly
    total = ExactScalar.ZERO
    if witness is not None:
        for term in witness.terms:
            value = evaluate_monomial(rational, term.monomial)
            if term.family == "diag-multiple":
                value = rational.entry(witness.user - 1, witness.user - 1) * value
            total = total + term.coefficient * value
    cancels = total == ExactScalar.ZERO

    generic = ChannelMatrix.generic(3)
    holds = all(
        check_condition_star(generic, d).status == "holds-up-to-bound"
        for d in (0, 1, 2)
    )
    elapsed = time.perf_counter() - start
    ok = verified and cancels and holds and elapsed < 10.0
    _report(
        8,
        ok,
        f"rational matrix yields a witness that re-substitutes to zero;"
        f" generic matrix passes for d <= 2, {elapsed:.1f}s",
    )


def test_criterion_09_claims_stay_qualified():
    certified = theorem1_certified_bound(ChannelMatrix.generic(2), 0, 2)
    integer = integer_example_bound(2, [[1, 1], [1, 1]], 2)
    cond = check_condition_star(ChannelMatrix.generic(3), 1)
    ok = (
        certified.caveat == NON_EXCEPTIONAL_CAVEAT
        and integer.caveat == NON_EXCEPTIONAL_CAVEAT
        and certified.to_json()["caveat"] == NON_EXCEPTIONAL_CAVEAT
        and cond.status == "holds-up-to-bound"
    )
    _report(
        9,
        ok,
        "almost-everywhere claims are never asserted outright: bound reports"
        " carry the non-exceptional caveat and the checker reports a"
        " finite-degree status only; randomized suites are the sole evidence",
    )


def _grid_oracle(resolution: int) -> float:
    """Exhaustive two-atom search on a uniform probability grid, computed
    from scratch with numpy so it shares no code with the optimizer."""
    ticks = np.arange(1, resolution) / float(resolution)
    p, q = np.meshgrid(ticks, ticks, indexing="ij")

    def ent(*probs: np.ndarray) -> np.ndarray:
        h = np.zeros_like(p)
        for pr in probs:
            h -= xlogy(pr, pr)
        return h / np.log(2.0)

    h_sum = ent(p * q, p * (1 - q) + (1 - p) * q, (1 - p) * (1 - q))
    h_diff = ent(p * (1 - q), p * q + (1 - p) * (1 - q), (1 - p) * q)
    return float(np.max(2.0 - h_sum / h_diff))


def test_criterion_10_optimizer():
    start = time.perf_counter()
    warm = optimize_hlambda(-1, 4, OptConfig(restarts=2, max_iters=60, seed=0))
    grid = _grid_oracle(512)
    tuned = optimize_hlambda(-1, 2, OptConfig(restarts=8, max_iters=300, seed=0))
    elapsed = time.perf_counter() - start
    delta = abs(tuned.best_value - grid)
    ok = warm.best_value >= 1.13258 - 1e-4 and delta <= 1e-3
    _report(
        10,
        ok,
        f"warm start reaches {warm.best_value:.12f} >= 1.13258 - 1e-4;"
        f" two-atom search {tuned.best_value:.12f} vs grid oracle"
        f" {grid:.12f} (gap {delta:.1e} <= 1e-3), {elapsed:.1f}s",
    )
