"""Derivative-free maximization of the entropy-ratio objectives over
parametrized discrete distributions.

Candidates are log-weight vectors over a fixed integer support grid. The
objective is placed once per search on the grid's keys (`hlambda_form`,
`theorem3_form`): the packing, lattices and injectivity proofs, which read
keys and coefficients only. Each evaluation exponentiates (softmax style),
rationalizes every weight with a bounded-denominator continued-fraction
approximation in integer arithmetic, brings the approximations to integer
weights over their common denominator, and scores those weights through the
exact engine, which attaches them to the placed keys and sums them there, so
no floating objective value is ever reported that the exact path did not
produce. No distribution is built, validated or aligned per candidate; the
best candidate's are built once, by `weighted_on`, when the search ends.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bounds import checked_lambda, hlambda_bound, hlambda_form, theorem3_form
from .channel import ChannelMatrix
from .dist import (
    DEFAULT_ATOM_BUDGET,
    DiscreteDist,
    check_pair_budget,
    lowest_weights,
    uniform_on,
    weighted_on,
)
from .errors import BudgetExceededError, ValidationError
from .scalar import ExactScalar

PROP4_BASE = Fraction(2, 25)
PROP4_PROBS = (
    PROP4_BASE**3,
    PROP4_BASE**2,
    PROP4_BASE,
    1 - PROP4_BASE - PROP4_BASE**2 - PROP4_BASE**3,
)


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 8
    max_iters: int = 200
    seed: int = 0
    rationalization_denominator: int = 10**6

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"need at least 1 restart, got {self.restarts}")
        if self.max_iters < 1:
            raise ValidationError(f"need at least 1 iteration, got {self.max_iters}")
        if self.rationalization_denominator < 2:
            raise ValidationError("rationalization denominator must be at least 2")


@dataclass(frozen=True)
class OptResult:
    best_value: float
    dists: tuple[DiscreteDist, ...]
    trace: tuple[dict, ...]
    seed: int


def integer_grid(n: int) -> tuple[ExactScalar, ...]:
    return tuple(ExactScalar.rational(i) for i in range(n))


def _limit_denominator(n: int, d: int, max_denominator: int) -> tuple[int, int]:
    """The closest fraction p/q to n/d (d > 0, lowest terms) with q at most
    max_denominator, in lowest terms: the rule of `Fraction.limit_denominator`
    on integers. The continued fraction of n/d runs until the next convergent's
    denominator is too large; the answer is then the last convergent p1/q1 or
    the semiconvergent p2/q2 below the bound, whichever is closer, and p1/q1
    on a tie."""
    if d <= max_denominator:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a_n, a_d = n, d
    while True:
        a, rem = divmod(a_n, a_d)
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, p1 = p1, p0 + a * p1
        q0, q1 = q1, q2
        a_n, a_d = a_d, rem
    k = (max_denominator - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, both sides multiplied by d*q1*q2
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def rationalize_weights(weights: Sequence[float], max_denominator: int) -> list[int]:
    """Positive integer weights from positive float weights: each weight is
    approximated by a bounded-denominator fraction (floored at the smallest
    positive one so no atom dies), and the approximations are brought to
    integer numerators over their common denominator."""
    approx = []
    for w in weights:
        p, q = _limit_denominator(*w.as_integer_ratio(), max_denominator)
        approx.append((p, q) if p > 0 else (1, max_denominator))
    common = math.lcm(*(q for _, q in approx))
    return [p * (common // q) for p, q in approx]


def weights_from_logweights(x: Sequence[float], max_denominator: int) -> list[int]:
    """Positive integer weights in the ratios of exp(x), softmax style, by
    `rationalize_weights`."""
    shift = max(x)
    return rationalize_weights([math.exp(v - shift) for v in x], max_denominator)


@dataclass
class _Tracker:
    """Best-so-far state for one restart; the objective updates it on every
    exact evaluation, so the reported best never depends on what the simplex
    happens to return. The best candidate is kept as given: each block's
    distribution (the warm start) or its integer weights on the grid, which
    `dists` builds once."""

    value: float = -math.inf
    candidate: Optional[tuple] = None
    evaluations: int = 0

    def record(self, value: float, candidate: tuple) -> None:
        self.evaluations += 1
        if value > self.value:
            self.value = value
            self.candidate = candidate

    def dists(self, support: Sequence[ExactScalar]) -> tuple[DiscreteDist, ...]:
        return tuple(block if isinstance(block, DiscreteDist) else weighted_on(support, block)
                     for block in self.candidate)


class _MaxEvaluations(Exception):
    pass


def _nelder_mead(
    f: Callable[[list[float]], float], x0: Sequence[float], maxiter: int, maxfev: int
) -> None:
    """Minimize f by the non-adaptive Nelder-Mead simplex, step for step and
    bit for bit as scipy 1.17.1's `minimize(method="Nelder-Mead")` with
    options maxiter and maxfev; only the side effects of calling f matter.

    The coefficients, the initial simplex (x0, then x0 with coordinate k
    scaled by 1.05, or set to 0.00025 where it is 0), the row-by-row
    centroid, every strict or non-strict comparison, the tolerances
    xatol = fatol = 1e-4 and the rule that f is never called once maxfev
    calls were made all follow scipy. A NaN in the convergence test means
    "not converged", as it does under numpy's max. Ties among simplex values
    are ordered by `numpy.argsort` (its default, host-dependent kind), as in
    scipy; that sort is the one use of numpy in icdof, so numpy is imported
    here and nowhere else.
    """
    import numpy

    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    tol = 1e-4
    N = len(x0)
    calls = 0

    def call(x: list[float]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _MaxEvaluations
        calls += 1
        return f(x)

    def sort() -> None:
        order = numpy.argsort(numpy.asarray(fsim, dtype=float)).tolist()
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    sim = [[float(v) for v in x0]]
    for k in range(N):
        y = list(sim[0])
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (N + 1)
    try:
        for k in range(N + 1):
            fsim[k] = call(sim[k])
    except _MaxEvaluations:
        pass
    sort()
    sort()  # scipy sorts twice here, and an unstable sort may reorder ties again

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            if all(abs(a - b) <= tol for row in sim[1:] for a, b in zip(row, best)) and all(
                abs(fsim[0] - v) <= tol for v in fsim[1:]
            ):
                break
            xbar = list(best)
            for row in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, row)]
            xbar = [a / N for a in xbar]
            xr = [(1 + rho) * a - rho * b for a, b in zip(xbar, worst)]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * a - rho * chi * b for a, b in zip(xbar, worst)]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside the simplex
                    xc = [(1 + psi * rho) * a - psi * rho * b for a, b in zip(xbar, worst)]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # contract inside it
                    xcc = [(1 - psi) * a + psi * b for a, b in zip(xbar, worst)]
                    fxcc = call(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = [a + sigma * (b - a) for a, b in zip(best, sim[j])]
                        fsim[j] = call(sim[j])
            iterations += 1
        except _MaxEvaluations:
            pass
        sort()


def _search(
    place: Callable[[DiscreteDist], Callable[[list], float]],
    n: int,
    blocks: int,
    config: OptConfig,
    warm_start: Optional[tuple[Sequence[float], float, tuple[DiscreteDist, ...]]] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> OptResult:
    """Maximize an objective over `blocks` distributions on {0..n-1}, each
    decoded from its slice of n log-weights, by restarted Nelder-Mead.
    `place` places the objective once per search, on the keys of the
    uniform distribution on {0..n-1}. Each evaluation rationalizes each
    slice to integer weights, validates them with `lowest_weights` and
    passes them to the placed objective in the grid's key order; no
    distribution is built. The best candidate's distributions are built
    once, through `weighted_on`, when the search ends. The first restart
    starts at warm_start's point, with its exact value and distributions
    recorded first; progress sees each trace entry as its restart ends."""
    if n < 2:
        raise ValidationError(f"need a support of at least 2 points, got n={n}")
    if n > DEFAULT_ATOM_BUDGET:
        raise BudgetExceededError(
            f"search grid would hold {n} points, over the budget of {DEFAULT_ATOM_BUDGET}")
    grid = uniform_on(integer_grid(n))  # packed once per search
    evaluate = place(grid)
    max_den = config.rationalization_denominator
    rng = random.Random(config.seed)
    starts = ([rng.gauss(0.0, 1.0) for _ in range(blocks * n)] for _ in range(config.restarts))
    best = _Tracker()
    trace = []
    for i, x0 in enumerate(starts):
        tracker = _Tracker()
        if i == 0 and warm_start is not None:
            x0, *warm = warm_start
            tracker.record(*warm)

        def neg(x):
            weights = tuple(
                weights_from_logweights(x[j * n : (j + 1) * n], max_den) for j in range(blocks)
            )
            value = evaluate([lowest_weights(w, n) for w in weights])
            tracker.record(value, weights)
            return -value

        start_value = -neg(x0)
        _nelder_mead(neg, x0, maxiter=config.max_iters, maxfev=4 * config.max_iters)
        trace.append(
            {
                "restart": i,
                "start_value": start_value,
                "best_value": tracker.value,
                "evaluations": tracker.evaluations,
            }
        )
        if progress is not None:
            progress(trace[-1])
        if tracker.value > best.value:
            best = tracker
    if best.candidate is None:
        raise ValidationError("objective was degenerate at every candidate")
    return OptResult(
        best_value=best.value,
        dists=best.dists(integer_grid(n)),
        trace=tuple(trace),
        seed=config.seed,
    )


def prop4_dist(n: int = 4) -> DiscreteDist:
    """The published near-4/3 construction: probabilities ((2/25)^3, (2/25)^2,
    2/25, remainder) on {0,1,2,3}, usable whenever the grid has n >= 4."""
    if n < 4:
        raise ValidationError("the warm-start construction needs n >= 4")
    return DiscreteDist(dict(zip(integer_grid(4), PROP4_PROBS)))


def optimize_hlambda(
    lam: Fraction | int,
    n: int,
    config: OptConfig = OptConfig(),
    progress: Optional[Callable[[dict], None]] = None,
) -> OptResult:
    """Maximize 2 - H(U+V)/H(U+lam*V) over pairs supported on {0..n-1}.

    With lam = -1 and n >= 4 the first restart is warm-started at the
    published construction, evaluated exactly, so its value is never
    regressed by rationalization noise.
    """
    lam = checked_lambda(lam)
    if n >= 2:  # a smaller n is refused by `_search`
        check_pair_budget(n * n, DEFAULT_ATOM_BUDGET)  # the first evaluation's U + V
    warm = None
    if lam == -1 and n >= 4:
        W4 = prop4_dist(n)
        logw = [math.log(float(p)) for p in PROP4_PROBS] + [math.log(1e-9)] * (n - 4)
        warm = (logw + logw, hlambda_bound(lam, W4, W4), (W4, W4))
    return _search(lambda grid: hlambda_form(lam, grid, grid), n, 2, config, warm, progress)


def optimize_theorem3(
    H: ChannelMatrix,
    n: int,
    config: OptConfig = OptConfig(),
    progress: Optional[Callable[[dict], None]] = None,
) -> OptResult:
    """Maximize the output-entropy ratio over K input distributions supported
    on {0..n-1}. Candidates that make every output deterministic are skipped;
    a budget refusal ends the search."""
    if n >= 2 and any(sum(not x.is_zero() for x in row) > 1 for row in H.entries):
        check_pair_budget(n * n, DEFAULT_ATOM_BUDGET)  # that row's first step

    def place(grid):
        ratio = theorem3_form(H, [grid] * H.K)

        def score(inputs):
            try:
                return ratio(inputs)
            except BudgetExceededError:
                raise
            except ValidationError:  # deterministic inputs
                return -math.inf

        return score

    return _search(place, n, H.K, config, progress=progress)
