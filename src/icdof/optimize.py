"""Derivative-free maximization of the entropy-ratio objectives over
parametrized discrete distributions.

Candidates are log-weight vectors over a fixed integer support grid. Each
evaluation exponentiates (softmax style), rationalizes every weight with a
bounded-denominator continued-fraction approximation in integer arithmetic,
brings the approximations to integer weights over their common denominator,
and scores the resulting distributions through the exact engine, so no
floating objective value is ever reported that the exact path did not produce.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bounds import hlambda_bound, theorem3_ratio
from .channel import ChannelMatrix
from .dist import DiscreteDist, SupportSet, support_set, uniform_on, weighted_on
from .errors import ValidationError
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

    @property
    def best_U(self) -> DiscreteDist:
        return self.dists[0]

    @property
    def best_V(self) -> DiscreteDist:
        return self.dists[1]


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
        a = a_n // a_d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        a_n, a_d = a_d, a_n - a * a_d
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


def dist_from_logweights(
    x: Sequence[float], support: SupportSet | Sequence[ExactScalar], max_denominator: int
) -> DiscreteDist:
    shift = max(x)
    weights = [math.exp(v - shift) for v in x]
    return weighted_on(support, rationalize_weights(weights, max_denominator))


@dataclass
class _Tracker:
    """Best-so-far state for one restart; the objective updates it on every
    exact evaluation, so the reported best never depends on what the simplex
    happens to return."""

    value: float = -math.inf
    dists: Optional[tuple[DiscreteDist, ...]] = None
    evaluations: int = 0
    start_value: float = -math.inf

    def record(self, value: float, dists: tuple[DiscreteDist, ...]) -> None:
        self.evaluations += 1
        if value > self.value:
            self.value = value
            self.dists = dists


def _run_restart(
    objective: Callable[[Sequence[float]], tuple[float, tuple[DiscreteDist, ...]]],
    x0: Sequence[float],
    config: OptConfig,
    warm: Optional[tuple[float, tuple[DiscreteDist, ...]]] = None,
) -> _Tracker:
    # Nelder-Mead is the only use of scipy; importing it here keeps every
    # other entry point from paying for scipy.optimize at import time
    from scipy.optimize import minimize

    tracker = _Tracker()
    if warm is not None:
        tracker.record(*warm)

    def neg(x):
        value, dists = objective(x)
        tracker.record(value, dists)
        return -value

    tracker.start_value = -neg(x0)
    minimize(
        neg,
        list(x0),
        method="Nelder-Mead",
        options={"maxiter": config.max_iters, "maxfev": 4 * config.max_iters},
    )
    return tracker


def _search(
    objective,
    dim: int,
    config: OptConfig,
    warm_start: Optional[tuple[Sequence[float], float, tuple[DiscreteDist, ...]]] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> OptResult:
    rng = random.Random(config.seed)
    starts = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(config.restarts)]
    warms: list[Optional[tuple[float, tuple[DiscreteDist, ...]]]] = [None] * config.restarts
    if warm_start is not None:
        x0, value, dists = warm_start
        starts[0] = list(x0)
        warms[0] = (value, dists)
    trackers = [
        _run_restart(objective, x0, config, warm=warm) for x0, warm in zip(starts, warms)
    ]

    trace = []
    best_index = 0
    for i, t in enumerate(trackers):
        trace.append(
            {
                "restart": i,
                "start_value": t.start_value,
                "best_value": t.value,
                "evaluations": t.evaluations,
            }
        )
        if progress is not None:
            progress(trace[-1])
        if t.value > trackers[best_index].value:
            best_index = i
    best = trackers[best_index]
    if best.dists is None:
        raise ValidationError("objective was degenerate at every candidate")
    return OptResult(
        best_value=best.value,
        dists=best.dists,
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
    lam = Fraction(lam)
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    if n < 2:
        raise ValidationError(f"need a support of at least 2 points, got n={n}")
    support = support_set(uniform_on(integer_grid(n)))  # packed once per search
    max_den = config.rationalization_denominator

    def objective(x):
        U = dist_from_logweights(x[:n], support, max_den)
        V = dist_from_logweights(x[n:], support, max_den)
        return hlambda_bound(lam, U, V), (U, V)

    warm = None
    if lam == -1 and n >= 4:
        W4 = prop4_dist(n)
        pad = math.log(1e-9)
        logw = [float(math.log(float(p))) for p in PROP4_PROBS] + [pad] * (n - 4)
        warm = (logw + logw, hlambda_bound(lam, W4, W4), (W4, W4))
    return _search(objective, 2 * n, config, warm_start=warm, progress=progress)


def optimize_theorem3(
    H: ChannelMatrix,
    n: int,
    config: OptConfig = OptConfig(),
    progress: Optional[Callable[[dict], None]] = None,
) -> OptResult:
    """Maximize the output-entropy ratio over K input distributions supported
    on {0..n-1}. Candidates that make every output deterministic are skipped."""
    if n < 2:
        raise ValidationError(f"need a support of at least 2 points, got n={n}")
    support = support_set(uniform_on(integer_grid(n)))  # packed once per search
    max_den = config.rationalization_denominator
    K = H.K

    def objective(x):
        dists = tuple(
            dist_from_logweights(x[j * n : (j + 1) * n], support, max_den) for j in range(K)
        )
        try:
            return theorem3_ratio(H, dists), dists
        except ValidationError:
            return -math.inf, dists

    return _search(objective, K * n, config, progress=progress)
