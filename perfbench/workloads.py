"""The four seeded workloads.

Each workload turns a seed into a fixed list of ops. An op calls the public
`icdof` API, a check states a property that holds for every seed (a theorem or
a documented guarantee), and a projection picks the exact values that the
default-seed digest covers. The seed varies parameters, never sizes, so a run's
length stays alike across seeds.

Calls go through `icdof.<name>` at call time, never through a reference taken
at set-up, so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import icdof

TOL = 1e-9
FOUR_THIRDS = Fraction(4, 3)
SIGNIFICANT_DIGITS = 12  # as the CLI rounds its floats


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    # returns a description of what is wrong, or None when the output holds
    check: Callable[[object], Optional[str]]
    # the fixed projection of the result that the digest covers
    project: Callable[[object], object]


def rounded(x: float) -> float:
    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def refused(run: Callable[[], object]) -> Callable[[], object]:
    """Op body for a job that must be refused: returns the error code."""

    def body():
        try:
            run()
        except icdof.BudgetExceededError as exc:
            return exc.code
        return "not refused"

    return body


# -- certify ---------------------------------------------------------------------

# (K, d, N) on fully generic channels
THM1_CASES = {
    "full": [(2, 0, 4), (2, 0, 8), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 2, 2),
             (3, 0, 4), (3, 0, 8), (4, 0, 4), (4, 0, 6)],
    "tiny": [(2, 0, 3), (2, 1, 2)],
}
# (K, N) for seeded integer off-diagonal tables
INTEGER_CASES = {"full": [(3, 48), (4, 24), (5, 12)], "tiny": [(3, 4)]}
# (K, d) on generic channels: the check holds
HOLDS_CASES = {"full": [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1)], "tiny": [(3, 0)]}
# seeded rational 3x3 matrices at degree 1: the check is violated
VIOLATED_COUNT = {"full": 3, "tiny": 1}
# (K, d, N) over the default atom budget. (3, 1, 4) builds its 16384-value
# alphabet before the convolution is refused; (2, 4, 3) is refused before its
# alphabet is built.
REFUSED_CASES = {"full": [(3, 1, 4), (2, 4, 3)], "tiny": [(2, 4, 3)]}


def check_certified(report, K: int) -> Optional[str]:
    if report.caveat != icdof.NON_EXCEPTIONAL_CAVEAT:
        return "report lacks the non-exceptional caveat"
    if len(report.per_user_terms) != K:
        return f"{len(report.per_user_terms)} per-user terms for K={K}"
    for full, interference, clamped in report.per_user_terms:
        if clamped < 0:
            return f"negative per-user term {clamped}"
        if full < interference - TOL:
            return f"H(full)={full} below H(interference)={interference}"
    if abs(report.bound - math.fsum(t[2] for t in report.per_user_terms)) > TOL:
        return "bound is not the sum of the per-user terms"
    if not 0 <= report.bound <= K + TOL:
        return f"bound {report.bound} outside [0, {K}]"
    return None


def project_report(report) -> list:
    terms = [[rounded(x) for x in t] for t in report.per_user_terms]
    closed = None if report.closed_form is None else rounded(report.closed_form)
    return [rounded(report.bound), terms, rounded(report.r_log), closed]


def random_rational(rng: random.Random) -> str:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return f"{num}/{rng.randint(1, 5)}"


def certify(rng: random.Random, size: str) -> list[Op]:
    ops = []
    for K, d, N in THM1_CASES[size]:
        H = icdof.ChannelMatrix.generic(K)
        ops.append(Op(
            f"theorem1 K={K} d={d} N={N}",
            lambda H=H, d=d, N=N: icdof.theorem1_certified_bound(H, d, N),
            lambda r, K=K: check_certified(r, K),
            project_report,
        ))
    for K, N in INTEGER_CASES[size]:
        table = [[0 if i == j else rng.choice([-1, 1]) * rng.randint(1, 4) for j in range(K)]
                 for i in range(K)]
        ops.append(Op(
            f"integer K={K} N={N}",
            lambda K=K, table=table, N=N: icdof.integer_example_bound(K, table, N),
            lambda r, K=K: check_certified(r, K),
            project_report,
        ))
    for K, d in HOLDS_CASES[size]:
        H = icdof.ChannelMatrix.generic(K)
        ops.append(Op(
            f"condition holds K={K} d={d}",
            lambda H=H, d=d: icdof.check_condition_star(H, d),
            lambda r: None if r.status == "holds-up-to-bound" and r.witness is None
            else f"generic channel reported {r.status}",
            lambda r: r.status,
        ))
    for _ in range(VIOLATED_COUNT[size]):
        H = icdof.ChannelMatrix.from_rows(
            [[random_rational(rng) for _ in range(3)] for _ in range(3)])

        def violated(H=H):
            report = icdof.check_condition_star(H, 1)
            verified = report.witness is not None and icdof.verify_witness(H, report.witness)
            return report, verified

        ops.append(Op(
            "condition violated K=3 d=1",
            violated,
            lambda r: None if r[0].status == "violated" and r[1]
            else f"rational channel reported {r[0].status}, witness verified: {r[1]}",
            lambda r: r[0].to_json(),
        ))
    for K, d, N in REFUSED_CASES[size]:
        H = icdof.ChannelMatrix.generic(K)
        ops.append(Op(
            f"refused K={K} d={d} N={N}",
            refused(lambda H=H, d=d, N=N: icdof.theorem1_certified_bound(H, d, N)),
            lambda code: None if code == "budget-exceeded" else f"expected refusal, got {code}",
            lambda code: code,
        ))
    return ops


# -- dimension -------------------------------------------------------------------

# (kind, offsets n, depth m, q): r = 1/q. "overlap" slots have more offsets
# than q, {0, .., n-1}, so truncation points merge heavily; "cantor" slots
# take n distinct nonzero base-q digits, so no two points collide. The seed picks the
# digits, a rational scale for the offsets (which keeps the collision pattern)
# and the probabilities, whose common denominator is fixed per slot; the atom
# count and the size of the exact numbers therefore stay alike across seeds.
# Each full slot appears twice, with its own seeded parameters: short ops
# give the per-op best latency more chances to run without contention.
IFS_SLOTS = {
    "full": 2 * [("overlap", 3, 11, 2), ("overlap", 4, 7, 3), ("cantor", 2, 13, 3),
                 ("cantor", 3, 8, 5), ("cantor", 4, 6, 6)],
    "tiny": [("overlap", 3, 6, 2), ("cantor", 2, 7, 3)],
}


PRIME_TOTALS = {2: 7, 3: 11, 4: 13}


def ifs_spec(rng: random.Random, kind: str, n: int, q: int):
    # nonzero cantor digits: a zero offset takes a fast path in scalar addition
    digits = range(n) if kind == "overlap" else sorted(rng.sample(range(1, q), n))
    scale = Fraction(rng.choice([1, 2, 4, 5, 7, 8]), 3)
    total = PRIME_TOTALS[n]  # a prime, so no probability reduces to a smaller denominator
    cuts = [0, *sorted(rng.sample(range(1, total), n - 1)), total]
    probs = [Fraction(b - a, total) for a, b in zip(cuts, cuts[1:])]
    return icdof.IFSSpec.create(Fraction(1, q), [d * scale for d in digits], probs)


def max_cells(spec, m: int, k: int) -> int:
    """Cells the estimator can occupy: no more than the truncation's atoms,
    and no more than the cells its support interval meets."""
    offsets = [w.as_fraction() for w in spec.w_values]
    reach = (1 - spec.r**m) / (1 - spec.r)  # sum of r^j for j < m
    kr = k * spec.r
    span = math.floor(kr * max(offsets) * reach) - math.floor(kr * min(offsets) * reach) + 1
    return min(len(offsets) ** m, span)


def dimension(rng: random.Random, size: str) -> list[Op]:
    ops = []
    for kind, n, m, q in IFS_SLOTS[size]:
        spec = ifs_spec(rng, kind, n, q)

        def estimate(spec=spec, m=m):
            k = icdof.recommended_quantization(spec, m)
            return k, icdof.empirical_infodim(spec, m, k), icdof.infodim_formula(spec)

        def check(result, spec=spec, m=m):
            k, empirical, formula = result
            ceiling = math.log2(max_cells(spec, m, k)) / math.log2(k)
            if not -TOL <= empirical <= ceiling + TOL:
                return f"estimate {empirical} outside [0, {ceiling}]"
            if not -TOL <= formula <= 1 + TOL:
                return f"formula value {formula} outside [0, 1]"
            return None

        ops.append(Op(
            f"infodim {kind} n={n} m={m} r=1/{q}",
            estimate,
            check,
            lambda result: [result[0], rounded(result[1]), rounded(result[2])],
        ))
    return ops


# -- corpus ----------------------------------------------------------------------

CORPUS_PAIRS = {"full": 2000, "tiny": 20}
LAMBDAS = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2))


def small_dist(rng: random.Random):
    points = rng.sample(range(-15, 16), rng.randint(2, 12))
    weights = [rng.randint(1, 9) for _ in points]
    total = sum(weights)
    return icdof.DiscreteDist({icdof.ExactScalar.rational(x): Fraction(w, total)
                               for x, w in zip(points, weights)})


def check_pair(result, U, V, lam) -> Optional[str]:
    bound, suite, total, progression = result
    if lam == -1 and bound > FOUR_THIRDS + TOL:
        return f"h_-1 bound {bound} above 4/3"
    if bound > 2 + TOL:
        return f"h_lambda bound {bound} above 2"
    slacks = (suite.slack_triple, suite.slack_mixed, suite.slack_combined)
    if min(slacks) < -TOL:
        return f"negative inequality slack {min(slacks)}"
    if min(suite.h_sum, suite.h_diff) < max(suite.h_u, suite.h_v) - TOL:
        return "a sum or difference has less entropy than a summand"
    a, b = len(U), len(V)
    if not max(a, b) <= len(total) <= a * b:
        return f"|A+B|={len(total)} outside [{max(a, b)}, {a * b}]"
    if progression is not None:
        start, step, length = progression
        values = sorted(x.as_fraction() for x in total)
        if (length, start, start + step * (length - 1)) != (len(values), values[0], values[-1]):
            return "progression does not match the sumset"
    return None


def corpus(rng: random.Random, size: str) -> list[Op]:
    ops = []
    for _ in range(CORPUS_PAIRS[size]):
        U, V, lam = small_dist(rng), small_dist(rng), rng.choice(LAMBDAS)

        def pair(U=U, V=V, lam=lam):
            total = icdof.sumset(icdof.support_set(U), icdof.support_set(V))
            return (icdof.hlambda_bound(lam, U, V), icdof.entropy_inequality_suite(U, V),
                    total, icdof.is_arithmetic_progression(total))

        ops.append(Op(
            "pair",
            pair,
            lambda result, U=U, V=V, lam=lam: check_pair(result, U, V, lam),
            lambda r: [rounded(r[0]), [rounded(x) for x in (r[1].slack_triple, r[1].slack_mixed,
                       r[1].slack_combined)], len(r[2]),
                       None if r[3] is None else [str(x) for x in r[3]]],
        ))
    return ops


# -- search ----------------------------------------------------------------------

# (instances of each op kind, max_iters), one restart each. Nelder-Mead needs
# far more than 80 iterations to converge here, so every restart runs its full
# budget and the number of objective evaluations barely moves with the seed.
SEARCH_CONFIG = {"full": (3, 80), "tiny": (1, 5)}
SEARCH_LAMBDAS = (Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(-1, 2))


def project_opt(result) -> list:
    return [rounded(result.best_value), [icdof.dist_to_json(d) for d in result.dists]]


def check_hlambda(result, lam: Fraction, floor: Optional[float] = None) -> Optional[str]:
    U, V = result.dists
    if icdof.hlambda_bound(lam, U, V) != result.best_value:
        return "best distributions do not reproduce best_value"
    if lam == -1 and result.best_value > FOUR_THIRDS + TOL:
        return f"h_-1 optimum {result.best_value} above 4/3"
    if floor is not None and result.best_value < floor:
        return f"optimum {result.best_value} below the warm start {floor}"
    return None


def check_thm3(result, H) -> Optional[str]:
    if icdof.theorem3_ratio(H, result.dists) != result.best_value:
        return "best distributions do not reproduce best_value"
    if not -TOL <= result.best_value <= H.K + TOL:
        return f"ratio {result.best_value} outside [0, {H.K}]"
    return None


def search(rng: random.Random, size: str) -> list[Op]:
    instances, iters = SEARCH_CONFIG[size]
    warm = icdof.prop4_dist(4)
    warm_value = icdof.hlambda_bound(-1, warm, warm)
    ops = []
    for _ in range(instances):
        config = [icdof.OptConfig(restarts=1, max_iters=iters, seed=rng.randrange(2**31))
                  for _ in range(3)]
        lam = rng.choice(SEARCH_LAMBDAS)
        H = icdof.ChannelMatrix.from_rows(
            [[rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(3)] for _ in range(3)])
        ops += [
            Op("optimize_hlambda lambda=-1 n=4",
               lambda c=config[0]: icdof.optimize_hlambda(-1, 4, c),
               lambda r: check_hlambda(r, Fraction(-1), warm_value), project_opt),
            Op(f"optimize_hlambda lambda={lam} n=5",
               lambda lam=lam, c=config[1]: icdof.optimize_hlambda(lam, 5, c),
               lambda r, lam=lam: check_hlambda(r, lam), project_opt),
            Op("optimize_theorem3 K=3 n=3",
               lambda H=H, c=config[2]: icdof.optimize_theorem3(H, 3, c),
               lambda r, H=H: check_thm3(r, H), project_opt),
        ]
    return ops


WORKLOADS = {"certify": certify, "dimension": dimension, "corpus": corpus, "search": search}


def build(name: str, seed: int, size: str) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), size)
