"""Degrees-of-freedom bound formulas.

Everything here reduces to exact distributions of linear forms sum_j h_ij W_j
and their entropies. The clamped-sum bound takes a resolution parameter
r_log = log2(1/r) > 0; certified constructions pick the alphabet, check
independence first, and verify the signal/interference entropy split exactly
before reporting. All reports carry the caveat that dimension formulas hold
for contraction parameters outside an unobservable zero-dimensional
exceptional set, which cannot be tested per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .channel import (
    ChannelMatrix,
    build_wn,
    check_condition_star,
    is_fully_connected,
    phi,
)
from .dist import (
    DEFAULT_ATOM_BUDGET,
    DiscreteDist,
    check_pair_budget,
    convolve,
    entropy_bits,
    partial_sums,
    point_mass,
    scale,
    split_entropies,
    uniform_on,
)
from .errors import ConditionStarViolationError, ValidationError
from .infodim import NON_EXCEPTIONAL_CAVEAT
from .scalar import ONE, ExactScalar

SPLIT_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    bound: float
    per_user_terms: tuple[tuple[float, float, float], ...]  # (full, interference, clamped)
    r_log: float
    params: dict = field(default_factory=dict)
    closed_form: Optional[float] = None
    caveat: str = NON_EXCEPTIONAL_CAVEAT

    def to_json(self) -> dict:
        out = {
            "bound": self.bound,
            "per_user": [list(t) for t in self.per_user_terms],
            "r_log": self.r_log,
            "caveat": self.caveat,
            "params": dict(self.params),
        }
        if self.closed_form is not None:
            out["closed_form"] = self.closed_form
        return out


def _row_terms(H: ChannelMatrix, W: Sequence[DiscreteDist], i: int) -> tuple[list, list]:
    """User i's output as terms (h_ij, W_j): the cross terms, a point mass at
    0 when every cross coefficient is zero (as in triangular matrices), and
    the signal term, none when h_ii is zero."""
    row = H.row(i)
    cross = [(c, dist) for j, (c, dist) in enumerate(zip(row, W)) if j != i and not c.is_zero()]
    signal = [(row[i], W[i])] if not row[i].is_zero() else []
    return cross or [(ONE, point_mass(0))], signal


def _user_dists(
    H: ChannelMatrix, W: Sequence[DiscreteDist], i: int, budget: int
) -> tuple[DiscreteDist, DiscreteDist]:
    """(interference, full) distributions for user i. The row is one linear
    form, so the full output is one more running sum after the interference."""
    cross, signal = _row_terms(H, W, i)
    sums = list(partial_sums(cross + signal, budget))
    return sums[len(cross) - 1], sums[-1]


def _output_entropies(
    H: ChannelMatrix, W: Sequence[DiscreteDist], budget: int
) -> list[tuple[float, float]]:
    """(H(full_i), H(interference_i)) for every user i."""
    if len(W) != H.K:
        raise ValidationError(f"{len(W)} input distributions for K={H.K} users")
    entropies = []
    for i in range(H.K):
        interference, full = _user_dists(H, W, i, budget)
        entropies.append((entropy_bits(full), entropy_bits(interference)))
    return entropies


def _clamped_terms(
    entropies: Sequence[tuple[float, float]], r_log: float
) -> tuple[tuple[tuple[float, float, float], ...], float]:
    terms = []
    for h_full, h_intf in entropies:
        clamped = min(h_full / r_log, 1.0) - min(h_intf / r_log, 1.0)
        # entropy never drops when an independent summand is added, so the
        # term is nonnegative up to float noise
        terms.append((h_full, h_intf, max(clamped, 0.0)))
    bound = math.fsum(t[2] for t in terms)
    return tuple(terms), bound


def prop1_bound(
    H: ChannelMatrix,
    W: Sequence[DiscreteDist],
    r_log: float,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> BoundReport:
    """Clamped entropy-difference bound at resolution r_log = log2(1/r).

    For each user: min{H(full)/r_log, 1} - min{H(interference)/r_log, 1},
    summed over users. Entropies are computed by exact enumeration.
    """
    if not (r_log > 0):
        raise ValidationError(f"r_log must be positive, got {r_log}")
    terms, bound = _clamped_terms(_output_entropies(H, W, budget), r_log)
    return BoundReport(bound, terms, r_log, params={"K": H.K, "r_log": r_log})


def _verify_split(h_full: float, h_signal: float, h_intf: float) -> tuple[float, float]:
    """(H(full), H(interference)) once the entropy identity H(full) =
    H(signal) + H(interference), which an injective sum implies, holds to
    SPLIT_TOL."""
    gap = abs(h_full - h_signal - h_intf)
    if gap > SPLIT_TOL:
        raise RuntimeError(f"entropy split off by {gap:.3e} despite support factorization")
    return h_full, h_intf


def _certified_report(
    H: ChannelMatrix,
    W_dist: DiscreteDist,
    r_log: float,
    budget: int,
    params: dict,
    closed_form: float,
) -> BoundReport:
    """Clamped bound for i.i.d. inputs W_dist, reported only after the
    signal/interference split is verified for every user: `split_entropies`
    proves or counts the sum injective. Both callers have a nonzero diagonal."""
    dists = [W_dist] * H.K
    # scaling by a nonzero h_ii is injective, so the signal h_ii*W has W's
    # entropy
    h_signal = entropy_bits(W_dist)
    entropies = []
    for i in range(H.K):
        cross, (signal,) = _row_terms(H, dists, i)
        h_intf, h_full = split_entropies(cross, signal, budget)
        entropies.append(_verify_split(h_full, h_signal, h_intf))
    terms, bound = _clamped_terms(entropies, r_log)
    return BoundReport(bound, terms, r_log, params=params, closed_form=closed_form)


def nonasymptotic_floor(K: int, d: int, N: int) -> float:
    """Closed-form lower bound K/2 * [2 - ((K(K-1)+d+1) log2((K-1)N)) /
    ((d+1) log2 N)]; raw value, possibly negative, not clamped."""
    if K < 2:
        raise ValidationError(f"need K >= 2, got {K}")
    if d < 0:
        raise ValidationError(f"need d >= 0, got {d}")
    if N < 2:
        raise ValidationError(f"need N >= 2, got {N}")
    try:
        ratio = (K * (K - 1) + d + 1) * math.log2((K - 1) * N) / ((d + 1) * math.log2(N))
        return K / 2 * (2 - ratio)
    except OverflowError:
        raise ValidationError("K, d or N is too large for the floating-point floor") from None


def theorem1_certified_bound(
    H: ChannelMatrix, d: int, N: int, budget: int = DEFAULT_ATOM_BUDGET
) -> BoundReport:
    """Certified construction: check independence at degree d, build the
    alphabet of degree-<=d monomial combinations with coefficients {1..N},
    feed i.i.d. uniform inputs to the clamped bound, and verify the exact
    signal/interference entropy split for every user.

    The closed-form floor for the same (K, d, N) is reported alongside for
    comparison; it is often loose at small parameters.
    """
    if N < 2:
        raise ValidationError(f"need N >= 2, got {N} (the floor formula needs log N > 0)")
    if not is_fully_connected(H):
        raise ValidationError("matrix is not fully connected (some entry is zero)")
    report = check_condition_star(H, d, budget=budget)
    if report.status != "holds-up-to-bound":
        raise ConditionStarViolationError(
            f"independence fails at degree {d} for user {report.witness.user}",
            witness=report.witness.to_json(),
        )
    # The check certifies the alphabet distinct and scale is injective, so
    # each user's first convolution pairs exactly size * size atoms; refuse it
    # before the alphabet is built. A larger alphabet is refused by build_wn.
    size = N ** phi(H.K, d)
    if size <= budget:
        check_pair_budget(size * size, budget)
    alphabet = build_wn(H, d, N, budget=budget)
    W_dist = uniform_on(alphabet)  # distinctness is certified by the check above
    return _certified_report(
        H,
        W_dist,
        2 * phi(H.K, d) * math.log2(N),
        budget,
        params={"K": H.K, "d": d, "N": N},
        closed_form=nonasymptotic_floor(H.K, d, N),
    )


def integer_example_bound(
    K: int, offdiag: Sequence[Sequence[int]], N: int, budget: int = DEFAULT_ATOM_BUDGET
) -> BoundReport:
    """Integer off-diagonal matrix with fresh-generator diagonal, inputs
    uniform on {0..N-1}, resolution r_log = 2*log2(2*h_max*K*N).

    The diagonal generators make the signal/interference split exact for
    every user (verified), and the result is compared against the closed
    form K*log2(N) / (2*log2(2*h_max*K*N)).
    """
    if K < 2:
        raise ValidationError(f"need K >= 2, got {K}")
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    if len(offdiag) != K or any(len(row) != K for row in offdiag):
        raise ValidationError(f"off-diagonal table must be {K}x{K}")
    rows = []
    for i in range(K):
        row = []
        for j in range(K):
            if i == j:
                row.append(ExactScalar.generator(f"g_{i + 1}"))
                continue
            value = offdiag[i][j]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"off-diagonal entries must be integers, got {value!r}")
            if value == 0:
                raise ValidationError(f"zero off-diagonal entry at ({i + 1},{j + 1})")
            row.append(ExactScalar.rational(value))
        rows.append(tuple(row))
    H = ChannelMatrix(K, tuple(rows))
    h_max = max(abs(offdiag[i][j]) for i in range(K) for j in range(K) if i != j)
    r_log = 2 * math.log2(2 * h_max * K * N)
    return _certified_report(
        H,
        uniform_on(range(N)),
        r_log,
        budget,
        params={"K": K, "N": N, "h_max": h_max},
        closed_form=K * math.log2(N) / r_log if N > 1 else 0.0,
    )


def theorem3_ratio(
    H: ChannelMatrix, W: Sequence[DiscreteDist], budget: int = DEFAULT_ATOM_BUDGET
) -> float:
    """sum_i [H(full_i) - H(interference_i)] / max_i H(full_i).

    Scale-free: depends only on the distributions of the K linear forms.
    Errors when every full entropy is zero (deterministic inputs).
    """
    entropies = _output_entropies(H, W, budget)
    denom = max(h_full for h_full, _ in entropies)
    if denom <= 0:
        raise ValidationError("deterministic inputs: every output entropy is zero")
    return math.fsum(h_full - h_intf for h_full, h_intf in entropies) / denom


def hlambda_bound(
    lam: Fraction | int,
    U: DiscreteDist,
    V: DiscreteDist,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> float:
    """2 - H(U+V)/H(U+lam*V) for independent U, V."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    numerator = entropy_bits(convolve(U, V, budget=budget))
    denominator = entropy_bits(convolve(U, scale(lam, V), budget=budget))
    if denominator <= 0:
        raise ValidationError("deterministic inputs: H(U + lambda*V) is zero")
    return 2 - numerator / denominator
