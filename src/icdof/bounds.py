"""Degrees-of-freedom bound formulas.

Everything here reduces to exact distributions of linear forms sum_j h_ij W_j
and their entropies: every bound reads each user's H(interference) and
H(full) from a `PlacedSplit`, which groups the terms by the monomials they
reach, proves the sum across groups injective and enumerates only groups of
two or more terms. The objectives are split into a placement, which reads
the inputs' keys and the coefficients only, and an evaluation, which sums
weights attached to the placed keys and builds no distribution:
`theorem3_ratio` and `prop1_bound` place and evaluate once, and the
optimizer once per search.
The clamped-sum bound takes a resolution parameter r_log = log2(1/r) > 0;
certified constructions pick the inputs (Theorem 1's W_N from `build_wn`),
check independence first, and verify the signal/interference entropy split
exactly before reporting. All reports carry the caveat that dimension
formulas hold for contraction parameters outside an unobservable
zero-dimensional exceptional set, which cannot be tested per instance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .channel import (
    ChannelMatrix,
    alphabet_size,
    build_wn,
    check_condition_star,
    is_fully_connected,
    phi,
    require_int,
)
from .dist import (
    DEFAULT_ATOM_BUDGET,
    DiscreteDist,
    PlacedSplit,
    _entropy,
    _sum,
    check_pair_budget,
    convolve,
    entropy_bits,
    place_step,
    point_mass,
    scale,
    uniform_on,
)
from .errors import ConditionStarViolationError, ValidationError
from .infodim import NON_EXCEPTIONAL_CAVEAT
from .scalar import ONE, ExactScalar, decimal

SPLIT_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    bound: float
    per_user_terms: tuple[tuple[float, float, float], ...]  # (full, interference, clamped)
    r_log: float
    params: dict = field(default_factory=dict)
    closed_form: Optional[float] = None
    caveat = NON_EXCEPTIONAL_CAVEAT  # a class constant, not a field

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


def _user_forms(H: ChannelMatrix, W: Sequence[DiscreteDist], budget: int) -> Callable:
    """The placement of every user, a `PlacedSplit` of the terms (h_ij, W_j)
    of row i: the cross terms, a point mass at 0 when every cross
    coefficient is zero (as in triangular matrices), and the signal term,
    none when h_ii is zero. Returns the evaluation, which yields each user's
    (H(interference_i), H(full_i), |interference_i|, |full_i|) in turn, with
    W's own weights, or with each input's (weights, denominator) in
    `inputs`, in W's order, attached to the placed terms' keys.
    A user is placed when an evaluation first reaches it, so every refusal
    comes where enumerating the users in turn puts it: after the steps of
    the users before it, and before its own."""
    if len(W) != H.K:
        raise ValidationError(f"{len(W)} input distributions for K={H.K} users")
    placed = []

    def place(i: int) -> tuple:
        row = H.row(i)
        cross = [j for j, c in enumerate(row) if j != i and not c.is_zero()]
        signal = [] if row[i].is_zero() else [i]
        split = PlacedSplit([(row[j], W[j]) for j in cross] or [(ONE, point_mass(0))],
                            (row[i], W[i]) if signal else None, budget)
        return split, (cross or [None]) + signal  # None: the point mass keeps its weight

    def entropies(inputs: Optional[Sequence] = None) -> Iterator[tuple]:
        for i in range(H.K):
            if i == len(placed):
                placed.append(place(i))
            split, sources = placed[i]
            yield split.entropies(split.terms if inputs is None else [
                term if j is None else (dict(zip(term[0], inputs[j][0])), inputs[j][1])
                for term, j in zip(split.terms, sources)])

    return entropies


def _clamped_terms(entropies: Iterable[tuple], r_log: float) -> tuple[tuple, float]:
    """The clamped terms of (H(interference), H(full), ...) per user, and their sum."""
    terms = []
    for h_intf, h_full, *_ in entropies:
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
    summed over users. Each user's entropies come from a `PlacedSplit`.
    """
    if isinstance(r_log, bool) or not isinstance(r_log, (int, float)):
        raise ValidationError(f"r_log must be a number, got {r_log!r}")
    if not 0 < r_log <= sys.float_info.max:
        raise ValidationError(f"r_log must be positive and finite, got {decimal(r_log)}")
    terms, bound = _clamped_terms(_user_forms(H, W, budget)(), r_log)
    return BoundReport(bound, terms, r_log, params={"K": H.K, "r_log": r_log})


def _verify_split(split: tuple, n_signal: int, h_signal: float) -> tuple:
    """A user's `PlacedSplit` entropies, once the full output has n_signal times
    the interference's atoms and the entropy identity H(full) = H(signal) +
    H(interference), which that injective sum implies, holds to SPLIT_TOL."""
    h_intf, h_full, n_intf, n_full = split
    if n_full != n_signal * n_intf:
        raise RuntimeError("entropy split violated: joint support does not factor "
                           f"({n_full} != {n_signal} * {n_intf})")
    gap = abs(h_full - h_signal - h_intf)
    if gap > SPLIT_TOL:
        raise RuntimeError(f"entropy split off by {gap:.3e} despite support factorization")
    return split


def _certified_report(
    H: ChannelMatrix,
    W_dist: DiscreteDist,
    r_log: float,
    budget: int,
    params: dict,
    closed_form: float,
) -> BoundReport:
    """Clamped bound for i.i.d. inputs W_dist, reported only after the
    signal/interference split is verified for every user. Both callers have a
    nonzero diagonal, and scaling by it is injective, so the signal h_ii*W has
    W's size and entropy."""
    n_signal, h_signal = len(W_dist), entropy_bits(W_dist)
    entropies = [_verify_split(split, n_signal, h_signal)
                 for split in _user_forms(H, [W_dist] * H.K, budget)()]
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
    """Certified construction: check independence at degree d, which makes
    `build_wn`'s W_N uniform on N^phi(K,d) distinct values, feed W_N i.i.d.
    to the clamped bound, and verify the exact signal/interference entropy
    split for every user.

    The closed-form floor for the same (K, d, N) is reported alongside for
    comparison; it is often loose at small parameters.
    """
    require_int("d", d)
    require_int("N", N)
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
    # The check makes W_N's N^phi values distinct and scale is injective, so
    # each user's first convolution pairs exactly size * size atoms; refuse it
    # before W_N is built.
    size = alphabet_size(phi(H.K, d), N, budget)
    check_pair_budget(size * size, budget)
    return _certified_report(
        H,
        build_wn(H, d, N, budget=budget),
        2 * phi(H.K, d) * math.log2(N),
        budget,
        params={"K": H.K, "d": d, "N": N},
        closed_form=nonasymptotic_floor(H.K, d, N),
    )


def integer_example_bound(
    K: int, offdiag: list[list[int]], N: int, budget: int = DEFAULT_ATOM_BUDGET
) -> BoundReport:
    """Integer off-diagonal matrix with fresh-generator diagonal, inputs
    uniform on {0..N-1}, resolution r_log = 2*log2(2*h_max*K*N).

    The diagonal generators make the signal/interference split exact for
    every user (verified), and the result is compared against the closed
    form K*log2(N) / (2*log2(2*h_max*K*N)).
    """
    if not isinstance(K, int):
        raise ValidationError(f"K must be an integer, got {K!r}")
    if K < 2:
        raise ValidationError(f"need K >= 2, got {K}")
    require_int("N", N)
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    if not isinstance(offdiag, list) or len(offdiag) != K or any(
            not isinstance(row, list) or len(row) != K for row in offdiag):
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
    check_pair_budget(N * N, budget)  # each user's first step, refused before the input is built
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
    """sum_i [H(full_i) - H(interference_i)] / max_i H(full_i): `theorem3_form`
    evaluated once on W's own weights.

    Scale-free: depends only on the distributions of the K linear forms.
    Errors when every full entropy is zero (deterministic inputs).
    """
    return theorem3_form(H, W, budget)(None)


def theorem3_form(
    H: ChannelMatrix, W: Sequence[DiscreteDist], budget: int = DEFAULT_ATOM_BUDGET
) -> Callable:
    """The Theorem 3 ratio placed on the keys of W by `_user_forms`. Returns
    the evaluation, which takes each input's (weights, denominator), in W's
    order and each in its input's key order, or None for W's own weights,
    and returns the ratio."""
    users = _user_forms(H, W, budget)

    def ratio(inputs: Optional[Sequence]) -> float:
        entropies = list(users(inputs))
        denom = max(h_full for _, h_full, _, _ in entropies)
        if denom <= 0:
            raise ValidationError("deterministic inputs: every output entropy is zero")
        return math.fsum(h_full - h_intf for h_intf, h_full, _, _ in entropies) / denom

    return ratio


def _hlambda(numerator: float, denominator: float) -> float:
    """2 - H(U+V)/H(U+lam*V) from the two entropies."""
    if denominator <= 0:
        raise ValidationError("deterministic inputs: H(U + lambda*V) is zero")
    return 2 - numerator / denominator


def checked_lambda(lam) -> Fraction:
    """lam as a Fraction, refused unless it is a nonzero int or Fraction (a
    bool is not one, and a float is not read as the nearest rational)."""
    if isinstance(lam, bool) or not isinstance(lam, (int, Fraction)):
        raise ValidationError(f"lambda must be an integer or a Fraction, got {lam!r}")
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    return Fraction(lam)


def hlambda_bound(
    lam: Fraction | int,
    U: DiscreteDist,
    V: DiscreteDist,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> float:
    """2 - H(U+V)/H(U+lam*V) for independent U, V: one `convolve` for each
    sum, which places its step once. `hlambda_form` keeps the placements
    for objectives scored on many weightings."""
    lam = checked_lambda(lam)
    numerator = entropy_bits(convolve(U, V, budget))
    return _hlambda(numerator, entropy_bits(convolve(U, scale(lam, V), budget)))


def hlambda_form(
    lam: Fraction | int,
    U: DiscreteDist,
    V: DiscreteDist,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> Callable:
    """`hlambda_bound` placed on the keys of U and V: U and V on the lattice
    of U + V, and U and lam*V on that of U + lam*V, each placed and refused
    by `place_step`. Returns the evaluation, which takes the (weights,
    denominator) of U and of V, each in its key order, attaches them to the
    placed keys, sums each step with `_sum` and returns the bound."""
    lam = checked_lambda(lam)
    steps = place_step(U, V, budget), place_step(U, scale(lam, V), budget)

    def bound(inputs: Sequence) -> float:
        entropies = []
        for u, v, lattice, _ in steps:
            terms = [(dict(zip(keys, w)), d) for (keys, _), (w, d) in zip((u, v), inputs)]
            entropies.append(_entropy(*_sum(lattice, terms, budget)))
        return _hlambda(*entropies)

    return bound
