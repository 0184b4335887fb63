"""Self-similar measures from iterated function systems of affine contractions
x -> r*x + w_i, their closed-form information dimension, and an empirical
estimator on exact truncations.

The closed-form value min{H(W)/log2(1/r), 1} holds for contraction parameters
outside an exceptional set of Hausdorff and packing dimension zero; membership
is not decidable per instance, so outputs carry a caveat flag instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .dist import (
    DEFAULT_ATOM_BUDGET,
    DiscreteDist,
    _pack,
    convolve,
    entropy_bits,
    floor_entropy,
    json_list,
    linear_combination,
    parse_probability,
)
from .errors import NotRationalError, ParseError, ValidationError
from .scalar import ONE, ExactScalar, as_scalar, parse_rational

NON_EXCEPTIONAL_CAVEAT = "valid for non-exceptional r"


@dataclass(frozen=True)
class IFSSpec:
    r: Fraction
    w_values: tuple[ExactScalar, ...]
    probs: tuple[Fraction, ...]
    _offsets: DiscreteDist = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.r < 1):
            raise ValidationError(f"contraction parameter must be in (0,1), got {self.r}")
        if len(self.w_values) != len(self.probs):
            raise ValidationError(
                f"{len(self.w_values)} offsets for {len(self.probs)} probabilities"
            )
        if len(self.w_values) < 2:
            raise ValidationError("need at least 2 offsets")
        if len(set(self.w_values)) != len(self.w_values):  # before the dict below merges them
            raise ValidationError("offsets must be pairwise distinct")
        # the probabilities' positivity and sum are checked by the distribution
        object.__setattr__(self, "_offsets", DiscreteDist(dict(zip(self.w_values, self.probs))))

    @staticmethod
    def create(r, w_values: Sequence, probs: Sequence) -> "IFSSpec":
        return IFSSpec(
            Fraction(r),
            tuple(as_scalar(w) for w in w_values),
            tuple(Fraction(p) for p in probs),
        )

    def offset_dist(self) -> DiscreteDist:
        return self._offsets


def ifs_from_json(obj) -> IFSSpec:
    """Parse {"r": "p/q", "w": [...], "probs": [...]}."""
    if not isinstance(obj, dict) or not {"r", "w", "probs"} <= set(obj):
        raise ParseError('IFS JSON must be {"r": ..., "w": [...], "probs": [...]}')
    return IFSSpec(
        parse_rational(obj["r"]),
        tuple(as_scalar(w) for w in json_list(obj, "w")),
        tuple(parse_probability(p) for p in json_list(obj, "probs")),
    )


def log2_inverse_contraction(r: Fraction) -> float:
    return math.log2(r.denominator) - math.log2(r.numerator)


def infodim_formula(ifs: IFSSpec) -> float:
    """Closed-form information dimension min{H(W)/log2(1/r), 1}.

    Valid for non-exceptional contraction parameters (see module docstring).
    """
    return min(entropy_bits(ifs.offset_dist()) / log2_inverse_contraction(ifs.r), 1.0)


def truncated_dist(ifs: IFSSpec, m: int, budget: int = DEFAULT_ATOM_BUDGET) -> DiscreteDist:
    """Exact distribution of the m-term truncation X_m = sum_{k<m} r^k W_k
    with the W_k independent copies of the offset variable, built by
    doubling: X_n = X_a + r^a X'_{n-a}, a = n // 2, X' an independent copy.
    The last step is the one `_last_step` places, summed by `convolve`. The
    atoms are not in the left fold's order (`==` ignores order)."""
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    if m == 1:
        return ifs.offset_dist()
    return convolve(*_last_step(ifs, m, budget), budget)


def _last_step(ifs: IFSSpec, m: int, budget: int) -> tuple[DiscreteDist, DiscreteDist]:
    """X_a and r^a X'_{m-a}, a = m // 2, for m >= 2: the operands of the last
    doubling step of X_m on the lattice of their sum, refused as
    `linear_combination` refuses that step, before any key is formed.
    Each X_n on the way is built once, in a memo local to the call, by one
    two-term `linear_combination` refused by its budget in the same way:
    about 2*log2(m) steps whose atom pairs add up to about the final atom
    count, in the order of the recursion on n, run on a stack no m
    overflows."""
    if not isinstance(m, (int, Fraction)) or m % 1:  # a fractional m halves forever
        raise ValidationError(f"need an integer m, got {m}")
    r, memo, stack = ifs.r, {1: ifs.offset_dist()}, [m]
    while True:
        n = stack[-1]
        a = n // 2
        missing = [k for k in (a, n - a) if k not in memo]
        if missing:
            stack.append(missing[0])
        elif n == m:
            return tuple(_pack([(ONE, memo[a]), (as_scalar(r**a), memo[m - a])], budget))
        else:
            memo[n] = linear_combination([1, r**a], [memo[a], memo[n - a]], budget=budget)
            stack.pop()


def _max_offset(ifs: IFSSpec) -> Fraction:
    """max |w|, > 0 since the offsets are distinct. Raises NotRationalError
    if an offset is symbolic."""
    return max(abs(w.as_fraction()) for w in ifs.w_values)


def recommended_quantization(ifs: IFSSpec, m: int) -> int:
    """Largest k with k * r^m * max|w| / (1-r) <= 1, floored at 2."""
    limit = (1 - ifs.r) / (ifs.r**m * _max_offset(ifs))
    return max(2, math.floor(limit))


def empirical_infodim(
    ifs: IFSSpec, m: int, k: Optional[int] = None, budget: int = DEFAULT_ATOM_BUDGET
) -> float:
    """Quantization-based estimate H(floor(k * X~_m)) / log2(k), where X~_m is
    the m-term truncation contracted once: sum_{j=1}^{m} r^j W_j. When k is
    None, the factor is `recommended_quantization(ifs, m)`.

    The single contraction aligns the quantization grid with the digits the
    truncation pins down; quantizing the uncontracted sum would add one
    coarse digit of entropy and overshoot the limit by ~1/log2(k). The floor
    is exact on rationals, so the offsets must be rational-valued here.

    The guard k * r^m * max|w| / (1-r) <= 1 keeps the truncation error below
    one quantization cell; a violation only warns, because the estimate is
    still defined, just less trustworthy. X_m itself is never held: the
    doubling builds X_a and X'_{m-a} as `truncated_dist` does and places
    the last step, or refuses it, before r^m is formed (at m = 10^7 it has
    millions of digits); `floor_entropy` then reads the entropy of that
    step, which lies on one coordinate, floored, without merging it. Where
    no two atoms of X_a share a cell, as on Cantor-type offsets, it counts
    weight products and builds no cell, so the estimate's memory is bounded
    by its halves; elsewhere by its halves, its cells and, where the scaled
    half r^a X'_{m-a} meets at most two cells per atom, the windows it
    floors the step in, which the budget bounds in words.
    """
    if k is not None and not isinstance(k, (int, Fraction)):
        raise ValidationError(f"need an integer or Fraction quantization factor k, got {k!r}")
    if k is not None and k < 2:
        raise ValidationError(f"need a quantization factor k >= 2, got {k}")
    if m < 1:  # before the guard below can warn
        raise ValidationError(f"need m >= 1, got {m}")
    try:
        max_w = _max_offset(ifs)
    except NotRationalError:
        raise NotRationalError(
            "the empirical path requires rational offsets (exact floors need ordered values)"
        ) from None
    step = (ifs.offset_dist(),) if m == 1 else _last_step(ifs, m, budget)
    if k is None:
        k = recommended_quantization(ifs, m)
    if k * ifs.r**m * max_w / (1 - ifs.r) > 1:
        warnings.warn(
            "quantization factor is finer than the truncation error; "
            "increase m or lower k",
            stacklevel=2,
        )
    return floor_entropy(k * ifs.r, *step, budget=budget) / math.log2(k)
