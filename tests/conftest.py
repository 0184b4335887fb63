"""Shared corpus builders and the hypothesis profile for the property tests.

Seeded stdlib RNG and derandomized hypothesis everywhere: failures reproduce
exactly, and the corpora are cheap enough to regenerate per module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import settings

import icdof.dist
from icdof import (
    ChannelMatrix,
    DiscreteDist,
    ExactScalar,
    as_scalar,
    entropy_bits,
    evaluate_monomial,
    off_diagonal_name,
    phi,
)
from icdof.scalar import MONO_ONE, Monomial, mono_from_pairs

# One profile for every property suite: the same examples on every run, no
# example database, and no per-example deadline on a loaded shared host.
settings.register_profile("icdof", derandomize=True, database=None, deadline=None)
settings.load_profile("icdof")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Reprint the per-criterion status lines where they survive capture."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def random_rational_dist(
    rng: random.Random,
    min_support: int = 1,
    max_support: int = 12,
    value_span: int = 15,
) -> DiscreteDist:
    """Random distribution on distinct integers in [-span, span] with exact
    rational probabilities (random positive weights, normalized)."""
    size = rng.randint(min_support, max_support)
    support = rng.sample(range(-value_span, value_span + 1), size)
    weights = [rng.randint(1, 99) for _ in range(size)]
    total = sum(weights)
    return DiscreteDist(
        {as_scalar(v): Fraction(w, total) for v, w in zip(support, weights)}
    )


def counting_merge(calls: list):
    """`icdof.dist._merge` as it is now, recording each step's atom pairs in
    `calls`; patch it over `icdof.dist._merge` to see every step, those of
    `convolve` and of `_sum` alike."""
    merge = icdof.dist._merge
    return lambda a, b: calls.append(len(a) * len(b)) or merge(a, b)


class PowerSpy(Fraction):
    """A rational that records, in `exponents`, the exponent of every power
    taken of it: as a contraction parameter r, it shows which r^k were formed."""

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        self.exponents = []
        return self

    def __pow__(self, exponent):
        self.exponents.append(exponent)
        return Fraction(self) ** exponent


def reference_truncation(ifs, m: int) -> DiscreteDist:
    """Slow twin of `truncated_dist`: the left fold of one `convolve` step
    per term over one m-term linear form sum_{k<m} r^k W_k."""
    return icdof.dist.linear_combination([ifs.r**k for k in range(m)], [ifs.offset_dist()] * m)


def reference_empirical_infodim(ifs, m: int, k: int) -> float:
    """Slow twin of `empirical_infodim`: floor k*r*x on the decoded
    truncation of the left fold, one `Fraction` per atom."""
    cells: dict = {}
    kr = k * ifs.r
    for x, p in reference_truncation(ifs, m).items():
        cell = math.floor(kr * x.as_fraction())
        cells[cell] = cells.get(cell, 0) + p
    return entropy_bits(DiscreteDist({as_scalar(c): p for c, p in cells.items()})) / math.log2(k)


def enumerate_monomials(K: int, d: int) -> tuple[Monomial, ...]:
    """Order oracle of `monomial_basis`: all monomials of degree <= d in the
    off-diagonal position generators, each degree-k one formed from its k
    generators as `combinations_with_replacement` draws them over the sorted
    names, so ordered by degree and then lexicographically; the constant
    comes first."""
    count = phi(K, d)  # validates K, d
    names = sorted(
        off_diagonal_name(i, j)
        for i in range(1, K + 1)
        for j in range(1, K + 1)
        if i != j
    )
    monos: list[Monomial] = [MONO_ONE]
    for degree in range(1, d + 1):
        monos.extend(
            mono_from_pairs((name, 1) for name in combo)
            for combo in combinations_with_replacement(names, degree)
        )
    assert len(monos) == count
    return tuple(monos)


def reference_build_wn(H: ChannelMatrix, d: int, N: int) -> list[ExactScalar]:
    """Slow twin of `build_wn`: every one of the N^phi(K,d) values sum_f a_f
    f(H), a_f in {1..N}, formed as an `ExactScalar` sum, repeats kept, in the
    order of the coefficient vectors. Each basis value is formed from the
    entries alone by `evaluate_monomial`."""
    values = [ExactScalar.rational(0)]
    for f in (evaluate_monomial(H, m) for m in enumerate_monomials(H.K, d)):
        scaled = [f * a for a in range(1, N + 1)]
        values = [w + fa for w in values for fa in scaled]
    return values


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)
