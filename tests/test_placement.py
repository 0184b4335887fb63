"""Placed objectives against the path they replace.

A placement reads keys and coefficients once; each evaluation attaches new
weights to the placed keys. Every evaluation here is compared, bit for bit
and refusal for refusal, with a test-local copy of the path that packs every
input afresh on every call: `split_entropies` per user, and `scale` then
`convolve` for h_lambda. The whole search is compared with its twin, which
builds a distribution per candidate and scores it through the public
functions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

import icdof.optimize
from icdof import (
    BudgetExceededError,
    ChannelMatrix,
    DiscreteDist,
    OptConfig,
    ValidationError,
    as_scalar,
    hlambda_bound,
    optimize_hlambda,
    optimize_theorem3,
    point_mass,
    scale,
    support_set,
    theorem3_ratio,
    uniform_on,
    weighted_on,
)
from icdof.bounds import _user_forms, hlambda_form, theorem3_form
from icdof.dist import (
    DEFAULT_ATOM_BUDGET,
    _monomials,
    _pack,
    _product_entropy,
    check_pair_budget,
    convolve,
    entropy_bits,
    lowest_weights,
)
from icdof.optimize import _nelder_mead, integer_grid, prop4_dist, weights_from_logweights
from icdof.scalar import ONE, ExactScalar

G = ExactScalar.generator("g")


# -- the path before placement -------------------------------------------------


def parent_split_entropies(cross_terms, signal_term, budget):
    """A user's split as the parent `split_entropies` took it, packing its
    terms afresh on every call."""
    packed = _pack([*cross_terms, signal_term] if signal_term else cross_terms, budget)
    interference = next(packed)
    for term in islice(packed, len(cross_terms) - 1):
        interference = convolve(interference, term, budget)
    h_intf, n_intf = entropy_bits(interference), len(interference)
    if signal_term is None:
        return h_intf, h_intf, n_intf, n_intf
    if not _monomials([signal_term]).isdisjoint(_monomials(cross_terms)):
        full = convolve(interference, next(packed), budget)
        return h_intf, entropy_bits(full), n_intf, len(full)
    signal = signal_term[1]
    pairs = n_intf * len(signal)
    check_pair_budget(pairs, budget, interference._lattice)
    return h_intf, _product_entropy((interference._weights, interference._denominator),
                                    (signal._weights, signal._denominator)), n_intf, pairs


def parent_user_entropies(H, W, budget):
    if len(W) != H.K:
        raise ValidationError(f"{len(W)} input distributions for K={H.K} users")
    for i in range(H.K):
        row = H.row(i)
        cross = [(c, X) for j, (c, X) in enumerate(zip(row, W)) if j != i and not c.is_zero()]
        signal = (row[i], W[i]) if not row[i].is_zero() else None
        yield parent_split_entropies(cross or [(ONE, point_mass(0))], signal, budget)


def parent_theorem3_ratio(H, W, budget):
    entropies = list(parent_user_entropies(H, W, budget))
    denom = max(h_full for _, h_full, _, _ in entropies)
    if denom <= 0:
        raise ValidationError("deterministic inputs: every output entropy is zero")
    return math.fsum(h_full - h_intf for h_intf, h_full, _, _ in entropies) / denom


def parent_hlambda_bound(lam, U, V, budget):
    lam = Fraction(lam)
    if lam == 0:
        raise ValidationError("lambda must be nonzero")
    numerator = entropy_bits(convolve(U, V, budget=budget))
    denominator = entropy_bits(convolve(U, scale(lam, V), budget=budget))
    if denominator <= 0:
        raise ValidationError("deterministic inputs: H(U + lambda*V) is zero")
    return 2 - numerator / denominator


# -- comparison ----------------------------------------------------------------


def bits(value):
    """`value` with every float as its exact hex form, so that == is bit
    equality (0.0 and -0.0 differ)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    return value


def outcome(job: Callable[[], object]):
    """The value of job() with its floats as bits, or its error's type and text."""
    try:
        return bits(job())
    except Exception as exc:  # any error must match in type and text
        return type(exc), str(exc)


def threshold(job: Callable[[int], object], top: int = 10**7) -> int:
    """The least budget up to `top` at which job(budget) is not refused:
    every refusal compares a count that does not depend on the budget with
    the budget, so refusal is monotone in it."""

    def refused(budget: int) -> bool:
        result = outcome(lambda: job(budget))
        return isinstance(result, tuple) and result[0] is BudgetExceededError

    lo, hi = 0, top  # refused at lo, unless lo is 0; not refused at hi
    if refused(hi):
        return hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if refused(mid) else (lo, mid)
    return hi


# -- draws ---------------------------------------------------------------------

_integers = st.integers(-3, 3)
_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_weights = st.one_of(st.integers(1, 9), st.integers(1, 2**80))  # repeats, and totals past 2^64
LAMBDAS = [-1, 2, Fraction(1, 2), -2, 3, Fraction(-1, 2), Fraction(3, 2)]


def _mixed(i: int, j: int):
    """Zero, a rational, the entry's own generator, or a polynomial in the
    generator g that symbolic inputs share."""
    return st.one_of(
        st.just(0), _rationals, st.just(ExactScalar.generator(f"h_{i + 1}_{j + 1}")),
        st.sampled_from([G, G + 1, 2 * G - 1, G * G]))


@st.composite
def channels(draw) -> ChannelMatrix:
    """K = 2 or 3: integer entries in -3..3 (zeros included, a zero
    diagonal, the all-zero matrix), rational, generic or mixed symbolic."""
    K = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(
        ["integer", "zero diagonal", "all zero", "rational", "generic", "mixed"]))
    if kind == "generic":
        return ChannelMatrix.generic(K)
    entry = {"integer": lambda i, j: _integers, "zero diagonal": lambda i, j: _integers,
             "all zero": lambda i, j: st.just(0), "rational": lambda i, j: _rationals,
             "mixed": _mixed}[kind]
    rows = [[draw(entry(i, j)) for j in range(K)] for i in range(K)]
    if kind == "zero diagonal":
        for i in range(K):
            rows[i][i] = 0
    return ChannelMatrix.from_rows(rows)


_points = st.one_of(
    _rationals.map(as_scalar),
    st.builds(lambda c, a: as_scalar(c) + a * G, _rationals, st.integers(-2, 2)))


def supports(count: int):
    """One support per input: the search's integer grid shared by all, or
    each input's own rational or symbolic points."""
    grid = st.integers(1, 4).map(lambda n: [list(integer_grid(n))] * count)
    own = st.lists(st.lists(_points, min_size=1, max_size=4, unique=True),
                   min_size=count, max_size=count)
    return st.one_of(grid, own)


def weight_draws(supports_: list):
    """One to three candidates, each a list of positive int weights per input."""
    candidate = st.tuples(*(st.lists(_weights, min_size=len(s), max_size=len(s))
                            for s in supports_))
    return st.lists(candidate, min_size=1, max_size=3)


def inputs(weights) -> list:
    """A candidate as an evaluation takes it, validated as the search does."""
    return [lowest_weights(w, len(w)) for w in weights]


# -- placed evaluations --------------------------------------------------------


class TestPlacedEvaluations:
    """One placement per draw, then each candidate's weights attached to it:
    every value, per-user split and refusal is the fresh path's."""

    @settings(max_examples=120)
    @given(channels(), st.data())
    def test_theorem3(self, H, data):
        points = data.draw(supports(H.K))
        draws = data.draw(weight_draws(points))
        W = [uniform_on(p) for p in points]  # the placement reads keys only
        first = [weighted_on(p, w) for p, w in zip(points, draws[0])]
        p = threshold(lambda budget: parent_theorem3_ratio(H, first, budget))
        for budget in (p - 1, p, data.draw(st.integers(0, p))):
            users = _user_forms(H, W, budget)
            ratio = theorem3_form(H, W, budget)
            for weights in draws:
                dists = [weighted_on(pts, w) for pts, w in zip(points, weights)]
                expected = outcome(lambda: list(parent_user_entropies(H, dists, budget)))
                assert outcome(lambda: list(users(inputs(weights)))) == expected
                expected = outcome(lambda: parent_theorem3_ratio(H, dists, budget))
                assert outcome(lambda: ratio(inputs(weights))) == expected
                assert outcome(lambda: theorem3_ratio(H, dists, budget)) == expected

    @settings(max_examples=120)
    @given(st.sampled_from(LAMBDAS), st.data())
    def test_hlambda(self, lam, data):
        points = data.draw(supports(2))
        draws = data.draw(weight_draws(points))
        U, V = (uniform_on(p) for p in points)
        first = [weighted_on(p, w) for p, w in zip(points, draws[0])]
        p = threshold(lambda budget: parent_hlambda_bound(lam, *first, budget))
        for budget in (p - 1, p, data.draw(st.integers(0, p))):
            bound = outcome(lambda: hlambda_form(lam, U, V, budget))
            for weights in draws:
                dists = [weighted_on(pts, w) for pts, w in zip(points, weights)]
                expected = outcome(lambda: parent_hlambda_bound(lam, *dists, budget))
                if isinstance(bound, tuple):  # refused as it was placed
                    assert bound == expected
                else:
                    assert outcome(lambda: bound(inputs(weights))) == expected
                assert outcome(lambda: hlambda_bound(lam, *dists, budget)) == expected

    def test_evaluations_place_and_build_nothing(self, monkeypatch):
        # an evaluation only attaches weights to placed keys: it places no
        # step and builds no distribution, validated or not
        grid = uniform_on(integer_grid(4))
        hlambda = hlambda_form(Fraction(1, 2), grid, grid)
        ratio = theorem3_form(ChannelMatrix.from_rows([[1, -2, 3], [2, G, -1], [-3, 2, 1]]),
                              [grid] * 3)
        ratio([lowest_weights([1, 2, 3, 4], 4)] * 3)  # a user is placed by the first evaluation
        U, V = (weighted_on(integer_grid(4), w) for w in ([1, 2, 3, 4], [4, 1, 1, 2]))
        calls = []

        def spy(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        for module in (icdof.bounds, icdof.dist):
            monkeypatch.setattr(module, "place_step", spy("place_step", module.place_step))
        monkeypatch.setattr(icdof.dist, "_new", spy("_new", icdof.dist._new))
        monkeypatch.setattr(DiscreteDist, "__init__", spy("__init__", DiscreteDist.__init__))
        rng = random.Random(3)
        for _ in range(5):
            weights = [lowest_weights([rng.randint(1, 2**70) for _ in range(4)], 4)
                       for _ in range(3)]
            hlambda(weights[:2])
            ratio(weights)
        assert calls == []
        # a one-off bound places each of its two steps once
        hlambda_bound(Fraction(1, 2), U, V)
        assert calls.count("place_step") == 2

    def test_one_placement_serves_every_candidate(self, monkeypatch):
        # a search packs each user's terms once, and scales V and places
        # U + lambda*V once, however many candidates it scores
        packs, scales = [], []
        pack, scale_ = icdof.dist._pack, icdof.bounds.scale
        monkeypatch.setattr(icdof.dist, "_pack", lambda *a: packs.append(1) or pack(*a))
        monkeypatch.setattr(icdof.bounds, "scale", lambda *a: scales.append(1) or scale_(*a))
        H = ChannelMatrix.from_rows([[1, -2, 3], [2, 1, -1], [-3, 2, 1]])
        config = OptConfig(restarts=2, max_iters=20, seed=5)
        assert sum(entry["evaluations"] for entry in optimize_theorem3(H, 3, config).trace) > 50
        assert (len(packs), len(scales)) == (3, 0)
        optimize_hlambda(Fraction(1, 2), 4, config)
        # 1/2*V, then U and 1/2*V on one lattice; U + V needs no packing
        assert (len(packs), len(scales)) == (5, 1)


# -- the whole search ----------------------------------------------------------


def twin_search(score, n, blocks, config, warm_start=None):
    """The search that builds each candidate's distributions with
    `weighted_on` and scores them, as it ran before placement."""
    if n < 2:
        raise ValidationError(f"need a support of at least 2 points, got n={n}")
    support = support_set(uniform_on(integer_grid(n)))
    rng = random.Random(config.seed)
    starts = ([rng.gauss(0.0, 1.0) for _ in range(blocks * n)] for _ in range(config.restarts))
    best_value, best_dists, trace = -math.inf, None, []
    for i, x0 in enumerate(starts):
        state = {"value": -math.inf, "dists": None, "evaluations": 0}
        if i == 0 and warm_start is not None:
            x0, value, dists = warm_start
            state.update(value=value, dists=dists, evaluations=1)

        def neg(x):
            dists = tuple(
                weighted_on(support, weights_from_logweights(
                    x[j * n:(j + 1) * n], config.rationalization_denominator))
                for j in range(blocks))
            value = score(dists)
            state["evaluations"] += 1
            if value > state["value"]:
                state.update(value=value, dists=dists)
            return -value

        start_value = -neg(x0)
        _nelder_mead(neg, x0, maxiter=config.max_iters, maxfev=4 * config.max_iters)
        trace.append({"restart": i, "start_value": start_value,
                      "best_value": state["value"], "evaluations": state["evaluations"]})
        if state["value"] > best_value:
            best_value, best_dists = state["value"], state["dists"]
    if best_dists is None:
        raise ValidationError("objective was degenerate at every candidate")
    return best_value, tuple(trace), best_dists


def twin_hlambda(lam, n, config):
    warm = None
    if lam == -1 and n >= 4:
        W4 = prop4_dist(n)
        logw = [math.log(float(p)) for p in icdof.optimize.PROP4_PROBS] + [math.log(1e-9)] * (n - 4)
        warm = (logw + logw, hlambda_bound(lam, W4, W4), (W4, W4))
    return twin_search(lambda dists: hlambda_bound(lam, *dists), n, 2, config, warm)


def twin_theorem3(H, n, config):
    def score(dists):
        try:
            return theorem3_ratio(H, dists)
        except BudgetExceededError:
            raise
        except ValidationError:
            return -math.inf

    return twin_search(score, n, H.K, config)


def searched(job):
    """A search's (best_value, trace, dists) as `outcome` gives them, or its error."""
    return outcome(lambda: (lambda r: (r.best_value, r.trace, r.dists))(job()))


_configs = st.builds(
    OptConfig,
    restarts=st.integers(1, 2),
    max_iters=st.sampled_from([5, 20, 60]),
    seed=st.integers(0, 2**16),
    rationalization_denominator=st.sampled_from([2, 100, 10**6]),
)


class TestSearchTwin:
    """The search on one placement per grid against the search that builds
    and scores a distribution per candidate: the same best value, trace and
    distributions, or the same error."""

    @settings(max_examples=25)
    @given(st.sampled_from(LAMBDAS), st.integers(2, 5), _configs)
    def test_hlambda(self, lam, n, config):
        twin = outcome(lambda: twin_hlambda(Fraction(lam), n, config))
        assert searched(lambda: optimize_hlambda(lam, n, config)) == twin

    @settings(max_examples=25)
    @given(channels(), st.integers(2, 3), _configs)
    def test_theorem3(self, H, n, config):
        twin = outcome(lambda: twin_theorem3(H, n, config))
        assert searched(lambda: optimize_theorem3(H, n, config)) == twin

    def test_degenerate_channel(self):
        H = ChannelMatrix.from_rows([[0, 0], [0, 0]])
        config = OptConfig(restarts=2, max_iters=10)
        degenerate = (ValidationError, "objective was degenerate at every candidate")
        assert outcome(lambda: twin_theorem3(H, 2, config)) == degenerate
        assert outcome(lambda: optimize_theorem3(H, 2, config)) == degenerate

    def test_budget_refusal(self):
        # each user's proved full step, 200^2 interference atoms times 200
        # signal atoms, is refused in the first evaluation on both sides
        H = ChannelMatrix.generic(3)
        config = OptConfig(restarts=1, max_iters=1, rationalization_denominator=2)
        refusal = (BudgetExceededError,
                   f"convolution needs 8000000 atom pairs, over the budget of {DEFAULT_ATOM_BUDGET}")
        assert outcome(lambda: twin_theorem3(H, 200, config)) == refusal
        assert outcome(lambda: optimize_theorem3(H, 200, config)) == refusal
