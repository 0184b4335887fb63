"""Command-line front door: every engine capability behind one verb each,
JSON in, JSON out.

Exit codes: 0 on success, 2 on any input problem (the error object
{code, message, ...} goes to stdout so pipelines can consume it) and on a
result that is not finite (code "non-finite", since JSON has no NaN or
infinity), 1 on an internal failure. Progress chatter goes to stderr only.
A reader that closes stdout early, as `| head` does, cuts the report short
without a traceback; the exit code is still the report's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .bounds import (
    hlambda_bound,
    integer_example_bound,
    nonasymptotic_floor,
    theorem1_certified_bound,
    theorem3_ratio,
)
from .channel import ChannelMatrix, channel_from_json, check_condition_star
from .dist import DEFAULT_ATOM_BUDGET, dist_from_json, dist_to_json, entropy_bits
from .errors import BudgetExceededError, IcdofError, ParseError, NotRationalError
from .infodim import (
    NON_EXCEPTIONAL_CAVEAT,
    empirical_infodim,
    ifs_from_json,
    infodim_formula,
    log2_inverse_contraction,
    recommended_quantization,
)
from .optimize import OptConfig, optimize_hlambda, optimize_theorem3
from .scalar import exact_str, parse_rational
from .sumsets import (
    entropy_inequality_suite,
    is_arithmetic_progression,
    set_from_json,
    set_to_json,
    sumset,
)

SIGNIFICANT_DIGITS = 12


def _round_floats(obj):
    """12 significant digits on every float in a report, recursively; ints,
    strings and rationals-as-strings pass through untouched."""
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and integers over the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_channel(path: str) -> ChannelMatrix:
    return channel_from_json(_load_json(path))


def _load_dist(path: str):
    return dist_from_json(_load_json(path))


def _matrix_arg(args) -> ChannelMatrix:
    if args.matrix is not None:
        return _load_channel(args.matrix)
    limit = max(args.budget, DEFAULT_ATOM_BUDGET)
    if args.k >= 2 and args.k * args.k > limit:  # K < 2 is refused by the matrix itself
        raise BudgetExceededError(
            f"a generic matrix with K={args.k} has {args.k}^2 entries, over the budget of {limit}")
    return ChannelMatrix.generic(args.k)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as JSON error objects instead of
    printing usage text and exiting on its own."""

    def error(self, message):
        raise ParseError(message)


# -- verb handlers ----------------------------------------------------------------


def _cmd_condition(args) -> dict:
    H = _load_channel(args.matrix)
    return check_condition_star(H, args.degree).to_json()


def _cmd_bound_thm1(args) -> dict:
    H = _matrix_arg(args)
    report = theorem1_certified_bound(H, args.d, args.n, budget=args.budget)
    return report.to_json()


def _cmd_bound_floor(args) -> dict:
    return {"floor": nonasymptotic_floor(args.k, args.d, args.n)}


def _cmd_bound_integer(args) -> dict:
    obj = _load_json(args.matrix)
    if not isinstance(obj, dict) or "K" not in obj or "entries" not in obj:
        raise ParseError('integer matrix file needs {"K": ..., "entries": [[...]]}')
    report = integer_example_bound(obj["K"], obj["entries"], args.n, budget=args.budget)
    return report.to_json()


def _cmd_ratio_thm3(args) -> dict:
    H = _matrix_arg(args)
    dists = [_load_dist(path) for path in args.dist]
    return {"ratio": theorem3_ratio(H, dists, budget=args.budget), "K": H.K}


def _cmd_hlambda(args) -> dict:
    U = _load_dist(args.u)
    V = _load_dist(args.v)
    return {"bound": hlambda_bound(args.lam, U, V, budget=args.budget), "lambda": str(args.lam)}


def _cmd_optimize(args) -> dict:
    config = OptConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        rationalization_denominator=args.max_denominator,
    )

    def progress(entry: dict) -> None:
        print(
            f"restart {entry['restart']}: start {entry['start_value']:.6g}, "
            f"best {entry['best_value']:.6g} after {entry['evaluations']} evaluations",
            file=sys.stderr,
        )

    if args.target == "hlambda":
        if args.lam is None:
            raise ParseError("--lambda is required for --target hlambda")
        result = optimize_hlambda(args.lam, args.n, config, progress=progress)
        target = {"target": "hlambda", "lambda": str(args.lam)}
    else:
        if args.matrix is None:
            raise ParseError("--matrix is required for --target thm3")
        H = _load_channel(args.matrix)
        result = optimize_theorem3(H, args.n, config, progress=progress)
        target = {"target": "thm3", "K": H.K}
    return {
        "best_value": result.best_value,
        "seed": result.seed,
        "dists": [dist_to_json(dist) for dist in result.dists],
        "trace": result.trace,
        **target,
    }


def _cmd_infodim(args) -> dict:
    ifs = ifs_from_json(_load_json(args.ifs))
    report = {
        "dimension": infodim_formula(ifs),
        "offset_entropy": entropy_bits(ifs.offset_dist()),
        "log2_inverse_r": log2_inverse_contraction(ifs.r),
        "caveat": NON_EXCEPTIONAL_CAVEAT,
    }
    if args.m is not None:
        report["empirical"] = empirical_infodim(ifs, args.m, args.quant, args.budget)
        report["m"] = args.m
        report["quantization"] = (
            recommended_quantization(ifs, args.m) if args.quant is None else args.quant)
    return report


def _ap_json(elements) -> Optional[dict]:
    try:
        decomposition = is_arithmetic_progression(elements)
    except NotRationalError:
        return None
    if decomposition is None:
        return None
    start, step, length = decomposition
    return {
        "start": exact_str(start),
        "step": None if step is None else exact_str(step),
        "length": length,
    }


def _cmd_sumset(args) -> dict:
    A = set_from_json(_load_json(args.a))
    B = set_from_json(_load_json(args.b))
    total = sumset(A, B, budget=args.budget)
    return {
        "sizes": {"a": len(A), "b": len(B), "sum": len(total)},
        "sum": set_to_json(total),
        "trivial_bounds": {
            "lower_ok": max(len(A), len(B)) <= len(total),
            "upper_ok": len(total) <= len(A) * len(B),
        },
        "progressions": {"a": _ap_json(A), "b": _ap_json(B), "sum": _ap_json(total)},
    }


def _cmd_ineq_suite(args) -> dict:
    U = _load_dist(args.u)
    V = _load_dist(args.v)
    return entropy_inequality_suite(U, V, budget=args.budget).to_json()


# -- parser wiring ----------------------------------------------------------------


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_budget(parser) -> None:
    parser.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_ATOM_BUDGET,
        help=f"atom limit for exact enumeration (default {DEFAULT_ATOM_BUDGET})",
    )


def _add_matrix_or_k(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="channel matrix JSON file")
    group.add_argument("--k", type=int, help="number of users for a fully generic matrix")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icdof", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("condition", help="rational-independence check of the monomial families")
    p.add_argument("--matrix", required=True, help="channel matrix JSON file")
    p.add_argument("--degree", type=int, required=True, help="degree bound d")
    p.set_defaults(handler=_cmd_condition)

    p = verbs.add_parser("bound-thm1", help="certified construction bound for a checked matrix")
    _add_matrix_or_k(p)
    p.add_argument("--d", type=int, required=True, help="monomial degree bound")
    p.add_argument("--n", type=int, required=True, help="coefficient range {1..N}")
    _add_budget(p)
    p.set_defaults(handler=_cmd_bound_thm1)

    p = verbs.add_parser("bound-floor", help="closed-form floor, no enumeration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_bound_floor)

    p = verbs.add_parser("bound-integer", help="integer matrix with fresh-generator diagonal")
    p.add_argument("--matrix", required=True, help="integer matrix JSON file")
    p.add_argument("--n", type=int, required=True, help="inputs uniform on {0..N-1}")
    _add_budget(p)
    p.set_defaults(handler=_cmd_bound_integer)

    p = verbs.add_parser("ratio-thm3", help="output-entropy ratio for given input distributions")
    _add_matrix_or_k(p)
    p.add_argument(
        "--dist",
        action="append",
        required=True,
        help="distribution JSON file, one per user in row order",
    )
    _add_budget(p)
    p.set_defaults(handler=_cmd_ratio_thm3)

    p = verbs.add_parser("hlambda", help="two-user bound 2 - H(U+V)/H(U+lambda*V)")
    p.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    p.add_argument("--u", required=True, help="distribution JSON file for U")
    p.add_argument("--v", required=True, help="distribution JSON file for V")
    _add_budget(p)
    p.set_defaults(handler=_cmd_hlambda)

    p = verbs.add_parser("optimize", help="restarted derivative-free search over distributions")
    p.add_argument("--target", choices=("hlambda", "thm3"), required=True)
    p.add_argument("--lambda", dest="lam", type=parse_rational, help="for --target hlambda")
    p.add_argument("--matrix", help="channel matrix JSON file, for --target thm3")
    p.add_argument("--n", type=int, required=True, help="support grid {0..n-1}")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-denominator", type=int, default=10**6)
    p.set_defaults(handler=_cmd_optimize)

    p = verbs.add_parser("infodim", help="dimension formula and optional empirical estimate")
    p.add_argument("--ifs", required=True, help="IFS JSON file {r, w, probs}")
    p.add_argument("--m", type=int, help="truncation depth for the empirical estimate")
    p.add_argument("--quant", type=int, help="quantization factor k (default: recommended)")
    _add_budget(p)
    p.set_defaults(handler=_cmd_infodim)

    p = verbs.add_parser("sumset", help="sum of two finite sets with structure report")
    p.add_argument("--a", required=True, help="set JSON file")
    p.add_argument("--b", required=True, help="set JSON file")
    _add_budget(p)
    p.set_defaults(handler=_cmd_sumset)

    p = verbs.add_parser("ineq-suite", help="sum-difference entropy inequalities for one pair")
    p.add_argument("--u", required=True, help="distribution JSON file for U")
    p.add_argument("--v", required=True, help="distribution JSON file for V")
    _add_budget(p)
    p.set_defaults(handler=_cmd_ineq_suite)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, status = args.handler(args), 0
    except IcdofError as exc:
        report, status = {"code": exc.code, "message": str(exc), **exc.payload}, 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:  # pragma: no cover - defensive
        report, status = {"code": "internal-error", "message": f"{type(exc).__name__}: {exc}"}, 1
    try:
        text = json.dumps(_round_floats(report), indent=2, allow_nan=False)
    except ValueError:
        # refused rather than printed as the non-standard `NaN` or `Infinity`
        error = {"code": "non-finite", "message": "the result holds a value that is not finite"}
        text, status = json.dumps(error, indent=2), 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`icdof ... | head`); point stdout at devnull so
        # the flush at interpreter exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
