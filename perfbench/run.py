#!/usr/bin/env python3
"""icdof benchmark harness.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. The harness imports icdof from `src/`,
builds the workload's seeded job list, then runs that list pass after pass,
one op at a time (a closed loop with one client), for `--seconds`. Every
output is checked. On the default seed, the digest of each first pass must
match `perfbench/digests.json`.

With `--trace 0`, the time is split between fresh worker processes, which
run one after another, and the end-to-end metrics named in BENCHMARK.json
are printed. With `--trace 1`, one process alternates untraced and traced
passes and prints the per-layer metrics. Summary lines come first. The last
line of standard output is one JSON object {correct, attempted, failed,
metrics}. The exit code is 0 when every check passed, 1 when one failed and
2 on a usage error.

`--workload` also takes a comma-separated list or `all`. Each workload then
runs in a fresh process of its own, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("certify", "dimension", "corpus", "search")
DEFAULT_SEED = 0
# Each worker is a fresh process: its start-up is one set-up sample, and the
# run's medians pool passes from processes with different memory layouts.
WORKERS = {"full": 3, "tiny": 1}
# The highest percentile with at least ten op latencies beyond it in a run at
# this commit, fixed per workload so that faster commits report the same one.
TAIL_PERCENTILE = {"certify": 90, "dimension": 90, "corpus": 99, "search": 90}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOAD_NAMES)}, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every job list, for the smoke test")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}")
    args.names = names
    return args


def percentile(ordered: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and how many lie beyond it."""
    index = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


def digest(projections: list) -> str:
    text = json.dumps(projections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build_ops(args):
    import workloads

    return workloads.build(args.names[0], args.seed, args.size)


def measure(ops, seconds: float, tracer=None, min_passes: int = 1):
    """Run the job list pass after pass until `seconds` have passed. Returns
    the passes as (traced, op seconds, counters), the failure messages, and
    the first pass's projections."""
    passes, failed, projections = [], [], []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        # untraced, traced, traced, untraced, ...: neither side always runs first
        traced = tracer is not None and len(passes) % 4 in (1, 2)
        times = []
        with tracer.installed() if traced else nullcontext():
            for index, op in enumerate(ops):
                if traced:
                    tracer.op_id = len(passes) * len(ops) + index
                    tracer.recording = True
                began = time.perf_counter()
                try:
                    result = op.run()
                    error = None
                except Exception as exc:  # an unexpected raise fails the op
                    error = f"raised {type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - began)
                if traced:
                    tracer.recording = False
                if error is None:
                    try:
                        error = op.check(result)
                        if not passes:
                            projections.append([op.kind, op.project(result)])
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    failed.append(f"{op.kind}: {error}")
        passes.append((traced, times, tracer.take() if traced else None))
    return passes, failed, projections


def worker(args) -> int:
    """One fresh process: set up, say so, measure, and report on one line."""
    ops = build_ops(args)
    print("ready", flush=True)
    passes, failed, projections = measure(ops, args.seconds)
    print(json.dumps({"times": [times for _, times, _ in passes], "failed": failed,
                      "digest": digest(projections),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


def run_worker(command: list[str]) -> tuple[float, dict]:
    """Seconds from spawn until the worker's set-up is done, and its report."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        setup = time.perf_counter() - start
        lines = child.stdout.read().splitlines()
        code = child.wait()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(f"worker exited {code} after {ready.strip()!r}")
    return setup, json.loads(lines[-1])


def end_to_end(args):
    name = args.names[0]
    count = WORKERS[args.size]
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", name,
               "--seed", str(args.seed), "--size", args.size, "--seconds", str(args.seconds / count)]
    setup, reports = zip(*(run_worker(command) for _ in range(count)))
    passes = [times for report in reports for times in report["times"]]
    op_times = sorted(t for times in passes for t in times)
    tail, beyond = percentile(op_times, TAIL_PERCENTILE[name])
    values = {
        "wall_s": median(sum(times) for times in passes),
        "setup_s": median(setup),
        "peak_rss_mb": median(report["peak_rss_mb"] for report in reports),
        "op_p50_ms": median(op_times) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    failed = [message for report in reports for message in report["failed"]]
    digests = [(report["digest"], len(report["times"][0])) for report in reports]
    summary = (f"workers={count} passes={len(passes)} ops={len(op_times)} "
               f"tail=p{TAIL_PERCENTILE[name]} ({beyond} ops beyond it)")
    return values, len(op_times), failed, digests, summary


def per_layer(args):
    import probes
    import tracing

    name, ops, tracer = args.names[0], build_ops(args), tracing.Tracer()
    passes, failed, projections = measure(ops, args.seconds, tracer, min_passes=3)
    traced = [(raw, sum(times)) for was_traced, times, raw in passes if was_traced]
    untraced_s = median(sum(times) for was_traced, times, _ in passes if not was_traced)
    values = tracing.layer_metrics(traced)
    values["trace.overhead_frac"] = median(s for _, s in traced) / untraced_s - 1
    values.update(probes.scalar_probe(tracer.points, random.Random(args.seed)))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        cli, cli_failures = probes.cli_probe(SRC, Path(scratch), random.Random(args.seed))
    values.update(cli)
    spans = OUT / f"spans-{name}-seed{args.seed}.jsonl"
    tracer.write(spans)
    attempted = len(ops) * len(passes) + len(probes.CLI_VERBS) + 1
    summary = f"passes={len(passes)} traced={len(traced)} spans={len(tracer.spans)} -> {spans}"
    return values, attempted, failed + cli_failures, [(digest(projections), len(ops))], summary


def digest_failures(name: str, args, digests) -> list[str]:
    """On the default seed at full size, a digest that differs from the
    recorded one fails every op of the pass it covers."""
    if args.seed != DEFAULT_SEED or args.size != "full":
        return []
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)
    return [f"default-seed digest {value} differs from the recorded {recorded}"
            for value, ops in digests if value != recorded for _ in range(ops)]


def emit(correct: bool, attempted: int, failed: int, values: dict, kind: str) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        specs = json.load(fh)[kind]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_one(args) -> int:
    name = args.names[0]
    if args.worker:
        return worker(args)
    kind = "per_layer" if args.trace else "end_to_end"
    values, attempted, failed, digests, summary = (per_layer if args.trace else end_to_end)(args)
    failed += digest_failures(name, args, digests)
    for message in failed[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload={name} seed={args.seed} size={args.size} trace={args.trace} "
          f"attempted={attempted} failed={len(failed)} "
          f"failed_frac={len(failed) / attempted:.6g} (ratio) {summary}")
    print(f"digests={sorted({value for value, _ in digests})}")
    for key, value in values.items():
        print(f"  {key} = {value:.6g}")
    emit(not failed, attempted, len(failed), values, kind)
    return 0 if not failed else 1


def run_many(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in args.names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, child.returncode)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {}
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, **result}
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "icdof" / "__init__.py").is_file():
        print(f"icdof sources not found under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if len(args.names) > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
