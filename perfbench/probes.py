"""Probes that the traced run takes besides its spans: scalar arithmetic on
the workload's own support points, and the CLI's import and cold start in
fresh subprocesses, spawned one at a time."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import icdof
from workloads import small_dist

perf = time.perf_counter
ADD_PAIRS = 100_000
# a product of multi-term symbolic points costs some 20 additions, so fewer pairs
MUL_PAIRS = 10_000
CHILD_TIMEOUT_S = 60
CLI_VERBS = ("bound-floor", "hlambda", "sumset", "condition", "infodim")


def scalar_probe(points: list, rng: random.Random) -> dict:
    """ns per ExactScalar add and mul over pairs drawn from `points`."""
    result = {}
    for key, count, op in (("scalar.add_ns", ADD_PAIRS, lambda a, b: a + b),
                           ("scalar.mul_ns", MUL_PAIRS, lambda a, b: a * b)):
        left = [rng.choice(points) for _ in range(count)]
        right = [rng.choice(points) for _ in range(count)]
        start = perf()
        for a, b in zip(left, right):
            op(a, b)
        result[key] = (perf() - start) / count * 1e9
    result["scalar.terms_per_point"] = sum(len(list(p.terms())) for p in points) / len(points)
    return result


def _write(directory: Path, name: str, obj) -> str:
    path = directory / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def cli_inputs(directory: Path, rng: random.Random) -> dict:
    """Argument lists for each probed verb, with input files written to `directory`."""
    u, v = (_write(directory, f"{n}.json", icdof.dist_to_json(small_dist(rng))) for n in "uv")
    a, b = (_write(directory, f"{n}.json",
                   icdof.set_to_json(icdof.finite_set(rng.sample(range(-20, 21), 8))))
            for n in "ab")
    matrix = _write(directory, "matrix.json", {"K": 3, "entries": [["generic"] * 3] * 3})
    ifs = _write(directory, "ifs.json", {"r": f"1/{rng.randint(3, 6)}", "w": ["0", "2"],
                                         "probs": ["1/2", "1/2"]})
    return {
        "bound-floor": ["bound-floor", "--k", "3", "--d", "1", "--n", str(rng.randint(2, 9))],
        "hlambda": ["hlambda", "--lambda", "-1", "--u", u, "--v", v],
        "sumset": ["sumset", "--a", a, "--b", b],
        "condition": ["condition", "--matrix", matrix, "--degree", "1"],
        "infodim": ["infodim", "--ifs", ifs],
    }


def cli_probe(src: Path, directory: Path, rng: random.Random) -> tuple[dict, list[str]]:
    """(metrics, failures) for `import icdof` and each verb's cold start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    failures = []
    timing = "import time; t = time.perf_counter(); import icdof; print(time.perf_counter() - t)"
    child = subprocess.run([sys.executable, "-c", timing], env=env, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    metrics = {"cli.import_ms": float(child.stdout) * 1e3 if child.returncode == 0 else 0.0}
    if child.returncode != 0:
        failures.append(f"import icdof failed: {child.stderr.strip()[-200:]}")
    for verb, argv in cli_inputs(directory, rng).items():
        start = perf()
        child = subprocess.run([sys.executable, "-m", "icdof.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        metrics[f"cli.cold_start_ms.{verb}"] = (perf() - start) * 1e3
        try:
            ok = child.returncode == 0 and isinstance(json.loads(child.stdout), dict)
        except ValueError:
            ok = False
        if not ok:
            failures.append(f"icdof {verb} exited {child.returncode}: {child.stdout.strip()[-200:]}")
    metrics["cli.cold_start_ms"] = median(metrics[f"cli.cold_start_ms.{v}"] for v in CLI_VERBS)
    return metrics, failures
