"""CLI surface: verb wiring, JSON reports, exit codes, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icdof
import icdof.bounds
import icdof.dist
import icdof.optimize
from icdof import ChannelMatrix, cli
from icdof.cli import run
from conftest import PowerSpy


@pytest.fixture
def files(tmp_path):
    def write(name: str, obj) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


@pytest.fixture
def prop4_file(files):
    return files(
        "prop4.json",
        {
            "atoms": [
                {"value": "0", "prob": "8/15625"},
                {"value": "1", "prob": "4/625"},
                {"value": "2", "prob": "2/25"},
                {"value": "3", "prob": "14267/15625"},
            ]
        },
    )


@pytest.fixture
def coin_file(files):
    return files(
        "coin.json",
        {"atoms": [{"value": "0", "prob": "1/2"}, {"value": "1", "prob": "1/2"}]},
    )


@pytest.fixture
def rational_matrix_file(files):
    return files(
        "rational.json",
        {"K": 3, "entries": [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]]},
    )


# stdout of the certified bounds, pinned byte for byte: the split is proved
# from monomials and its entropy summed from weight multisets, and these
# must print what enumerating every sum printed
GOLDEN_THM1_K3_D1_N2 = """\
{
  "bound": 0.107142857143,
  "per_user": [
    [
      20.5,
      13.5,
      0.0357142857143
    ],
    [
      20.5,
      13.5,
      0.0357142857143
    ],
    [
      20.5,
      13.5,
      0.0357142857143
    ]
  ],
  "r_log": 14.0,
  "caveat": "valid for non-exceptional r",
  "params": {
    "K": 3,
    "d": 1,
    "N": 2
  },
  "closed_form": -9.0
}
"""

GOLDEN_THM1_K2_D1_N4 = """\
{
  "bound": 1.0,
  "per_user": [
    [
      12.0,
      6.0,
      0.5
    ],
    [
      12.0,
      6.0,
      0.5
    ]
  ],
  "r_log": 12.0,
  "caveat": "valid for non-exceptional r",
  "params": {
    "K": 2,
    "d": 1,
    "N": 4
  },
  "closed_form": 0.0
}
"""

GOLDEN_INTEGER_K3_N3 = """\
{
  "bound": 0.385327820115,
  "per_user": [
    [
      4.31044305772,
      2.725480557,
      0.128442606705
    ],
    [
      4.75488750216,
      3.16992500144,
      0.128442606705
    ],
    [
      4.31044305772,
      2.725480557,
      0.128442606705
    ]
  ],
  "r_log": 12.3398500029,
  "caveat": "valid for non-exceptional r",
  "params": {
    "K": 3,
    "N": 3,
    "h_max": 4
  },
  "closed_form": 0.385327820115
}
"""

# the same table at N = 500, where each user's interference step (500 x 500
# atom pairs) is summed as one big-integer product instead of pair by pair;
# pinned from the output of the pair loop
GOLDEN_INTEGER_K3_N500 = """\
{
  "bound": 0.992467547361,
  "per_user": [
    [
      19.2922259665,
      10.3264416818,
      0.330822515787
    ],
    [
      19.7569530178,
      10.7911687331,
      0.330822515787
    ],
    [
      19.2922259665,
      10.3264416818,
      0.330822515787
    ]
  ],
  "r_log": 27.1014935708,
  "caveat": "valid for non-exceptional r",
  "params": {
    "K": 3,
    "N": 500,
    "h_max": 4
  },
  "closed_form": 0.992467547361
}
"""


def module_command(*argv: str) -> tuple[list[str], dict]:
    """`python -m icdof <argv>` and an environment that imports this
    checkout's package."""
    src = str(Path(icdof.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "icdof", *argv], {**os.environ, "PYTHONPATH": path}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# stdout of two small optimizer runs, pinned byte for byte: any drift in how
# weights are rationalized changes the printed probabilities
GOLDEN_HLAMBDA = """\
{
  "best_value": 1.1333762636,
  "seed": 0,
  "dists": [
    {
      "atoms": [
        {
          "value": "0",
          "prob": "1080999986332/3010291946805837"
        },
        {
          "value": "1",
          "prob": "15188845881455/3010291946805837"
        },
        {
          "value": "2",
          "prob": "191867627133238/3010291946805837"
        },
        {
          "value": "3",
          "prob": "2802154473804812/3010291946805837"
        }
      ]
    },
    {
      "atoms": [
        {
          "value": "0",
          "prob": "7550321351769/23290575512350673"
        },
        {
          "value": "1",
          "prob": "107876612253816/23290575512350673"
        },
        {
          "value": "2",
          "prob": "1447374432918584/23290575512350673"
        },
        {
          "value": "3",
          "prob": "21727774145826504/23290575512350673"
        }
      ]
    }
  ],
  "trace": [
    {
      "restart": 0,
      "start_value": 1.13257556846,
      "best_value": 1.1333762636,
      "evaluations": 66
    },
    {
      "restart": 1,
      "start_value": 0.99025127297,
      "best_value": 1.03741725983,
      "evaluations": 62
    }
  ],
  "target": "hlambda",
  "lambda": "-1"
}
"""

GOLDEN_THM3 = """\
{
  "best_value": 0.999987339524,
  "seed": 0,
  "dists": [
    {
      "atoms": [
        {
          "value": "0",
          "prob": "970147/970214"
        },
        {
          "value": "1",
          "prob": "67/970214"
        }
      ]
    },
    {
      "atoms": [
        {
          "value": "0",
          "prob": "501177/845075"
        },
        {
          "value": "1",
          "prob": "343898/845075"
        }
      ]
    },
    {
      "atoms": [
        {
          "value": "0",
          "prob": "1/1000001"
        },
        {
          "value": "1",
          "prob": "1000000/1000001"
        }
      ]
    }
  ],
  "trace": [
    {
      "restart": 0,
      "start_value": 0.766252733331,
      "best_value": 0.999987339524,
      "evaluations": 64
    },
    {
      "restart": 1,
      "start_value": 0.776179918394,
      "best_value": 0.986387572652,
      "evaluations": 64
    }
  ],
  "target": "thm3",
  "K": 3
}
"""


# the same warm-started search with fewer iterations: stdout, and the one
# progress line per restart on stderr, pinned byte for byte
GOLDEN_HLAMBDA_ITERS30 = """\
{
  "best_value": 1.13329425921,
  "seed": 0,
  "dists": [
    {
      "atoms": [
        {
          "value": "0",
          "prob": "146602145915243/314767630223774564"
        },
        {
          "value": "1",
          "prob": "1906047454641421/314767630223774564"
        },
        {
          "value": "2",
          "prob": "725721323156193/10854056214612916"
        },
        {
          "value": "3",
          "prob": "291669062251688303/314767630223774564"
        }
      ]
    },
    {
      "atoms": [
        {
          "value": "0",
          "prob": "16547936292174/49990190824253167"
        },
        {
          "value": "1",
          "prob": "295792428549469/49990190824253167"
        },
        {
          "value": "2",
          "prob": "173153466725568/2631062674960693"
        },
        {
          "value": "3",
          "prob": "46387934591625732/49990190824253167"
        }
      ]
    }
  ],
  "trace": [
    {
      "restart": 0,
      "start_value": 1.13257556846,
      "best_value": 1.13329425921,
      "evaluations": 54
    },
    {
      "restart": 1,
      "start_value": 0.99025127297,
      "best_value": 1.01602327318,
      "evaluations": 49
    }
  ],
  "target": "hlambda",
  "lambda": "-1"
}
"""

GOLDEN_HLAMBDA_ITERS30_ERR = """\
restart 0: start 1.13258, best 1.13329 after 54 evaluations
restart 1: start 0.990251, best 1.01602 after 49 evaluations
"""

# an all-zero channel scores -inf everywhere: both restarts report before the
# degenerate refusal
GOLDEN_ZERO_THM3 = """\
{
  "code": "invalid-input",
  "message": "objective was degenerate at every candidate"
}
"""

GOLDEN_ZERO_THM3_ERR = """\
restart 0: start -inf, best -inf after 21 evaluations
restart 1: start -inf, best -inf after 21 evaluations
"""


# stdout of `icdof sumset` on a rational and a symbolic example, pinned byte
# for byte: the order of the elements and the progression reports
GOLDEN_SUMSET_RATIONAL = """\
{
  "sizes": {
    "a": 3,
    "b": 2,
    "sum": 4
  },
  "sum": {
    "elements": [
      "-1/6",
      "1/3",
      "5/6",
      "4/3"
    ]
  },
  "trivial_bounds": {
    "lower_ok": true,
    "upper_ok": true
  },
  "progressions": {
    "a": {
      "start": "-1/2",
      "step": "1/2",
      "length": 3
    },
    "b": {
      "start": "1/3",
      "step": "1/2",
      "length": 2
    },
    "sum": {
      "start": "-1/6",
      "step": "1/2",
      "length": 4
    }
  }
}
"""

GOLDEN_SUMSET_SYMBOLIC = """\
{
  "sizes": {
    "a": 3,
    "b": 2,
    "sum": 6
  },
  "sum": {
    "elements": [
      "1/3 + 2*g1",
      "1/3 + 3*g1",
      "1",
      "1 + g1",
      "g1",
      "2*g1"
    ]
  },
  "trivial_bounds": {
    "lower_ok": true,
    "upper_ok": true
  },
  "progressions": {
    "a": null,
    "b": null,
    "sum": null
  }
}
"""


class TestVerbs:
    def test_hlambda(self, capsys, prop4_file):
        code, report = run_json(
            capsys, ["hlambda", "--lambda", "-1", "--u", prop4_file, "--v", prop4_file]
        )
        assert code == 0
        assert report["bound"] == pytest.approx(1.13258, abs=1e-4)

    def test_hlambda_reads_an_en_dash_as_minus(self, capsys, prop4_file, coin_file):
        outputs = []
        for lam in ("-1", "–1"):
            assert run(["hlambda", "--lambda", lam, "--u", prop4_file, "--v", coin_file]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_bound_floor(self, capsys):
        code, report = run_json(capsys, ["bound-floor", "--k", "3", "--d", "3", "--n", "4"])
        assert code == 0
        assert report == {"floor": -2.625}

    def test_condition_violated(self, capsys, rational_matrix_file):
        code, report = run_json(
            capsys, ["condition", "--matrix", rational_matrix_file, "--degree", "2"]
        )
        assert code == 0
        assert report["status"] == "violated"
        assert report["witness"]["combination"]

    def test_condition_generic_holds(self, capsys, files):
        matrix = files(
            "generic.json", {"K": 2, "entries": [["generic", "generic"], ["generic", "generic"]]}
        )
        code, report = run_json(capsys, ["condition", "--matrix", matrix, "--degree", "2"])
        assert code == 0
        assert report["status"] == "holds-up-to-bound"

    def test_bound_thm1_generic(self, capsys):
        code, report = run_json(capsys, ["bound-thm1", "--k", "2", "--d", "0", "--n", "2"])
        assert code == 0
        assert report["bound"] == pytest.approx(1.0, abs=1e-9)
        assert {"bound", "per_user", "r_log", "caveat", "params"} <= report.keys()

    def test_bound_integer(self, capsys, files):
        matrix = files("ones.json", {"K": 3, "entries": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]})
        code, report = run_json(capsys, ["bound-integer", "--matrix", matrix, "--n", "2"])
        assert code == 0
        assert report["bound"] == pytest.approx(0.4184144184766949, abs=1e-9)
        assert report["closed_form"] == pytest.approx(report["bound"], abs=1e-9)

    def test_ratio_thm3(self, capsys, coin_file, files):
        point = files("pt.json", {"atoms": [{"value": "0", "prob": "1"}]})
        code, report = run_json(
            capsys, ["ratio-thm3", "--k", "2", "--dist", coin_file, "--dist", point]
        )
        assert code == 0
        assert report["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_infodim(self, capsys, files):
        ifs = files("cantor.json", {"r": "1/3", "w": ["0", "2"], "probs": ["1/2", "1/2"]})
        code, report = run_json(capsys, ["infodim", "--ifs", ifs, "--m", "8"])
        assert code == 0
        assert report["dimension"] == pytest.approx(0.6309297535714575, abs=1e-9)
        assert report["empirical"] == pytest.approx(report["dimension"], abs=0.02)
        assert report["quantization"] == 2187
        assert "caveat" in report

    def test_sumset(self, capsys, files):
        a = files("a.json", {"elements": ["0", "1", "2"]})
        b = files("b.json", {"elements": ["10", "12"]})
        code, report = run_json(capsys, ["sumset", "--a", a, "--b", b])
        assert code == 0
        assert report["sizes"] == {"a": 3, "b": 2, "sum": 5}
        assert report["sum"]["elements"] == ["10", "11", "12", "13", "14"]
        assert report["trivial_bounds"] == {"lower_ok": True, "upper_ok": True}
        assert report["progressions"]["a"] == {"start": "0", "step": "1", "length": 3}
        assert report["progressions"]["sum"]["step"] == "1"

    def test_ineq_suite(self, capsys, coin_file):
        code, report = run_json(capsys, ["ineq-suite", "--u", coin_file, "--v", coin_file])
        assert code == 0
        assert report["slacks"]["triple_difference"] == pytest.approx(1.0, abs=1e-9)

    def test_optimize_hlambda(self, capsys):
        argv = [
            "optimize", "--target", "hlambda", "--lambda", "-1", "--n", "4",
            "--restarts", "2", "--max-iters", "30", "--seed", "3",
        ]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["best_value"] >= 1.13258 - 1e-4
        assert len(report["dists"]) == 2
        assert len(report["trace"]) == 2

    def test_optimize_thm3(self, capsys, files):
        matrix = files(
            "g3.json",
            {"K": 3, "entries": [["generic"] * 3, ["generic"] * 3, ["generic"] * 3]},
        )
        argv = [
            "optimize", "--target", "thm3", "--matrix", matrix, "--n", "2",
            "--restarts", "2", "--max-iters", "20",
        ]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert 1.0 - 1e-9 <= report["best_value"] <= 1.5 + 1e-9


class TestExitCodes:
    def test_condition_violation_carries_witness(self, capsys, rational_matrix_file):
        code, report = run_json(
            capsys, ["bound-thm1", "--matrix", rational_matrix_file, "--d", "1", "--n", "2"]
        )
        assert code == 2
        assert report["code"] == "condition-star-violated"
        assert "witness" in report

    def test_zero_lambda(self, capsys, coin_file):
        code, report = run_json(
            capsys, ["hlambda", "--lambda", "0", "--u", coin_file, "--v", coin_file]
        )
        assert code == 2
        assert report["code"] == "invalid-input"

    def test_missing_file(self, capsys):
        code, report = run_json(capsys, ["condition", "--matrix", "nope.json", "--degree", "1"])
        assert code == 2
        assert report["code"] == "parse-error"

    def test_budget_exceeded(self, capsys, coin_file, prop4_file):
        code, report = run_json(
            capsys,
            ["hlambda", "--lambda", "-1", "--u", prop4_file, "--v", coin_file, "--budget", "3"],
        )
        assert code == 2
        assert report["code"] == "budget-exceeded"

    def test_budget_must_be_positive(self, capsys):
        for budget in ("-5", "0"):
            code, report = run_json(
                capsys, ["bound-thm1", "--k", "2", "--d", "0", "--n", "3", "--budget", budget]
            )
            assert code == 2
            assert report["code"] == "parse-error"
            assert "--budget" in report["message"]

    def test_budget_must_be_an_integer(self, capsys):
        code, report = run_json(
            capsys, ["bound-thm1", "--k", "2", "--d", "0", "--n", "3", "--budget", "abc"])
        assert (code, report["code"]) == (2, "parse-error")
        assert "--budget" in report["message"] and "'abc'" in report["message"]

    def test_bound_floor_overflow_is_invalid_input(self, capsys):
        code, report = run_json(
            capsys, ["bound-floor", "--k", str(10**400), "--d", "0", "--n", "2"]
        )
        assert code == 2
        assert report["code"] == "invalid-input"

    def test_unknown_verb(self, capsys):
        code, report = run_json(capsys, ["frobnicate"])
        assert code == 2
        assert report["code"] == "parse-error"

    def test_missing_required_flag(self, capsys):
        code, report = run_json(capsys, ["condition", "--degree", "1"])
        assert code == 2
        assert report["code"] == "parse-error"

    @pytest.mark.parametrize("flags, code, message", [
        (["--target", "hlambda", "--lambda", "-1", "--n", "1"],
         "invalid-input", "need a support of at least 2 points, got n=1"),
        (["--target", "thm3", "--matrix", "MATRIX", "--n", "1"],
         "invalid-input", "need a support of at least 2 points, got n=1"),
        (["--target", "hlambda", "--lambda", "-1", "--n", "0"],
         "invalid-input", "need a support of at least 2 points, got n=0"),
        (["--target", "hlambda", "--lambda", "-1", "--n", "-2"],
         "invalid-input", "need a support of at least 2 points, got n=-2"),
        (["--target", "hlambda", "--lambda", "-1", "--n", "3", "--restarts", "0"],
         "invalid-input", "need at least 1 restart, got 0"),
        (["--target", "hlambda", "--lambda", "-1", "--n", "3", "--max-iters", "0"],
         "invalid-input", "need at least 1 iteration, got 0"),
        (["--target", "hlambda", "--lambda", "-1", "--n", "3", "--max-denominator", "1"],
         "invalid-input", "rationalization denominator must be at least 2"),
        (["--target", "hlambda", "--lambda", "0", "--n", "3"],
         "invalid-input", "lambda must be nonzero"),
        (["--target", "hlambda", "--lambda", "1/0", "--n", "3"],
         "parse-error", "zero denominator in '1/0'"),
        (["--target", "hlambda", "--lambda", "x", "--n", "3"],
         "parse-error", "expected a rational 'p/q' or 'p', got 'x'"),
        (["--target", "hlambda", "--n", "3"],
         "parse-error", "--lambda is required for --target hlambda"),
        (["--target", "thm3", "--n", "3"],
         "parse-error", "--matrix is required for --target thm3"),
    ])
    def test_optimize_refusals(self, capsys, files, flags, code, message):
        matrix = files("m3.json", {"K": 3, "entries": [[1, 2, 3], [4, 5, 7], [2, -1, 1]]})
        argv = ["optimize"] + [matrix if flag == "MATRIX" else flag for flag in flags]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"code": code, "message": message}
        assert captured.err == ""

    def test_wrong_dist_count(self, capsys, coin_file):
        code, report = run_json(capsys, ["ratio-thm3", "--k", "3", "--dist", coin_file])
        assert code == 2
        assert report["code"] == "invalid-input"

    def test_decimal_scalar_rejected(self, capsys, files):
        bad = files("bad.json", {"atoms": [{"value": "0.5", "prob": "1"}]})
        code, report = run_json(capsys, ["ineq-suite", "--u", bad, "--v", bad])
        assert code == 2
        assert report["code"] == "parse-error"
        assert "fraction" in report["message"]

    @pytest.mark.parametrize("text", [
        '{"K": 2, "entries": [["h^%s", "1"], ["1", "g"]]}' % ("9" * 5000),  # exponent
        '{"K": 2, "entries": [["%s", "1"], ["1", "g"]]}' % ("1" * 5000),  # scalar literal
        '{"K": 2, "entries": [[%s, 1], [1, "g"]]}' % ("1" * 5000),  # bare JSON integer
    ], ids=["exponent", "scalar", "json-integer"])
    def test_integers_over_the_digit_limit_are_parse_errors(self, capsys, tmp_path, text):
        path = tmp_path / "long.json"
        path.write_text(text)
        code, report = run_json(capsys, ["condition", "--matrix", str(path), "--degree", "1"])
        assert (code, report["code"]) == (2, "parse-error")
        assert "5000 digits" in report["message"]

    def test_support_point_over_the_digit_limit_is_a_parse_error(self, capsys, files):
        point = files("point.json", {"atoms": [{"value": "1" * 5000, "prob": "1"}]})
        code, report = run_json(capsys, ["hlambda", "--lambda", "1", "--u", point, "--v", point])
        assert (code, report["code"]) == (2, "parse-error")
        assert "5000 digits" in report["message"]

    @pytest.mark.parametrize(
        "verb, obj, flags",
        [
            ("condition", {"K": 2, "entries": [["generic", True], [False, "generic"]]},
             ["--degree", "1"]),
            ("hlambda", {"atoms": [{"value": True, "prob": "1/2"}, {"value": "0", "prob": "1/2"}]},
             ["--lambda", "-1"]),
            ("hlambda", {"atoms": [{"value": "1", "prob": True}]}, ["--lambda", "-1"]),
            ("bound-integer", {"K": 2, "entries": [[0, True], [1, 0]]}, ["--n", "2"]),
            ("infodim", {"r": "1/3", "w": ["0", "2"], "probs": [True, "0"]}, []),
        ],
    )
    def test_json_booleans_are_rejected(self, capsys, files, verb, obj, flags):
        path = files("input.json", obj)
        inputs = {"hlambda": ["--u", path, "--v", path], "infodim": ["--ifs", path]}
        argv = [verb, *inputs.get(verb, ["--matrix", path]), *flags]
        code, report = run_json(capsys, argv)
        assert code == 2
        assert report["code"] in ("parse-error", "invalid-input")
        assert "True" in report["message"]

    @pytest.mark.parametrize("verb, obj, code, message", [
        ("sumset", {"elements": 5}, "parse-error", '"elements" must be a list, got 5'),
        ("sumset", {"elements": None}, "parse-error", '"elements" must be a list, got None'),
        ("sumset", {"elements": "abc"}, "parse-error", '"elements" must be a list, got \'abc\''),
        ("hlambda", {"atoms": 5}, "parse-error", '"atoms" must be a list, got 5'),
        ("ratio-thm3", {"atoms": 5}, "parse-error", '"atoms" must be a list, got 5'),
        ("ineq-suite", {"atoms": 5}, "parse-error", '"atoms" must be a list, got 5'),
        ("infodim", {"r": "1/3", "w": 5, "probs": ["1/2", "1/2"]},
         "parse-error", '"w" must be a list, got 5'),
        ("infodim", {"r": "1/3", "w": ["0", "2"], "probs": 5},
         "parse-error", '"probs" must be a list, got 5'),
        ("bound-integer", {"K": "2", "entries": [[0, 1], [1, 0]]},
         "invalid-input", "K must be an integer, got '2'"),
        ("bound-integer", {"K": 2.0, "entries": [[0, 1], [1, 0]]},
         "invalid-input", "K must be an integer, got 2.0"),
        ("bound-integer", {"K": 2, "entries": 5},
         "invalid-input", "off-diagonal table must be 2x2"),
        ("bound-integer", {"K": 2, "entries": [5, 6]},
         "invalid-input", "off-diagonal table must be 2x2"),
        ("bound-integer", {"K": True, "entries": [[0, 1], [1, 0]]},
         "invalid-input", "need K >= 2, got True"),
    ])
    def test_wrong_typed_fields(self, capsys, files, coin_file, verb, obj, code, message):
        path = files("input.json", obj)
        argv = {
            "sumset": ["--a", path, "--b", path],
            "hlambda": ["--lambda", "-1", "--u", path, "--v", coin_file],
            "ratio-thm3": ["--k", "2", "--dist", path, "--dist", coin_file],
            "ineq-suite": ["--u", path, "--v", coin_file],
            "infodim": ["--ifs", path],
            "bound-integer": ["--matrix", path, "--n", "3"],
        }[verb]
        assert run_json(capsys, [verb, *argv]) == (2, {"code": code, "message": message})

    def test_infodim_checks_m_before_the_quantization_guard(self, capsys, files):
        ifs = files("cantor.json", {"r": "1/3", "w": ["0", "2"], "probs": ["1/2", "1/2"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would exit 1
            result = run_json(capsys, ["infodim", "--ifs", ifs, "--m", "0"])
        assert result == (2, {"code": "invalid-input", "message": "need m >= 1, got 0"})

    def test_infodim_quant_flag_changes_no_refusal(self, capsys, files):
        # one estimator: the default factor is refused exactly as a given one
        ifs = files("symbolic.json", {"r": "1/2", "w": ["0", "g1"], "probs": ["1/2", "1/2"]})
        for m, code in (("4", "not-rational"), ("0", "invalid-input")):
            outputs = []
            for quant in ([], ["--quant", "16"]):
                assert run(["infodim", "--ifs", ifs, "--m", m, *quant]) == 2
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            assert json.loads(outputs[0])["code"] == code

    def test_infodim_reports_the_default_factor(self, capsys, files):
        # (1 - r) / r^8 = 4374 on r = 1/3, w = {0, 1}
        ifs = files("cantor01.json", {"r": "1/3", "w": ["0", "1"], "probs": ["1/2", "1/2"]})
        outputs = []
        for quant in ([], ["--quant", "4374"]):
            assert run(["infodim", "--ifs", ifs, "--m", "8", *quant]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["quantization"] == 4374

    def test_infodim_deep_truncation_is_refused_at_once(self, capsys, files):
        # an m-term lattice at m = 10^6 died with MemoryError; by doubling,
        # X_30 = X_15 + r^15 X_15 is refused after six small steps
        ifs = files("cantor.json", {"r": "1/3", "w": ["0", "1"], "probs": ["1/2", "1/2"]})
        start = time.perf_counter()
        result = run_json(capsys, ["infodim", "--ifs", ifs, "--m", "1000000"])
        assert time.perf_counter() - start < 10.0
        message = "convolution needs 1073741824 atom pairs, over the budget of 5000000"
        assert result == (2, {"code": "budget-exceeded", "message": message})

    def test_infodim_refuses_before_r_to_the_m(self, capsys, files, monkeypatch):
        # at m = 10^7, the recommended factor's r^m has 4.8 million digits,
        # 7 s to form; the truncation is refused first, with the same report
        ifs = files("cantor.json", {"r": "1/3", "w": ["0", "1"], "probs": ["1/2", "1/2"]})
        r = PowerSpy(1, 3)
        read = cli.ifs_from_json
        monkeypatch.setattr(cli, "ifs_from_json", lambda obj: dataclasses.replace(read(obj), r=r))
        m = 10**7
        for quant in ([], ["--quant", "3"]):
            result = run_json(capsys, ["infodim", "--ifs", ifs, "--m", str(m), *quant])
            message = "convolution needs 274877906944 atom pairs, over the budget of 5000000"
            assert result == (2, {"code": "budget-exceeded", "message": message})
        assert r.exponents and max(r.exponents) < m

    @pytest.mark.parametrize("prob", ["1e999999999", "1e-999999999", "2.5E+1_000_000"])
    def test_probability_exponents_over_the_digit_limit(self, capsys, files, monkeypatch, prob):
        formed = []
        monkeypatch.setattr(icdof.dist, "Fraction",
                            lambda *args: formed.append(args) or Fraction(*args))
        dist = files("dist.json", {"atoms": [{"value": 0, "prob": prob}]})
        ifs = files("ifs.json", {"r": "1/3", "w": ["0", "2"], "probs": [prob, "1/2"]})
        limit = sys.get_int_max_str_digits()
        message = f"bad probability {prob!r}: exponent over the limit of {limit}"
        for argv in (["hlambda", "--lambda", "-1", "--u", dist, "--v", dist],
                     ["infodim", "--ifs", ifs]):
            assert run_json(capsys, argv) == (2, {"code": "parse-error", "message": message})
        assert formed == []

    def test_probability_exponents_at_the_digit_limit_are_read(self):
        limit = sys.get_int_max_str_digits()
        assert icdof.parse_probability(f"1e-{limit}") == Fraction(1, 10**limit)
        assert icdof.parse_probability("0.5e0_1") == 5

    @pytest.mark.parametrize("case", ["hlambda", "ineq-suite", "infodim", "sumset",
                                      "duplicate-atom", "negative-prob", "condition", "bound-thm1"])
    def test_values_too_long_to_print_are_invalid_input(self, capsys, files, case):
        # each integer is within the digit limit; the sum of the probabilities
        # and the square of 10^4000 - 1 are not
        probs = [f"1/{10**4000 + 1}", f"1/{10**4000 + 3}"]
        dist = files("dist.json", {"atoms": [{"value": "0", "prob": probs[0]},
                                             {"value": "1", "prob": probs[1]}]})
        square = "*".join(["9" * 4000] * 2)
        atoms = {"duplicate-atom": [{"value": square, "prob": "1/2"}] * 2,
                 "negative-prob": [{"value": square, "prob": "-1"}, {"value": "0", "prob": "2"}]}
        bad = files("bad.json", {"atoms": atoms.get(case, [])})
        # its witness is square*1 - 1*h_1_2, with h_1_2 = square
        matrix = files("matrix.json", {"K": 2, "entries": [["generic", square], ["1", "generic"]]})
        argv = {
            "hlambda": ["hlambda", "--lambda", "-1", "--u", dist, "--v", dist],
            "ineq-suite": ["ineq-suite", "--u", dist, "--v", dist],
            "infodim": ["infodim", "--ifs",
                        files("ifs.json", {"r": "1/3", "w": ["0", "2"], "probs": probs})],
            "sumset": ["sumset", "--a", files("a.json", {"elements": [square, "1"]}),
                       "--b", files("b.json", {"elements": ["0", "1"]})],
            "condition": ["condition", "--matrix", matrix, "--degree", "1"],
            "bound-thm1": ["bound-thm1", "--matrix", matrix, "--d", "0", "--n", "2"],
        }.get(case, ["hlambda", "--lambda", "-1", "--u", bad, "--v", bad])
        limit = sys.get_int_max_str_digits()
        unprintable = ("invalid-input",
                       f"cannot print a value of 8000 digits exactly; the limit is {limit} digits")
        code, message = {
            "sumset": unprintable,
            "condition": unprintable,
            "bound-thm1": unprintable,
            "duplicate-atom": ("parse-error",
                               "duplicate atom 'a value of 8000 digits' in distribution JSON"),
            "negative-prob": ("invalid-input",
                              "probability -1 of atom 'a value of 8000 digits' is not positive"),
        }.get(case, ("invalid-input",
                     "probabilities sum to a value of 8001 digits, expected exactly 1"))
        assert run_json(capsys, argv) == (2, {"code": code, "message": message})

    @pytest.mark.parametrize("argv, message", [
        (["bound-thm1", "--k", "100000", "--d", "0", "--n", "2"],
         "a generic matrix with K=100000 has 100000^2 entries, over the budget of 5000000"),
        (["bound-thm1", "--k", "2300", "--d", "0", "--n", "1"],
         "a generic matrix with K=2300 has 2300^2 entries, over the budget of 5000000"),
        (["bound-thm1", "--k", "2237", "--d", "0", "--n", "2", "--budget", "10"],
         "a generic matrix with K=2237 has 2237^2 entries, over the budget of 5000000"),
        (["bound-thm1", "--k", "4000", "--d", "0", "--n", "2", "--budget", "10000000"],
         "a generic matrix with K=4000 has 4000^2 entries, over the budget of 10000000"),
        (["ratio-thm3", "--k", "100000", "--dist", "DIST"],
         "a generic matrix with K=100000 has 100000^2 entries, over the budget of 5000000"),
    ])
    def test_generic_matrix_over_the_budget(self, capsys, monkeypatch, coin_file, argv, message):
        monkeypatch.setattr(ChannelMatrix, "generic", staticmethod(_refuse_build))
        argv = [coin_file if arg == "DIST" else arg for arg in argv]
        assert run_json(capsys, argv) == (2, {"code": "budget-exceeded", "message": message})

    @pytest.mark.parametrize("k, budget", [
        (2236, "1"), (2236, "100"), (2236, str(icdof.DEFAULT_ATOM_BUDGET)), (2237, "10000000"),
    ])
    def test_generic_matrix_within_the_budget_is_built(self, capsys, monkeypatch, k, budget):
        monkeypatch.setattr(ChannelMatrix, "generic", staticmethod(_refuse_build))
        argv = ["bound-thm1", "--k", str(k), "--d", "0", "--n", "2", "--budget", budget]
        assert run_json(capsys, argv) == (2, {"code": "invalid-input", "message": "built"})

    @pytest.mark.parametrize("n", [3000, 3000000, 100000000])
    def test_integer_table_first_step_over_the_budget(self, capsys, files, monkeypatch, n):
        monkeypatch.setattr(icdof.bounds, "uniform_on", _refuse_build)
        table = files("int3.json", {"K": 3, "entries": [[0, 2, -1], [3, 0, 1], [-2, 4, 0]]})
        message = f"convolution needs {n * n} atom pairs, over the budget of 5000000"
        assert run_json(capsys, ["bound-integer", "--matrix", table, "--n", str(n)]) == (
            2, {"code": "budget-exceeded", "message": message})

    @pytest.mark.parametrize("flags, message", [
        (["--target", "hlambda", "--lambda", "-1", "--n", "3000"],
         "convolution needs 9000000 atom pairs, over the budget of 5000000"),
        (["--target", "hlambda", "--lambda", "-1", "--n", "100000000"],
         "convolution needs 10000000000000000 atom pairs, over the budget of 5000000"),
        (["--target", "thm3", "--matrix", "MATRIX", "--n", "5000"],
         "convolution needs 25000000 atom pairs, over the budget of 5000000"),
    ])
    def test_optimizer_first_step_over_the_budget(self, capsys, files, monkeypatch, flags, message):
        monkeypatch.setattr(icdof.optimize, "integer_grid", _refuse_build)
        matrix = files("m3.json", {"K": 3, "entries": [[1, 2, 3], [4, 5, 7], [2, -1, 1]]})
        assert run(["optimize"] + [matrix if flag == "MATRIX" else flag for flag in flags]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"code": "budget-exceeded", "message": message}
        assert captured.err == ""

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_result_is_an_error(self, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "_cmd_bound_floor", lambda args: {"floor": value})
        code = run(["bound-floor", "--k", "3", "--d", "1", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 2
        assert "Infinity" not in out and "NaN" not in out
        report = json.loads(out)
        assert report["code"] == "non-finite"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()


def _refuse_build(*args):
    raise icdof.ValidationError("built")


class TestProcess:
    def test_module_form_runs_the_cli(self):
        argv, env = module_command("bound-floor", "--k", "3", "--d", "3", "--n", "4")
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"floor": -2.625}

    def test_huge_exponent_entry_returns_promptly(self, files):
        # h^(10^11) was built as 10^11 products, which takes hours
        matrix = files("power.json", {"K": 2, "entries": [["h^100000000000", "h_1_2"],
                                                          ["h_2_1", "h_2_2"]]})
        argv, env = module_command("condition", "--matrix", matrix, "--degree", "2")
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode in (0, 2), done.stderr
        start = time.perf_counter()
        assert run(["condition", "--matrix", matrix, "--degree", "2"]) in (0, 2)
        assert time.perf_counter() - start < 1.0

    def test_closed_stdout_ends_without_a_traceback(self):
        argv, env = module_command("bound-floor", "--k", "3", "--d", "3", "--n", "4")
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()  # no reader is left before the report is printed
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == ""


class TestOutputContract:
    def test_optimizer_output_is_byte_identical_across_runs(self, capsys):
        argv = [
            "optimize", "--target", "hlambda", "--lambda", "-1", "--n", "3",
            "--restarts", "2", "--max-iters", "25", "--seed", "9",
        ]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_optimizer_stdout_is_pinned(self, capsys, files):
        matrix = files(
            "m3.json",
            {"K": 3, "entries": [["1", "2", "3"], ["4", "5", "7"], ["2", "-1", "1"]]},
        )
        common = ["--restarts", "2", "--max-iters", "40"]
        for argv, golden in (
            (["optimize", "--target", "hlambda", "--lambda", "-1", "--n", "4"], GOLDEN_HLAMBDA),
            (["optimize", "--target", "thm3", "--matrix", matrix, "--n", "2"], GOLDEN_THM3),
        ):
            assert run(argv + common) == 0
            assert capsys.readouterr().out == golden

    def test_optimizer_stderr_is_pinned(self, capsys, files):
        # one progress line per restart, then the report or the refusal
        zero = files("zero.json", {"K": 2, "entries": [[0, 0], [0, 0]]})
        for argv, status, out, err in (
            (["--target", "hlambda", "--lambda", "-1", "--n", "4", "--restarts", "2",
              "--max-iters", "30"], 0, GOLDEN_HLAMBDA_ITERS30, GOLDEN_HLAMBDA_ITERS30_ERR),
            (["--target", "thm3", "--matrix", zero, "--n", "2", "--restarts", "2",
              "--max-iters", "5"], 2, GOLDEN_ZERO_THM3, GOLDEN_ZERO_THM3_ERR),
        ):
            assert run(["optimize"] + argv) == status
            assert capsys.readouterr() == (out, err)

    def test_certified_bound_stdout_is_pinned(self, capsys, files):
        matrix = files("int3.json", {"K": 3, "entries": [[0, 2, -1], [3, 0, 1], [-2, 4, 0]]})
        for argv, golden in (
            (["bound-thm1", "--k", "3", "--d", "1", "--n", "2"], GOLDEN_THM1_K3_D1_N2),
            (["bound-thm1", "--k", "2", "--d", "1", "--n", "4"], GOLDEN_THM1_K2_D1_N4),
            (["bound-integer", "--matrix", matrix, "--n", "3"], GOLDEN_INTEGER_K3_N3),
        ):
            assert run(argv) == 0
            assert capsys.readouterr().out == golden

    def test_dense_interference_stdout_is_pinned(self, capsys, files):
        matrix = files("int3.json", {"K": 3, "entries": [[0, 2, -1], [3, 0, 1], [-2, 4, 0]]})
        assert run(["bound-integer", "--matrix", matrix, "--n", "500"]) == 0
        assert capsys.readouterr().out == GOLDEN_INTEGER_K3_N500

    def test_sumset_stdout_is_pinned(self, capsys, files):
        for a, b, golden in (
            (["-1/2", "0", "1/2"], ["1/3", "5/6"], GOLDEN_SUMSET_RATIONAL),
            (["1", "g1", "2*g1 + 1/3"], ["0", "g1"], GOLDEN_SUMSET_SYMBOLIC),
        ):
            argv = ["sumset", "--a", files("a.json", {"elements": a}),
                    "--b", files("b.json", {"elements": b})]
            assert run(argv) == 0
            assert capsys.readouterr().out == golden

    def test_symbolic_sets_can_sum_to_a_progression(self, capsys, files):
        a = files("a.json", {"elements": ["g1", "g1 + 1", "g1 + 2"]})
        b = files("b.json", {"elements": ["-g1"]})
        code, report = run_json(capsys, ["sumset", "--a", a, "--b", b])
        assert code == 0
        assert report["sum"]["elements"] == ["0", "1", "2"]
        assert report["progressions"] == {
            "a": None, "b": None, "sum": {"start": "0", "step": "1", "length": 3}}

    def test_floats_are_limited_to_twelve_significant_digits(self, capsys):
        code, report = run_json(capsys, ["bound-floor", "--k", "3", "--d", "1", "--n", "3"])
        assert code == 0
        value = report["floor"]
        assert float(f"{value:.12g}") == value  # already rounded, idempotent

    def test_rationals_stay_strings(self, capsys, prop4_file):
        argv = [
            "optimize", "--target", "hlambda", "--lambda", "-1", "--n", "2",
            "--restarts", "1", "--max-iters", "5",
        ]
        code, report = run_json(capsys, argv)
        assert code == 0
        for dist in report["dists"]:
            for atom in dist["atoms"]:
                assert isinstance(atom["value"], str)
                assert isinstance(atom["prob"], str)

    def test_progress_goes_to_stderr(self, capsys):
        argv = [
            "optimize", "--target", "hlambda", "--lambda", "1", "--n", "2",
            "--restarts", "1", "--max-iters", "5",
        ]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert "restart" in captured.err
        json.loads(captured.out)  # stdout is pure JSON


@pytest.fixture(scope="module")
def fuzz_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m2.json"
    path.write_text(json.dumps({"K": 2, "entries": [[1, 2], [3, -1]]}))
    return str(path)


class TestOptimizeFuzz:
    """Small argument lists for `optimize`, valid and not: every one exits 0
    or 2 with exactly one JSON document on stdout."""

    @settings(max_examples=60)
    @given(
        target=st.sampled_from([["--target", "hlambda", "--lambda", "-1"],
                                ["--target", "hlambda", "--lambda", "2"],
                                ["--target", "thm3", "--matrix", "MATRIX"]]),
        n=st.integers(-2, 4),
        restarts=st.integers(0, 2),
        max_iters=st.integers(0, 2),
        max_denominator=st.integers(0, 3),
    )
    def test_optimize_argv(self, fuzz_matrix, target, n, restarts, max_iters, max_denominator):
        argv = ["optimize"] + [fuzz_matrix if flag == "MATRIX" else flag for flag in target] + [
            "--n", str(n), "--restarts", str(restarts), "--max-iters", str(max_iters),
            "--max-denominator", str(max_denominator)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(argv)
        assert status in (0, 2), out.getvalue()
        report = json.loads(out.getvalue())  # one document, nothing around it
        assert ("code" in report) == (status == 2)


# JSON values of any shape, half of them scalars: the junk each reader is fed
JSON_SCALARS = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers(-10**6, 10**6) | st.integers(-10**1000, 10**1000)
    | st.sampled_from(["1/0", "generic", "1e999999999", "h_1_2", "0.5", "-1", "1/2"])
    # the scalar syntax, well-formed and malformed
    | st.sampled_from(["2*g1^2*g2 - 1/3*g2 + 4", "h_1_2 + 1", "g - - + g", "− 1 / 2 * g ^ 3",
                       "g^0", "0*g", "\u00a0g\u3000*\u2003h\t", "\u0663/4", "x^" + "9" * 5000,
                       "g1 +", "g1 g2", "2**3", "(g1)", "^2", "g^1/2", "g*", "*g", "1/2/3",
                       "12abc", "g^-2", "+-+", "2^3", "1 2"])
)
JSON_JUNK = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)

# (argv with INPUT for the file, a valid document, the paths one junk value may replace)
READERS = {
    "distribution": (
        ["hlambda", "--lambda", "-1", "--u", "INPUT", "--v", "INPUT"],
        {"atoms": [{"value": "0", "prob": "1/2"}, {"value": "1", "prob": "1/2"}]},
        [(), ("atoms",), ("atoms", 0), ("atoms", 1, "value"), ("atoms", 0, "prob")],
    ),
    "set": (
        ["sumset", "--a", "INPUT", "--b", "INPUT"],
        {"elements": ["0", "2", "4"]},
        [(), ("elements",), ("elements", 1)],
    ),
    "channel": (
        ["condition", "--matrix", "INPUT", "--degree", "1"],
        {"K": 2, "entries": [["generic", 2], [3, "generic"]]},
        [(), ("K",), ("entries",), ("entries", 1), ("entries", 0, 1)],
    ),
    "ifs": (
        ["infodim", "--ifs", "INPUT", "--m", "2"],
        {"r": "1/3", "w": ["0", "2"], "probs": ["1/2", "1/2"]},
        [(), ("r",), ("w",), ("probs",), ("w", 1), ("probs", 0)],
    ),
    "integer table": (
        ["bound-integer", "--matrix", "INPUT", "--n", "3"],
        {"K": 2, "entries": [[0, 1], [2, 0]]},
        [(), ("K",), ("entries",), ("entries", 0), ("entries", 1, 0)],
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


class TestReaderFuzz:
    """Each file reader on a valid document with one field, or the whole
    document, replaced by JSON junk: every run exits 0 or 2 with exactly one
    JSON document on stdout."""

    @settings(max_examples=60)
    @given(data=st.data(), junk=JSON_JUNK)
    @pytest.mark.parametrize("reader", list(READERS))
    def test_reader(self, fuzz_dir, reader, data, junk):
        argv, doc, paths = READERS[reader]
        path = fuzz_dir / "input.json"
        path.write_text(json.dumps(_replaced(doc, data.draw(st.sampled_from(paths)), junk)))
        budget = [] if argv[0] == "condition" else ["--budget", "1000"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status = run([str(path) if arg == "INPUT" else arg for arg in argv] + budget)
        assert status in (0, 2), out.getvalue()
        report = json.loads(out.getvalue())  # one document, nothing around it
        assert ("code" in report) == (status == 2)



def _fuzz_run(argv) -> None:
    """Run one fuzzed command line: it must exit 0 or 2 with exactly one
    JSON document on stdout, an error object exactly when it exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status = run(argv)
    assert status in (0, 2), out.getvalue()
    report = json.loads(out.getvalue())  # one document, nothing around it
    assert ("code" in report) == (status == 2)


def _mostly(valid, invalid):
    """`valid`, and now and then `invalid`."""
    return st.integers(0, 99).flatmap(lambda i: valid if i < 90 else invalid)


_FUZZ_VALUES = (st.integers(-3, 3) | st.builds(lambda n, d: f"{n}/{d}", st.integers(-3, 3),
                                               st.integers(1, 4))
                | st.sampled_from(["g", "g + 1", "2*g - 1", "h_1_2", "−1/2"]))
_FUZZ_WEIGHTS = st.integers(1, 9) | st.integers(1, 2**80)
_FUZZ_LAMBDAS = _mostly(
    st.sampled_from(["-1", "–1", "−1", "1/2", "–3/2", "2"])
    | st.integers(-10**6, 10**6).filter(bool).map(str)
    | st.integers(-10**4000, 10**4000).filter(bool).map(str)  # under the digit limit
    | st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**60, 10**60).filter(bool),
                st.integers(1, 10**60)),
    st.sampled_from(["0", "-0", "–0", "0/5", "1/0", "x", "", "1e3"]),
)
_FUZZ_BUDGETS = _mostly(st.sampled_from(["1", "2", "3", "100", "5000000", str(10**30)]),
                        st.sampled_from(["0", "-1", "x"]))


@st.composite
def _fuzz_dist(draw) -> dict:
    """A distribution document on rational or symbolic points; now and then
    one that repeats a point, misses a total of 1 or is junk."""
    flaw = draw(_mostly(st.none(), st.sampled_from(["repeat", "total", "junk"])))
    if flaw == "junk":
        return draw(JSON_JUNK)
    points = draw(st.lists(_FUZZ_VALUES, min_size=1, max_size=4,
                           unique_by=None if flaw == "repeat" else str))
    weights = draw(st.lists(_FUZZ_WEIGHTS, min_size=len(points), max_size=len(points)))
    total = sum(weights) + (flaw == "total")
    return {"atoms": [{"value": str(x), "prob": f"{w}/{total}"} for x, w in zip(points, weights)]}


class TestVerbFuzz:
    """The verbs whose objectives are placed once and evaluated: any
    --lambda, --k, --matrix, --dist and --budget exits 0 or 2 with exactly
    one JSON document on stdout."""

    @settings(max_examples=150)
    @given(lam=_FUZZ_LAMBDAS, u=_fuzz_dist(), v=_fuzz_dist(), budget=_FUZZ_BUDGETS)
    def test_hlambda(self, fuzz_dir, lam, u, v, budget):
        paths = []
        for name, doc in (("u.json", u), ("v.json", v)):
            (fuzz_dir / name).write_text(json.dumps(doc))
            paths.append(str(fuzz_dir / name))
        _fuzz_run(["hlambda", f"--lambda={lam}", "--u", paths[0], "--v", paths[1],
                   f"--budget={budget}"])

    @settings(max_examples=150)
    @given(data=st.data(), budget=_FUZZ_BUDGETS)
    def test_ratio_thm3(self, fuzz_dir, data, budget):
        K = data.draw(_mostly(st.integers(2, 3), st.integers(-1, 1)))
        if data.draw(st.booleans()):
            users = [f"--k={K}"]
        else:
            size = max(K, 0)
            cell = _mostly(_FUZZ_VALUES | st.just("generic"), JSON_SCALARS)
            rows = st.lists(st.lists(cell, min_size=size, max_size=size),
                            min_size=size, max_size=size)
            matrix = data.draw(_mostly(rows.map(lambda r: {"K": K, "entries": r}), JSON_JUNK))
            (fuzz_dir / "matrix.json").write_text(json.dumps(matrix))
            users = ["--matrix", str(fuzz_dir / "matrix.json")]
        # mostly one file per user; otherwise 0 to 4 of them
        count = data.draw(_mostly(st.just(K), st.integers(0, 4))) if K > 1 else (
            data.draw(st.integers(0, 4)))
        argv = ["ratio-thm3", *users, f"--budget={budget}"]
        for i in range(count):
            (fuzz_dir / f"dist{i}.json").write_text(json.dumps(data.draw(_fuzz_dist())))
            argv += ["--dist", str(fuzz_dir / f"dist{i}.json")]
        _fuzz_run(argv)


# integer flag values that are not small: valid ones far past any budget,
# and ones that are not integers to argparse, digit-limit strings included
_HUGE_INTS = ["9" * 4300, "-" + "9" * 4300, str(10**30), str(-(10**30)), str(2**63)]
_BAD_INTS = ["9" * 4301, "-" + "9" * 4301, "x", "", "1e3", "1.5", "0x10", "--1", "1/2"]


def _fuzz_int(valid):
    """Text for an integer flag: one of `valid`, or huge, or not an integer."""
    return valid.map(str) | st.sampled_from(_HUGE_INTS + _BAD_INTS)


# budgets that bound the work of any valid draw below: the inputs of these
# verbs are sizes, so a budget past them would admit unbounded work
_SMALL_BUDGETS = _mostly(st.sampled_from(["1", "2", "3", "100", "10000", "100000"]),
                         st.sampled_from(["0", "-1", "x", "9" * 4301]))
# budgets for verbs whose work the input files bound, huge ones included
_ANY_BUDGETS = _FUZZ_BUDGETS | st.sampled_from(["9" * 4300, "9" * 4301])

FUZZ_MATRICES = [
    {"K": 2, "entries": [["generic", 2], [3, "generic"]]},
    {"K": 2, "entries": [["generic", "generic"], ["generic", "generic"]]},
    {"K": 3, "entries": [["generic"] * 3] * 3},
    {"K": 2, "entries": [["h_1_1", "h_1_2 + 1"], ["h_2_1^2 - 2*h_2_1", "h_2_2"]]},
]


class TestSizeFlagFuzz:
    """The verbs whose flags are sizes and degrees, on small inputs: any
    --degree, --k, --d, --n, --m, --quant and --budget, small, huge, past
    the digit limit or not an integer, exits 0 or 2 with exactly one JSON
    document on stdout. Valid sizes stay small, and budgets stay small where
    sizes set the work, so that every admitted run is quick; a degree is
    large only where the first dependent column decides the check."""

    @settings(max_examples=60)
    @given(matrix=st.sampled_from(FUZZ_MATRICES), data=st.data())
    def test_condition(self, fuzz_dir, matrix, data):
        # the first matrix is violated at degree 0, so its second column
        # decides it at any degree
        top = 1000 if matrix is FUZZ_MATRICES[0] else 3
        degree = data.draw(_fuzz_int(st.integers(-1, top)), label="degree")
        (fuzz_dir / "condition.json").write_text(json.dumps(matrix))
        _fuzz_run(["condition", "--matrix", str(fuzz_dir / "condition.json"),
                   f"--degree={degree}"])

    @settings(max_examples=100)
    @given(k=_fuzz_int(st.integers(-1, 3)), d=_fuzz_int(st.integers(-1, 1)),
           n=_fuzz_int(st.integers(-1, 3)), budget=_SMALL_BUDGETS)
    def test_bound_thm1(self, k, d, n, budget):
        _fuzz_run(["bound-thm1", f"--k={k}", f"--d={d}", f"--n={n}", f"--budget={budget}"])

    @settings(max_examples=100)
    @given(k=_fuzz_int(st.integers(-2, 10)), d=_fuzz_int(st.integers(-2, 10)),
           n=_fuzz_int(st.integers(-2, 10)))
    def test_bound_floor(self, k, d, n):
        _fuzz_run(["bound-floor", f"--k={k}", f"--d={d}", f"--n={n}"])

    @settings(max_examples=80)
    @given(n=_fuzz_int(st.integers(-1, 5)), budget=_SMALL_BUDGETS)
    def test_bound_integer(self, fuzz_dir, n, budget):
        path = fuzz_dir / "table.json"
        path.write_text(json.dumps({"K": 3, "entries": [[0, 2, -1], [3, 0, 1], [-2, 4, 0]]}))
        _fuzz_run(["bound-integer", "--matrix", str(path), f"--n={n}", f"--budget={budget}"])

    @settings(max_examples=100)
    @given(ifs=st.sampled_from([("1/3", ["0", "2"]), ("1/2", ["0", "1", "2"])]),
           m=_fuzz_int(st.integers(-1, 6)), quant=st.none() | _fuzz_int(st.integers(0, 5)),
           budget=_SMALL_BUDGETS)
    def test_infodim(self, fuzz_dir, ifs, m, quant, budget):
        r, w = ifs
        path = fuzz_dir / "fuzz_ifs.json"
        path.write_text(json.dumps({"r": r, "w": w, "probs": [f"1/{len(w)}"] * len(w)}))
        argv = ["infodim", "--ifs", str(path), f"--m={m}", f"--budget={budget}"]
        _fuzz_run(argv + ([] if quant is None else [f"--quant={quant}"]))

    @settings(max_examples=60)
    @given(a=st.lists(_FUZZ_VALUES, min_size=1, max_size=4, unique_by=str),
           b=st.lists(_FUZZ_VALUES, min_size=1, max_size=4, unique_by=str), budget=_ANY_BUDGETS)
    def test_sumset(self, fuzz_dir, a, b, budget):
        paths = []
        for name, elements in (("a.json", a), ("b.json", b)):
            (fuzz_dir / name).write_text(json.dumps({"elements": [str(x) for x in elements]}))
            paths.append(str(fuzz_dir / name))
        _fuzz_run(["sumset", "--a", paths[0], "--b", paths[1], f"--budget={budget}"])

    @settings(max_examples=60)
    @given(u=_fuzz_dist(), v=_fuzz_dist(), budget=_ANY_BUDGETS)
    def test_ineq_suite(self, fuzz_dir, u, v, budget):
        paths = []
        for name, doc in (("u.json", u), ("v.json", v)):
            (fuzz_dir / name).write_text(json.dumps(doc))
            paths.append(str(fuzz_dir / name))
        _fuzz_run(["ineq-suite", "--u", paths[0], "--v", paths[1], f"--budget={budget}"])
