"""End-to-end tests for the command-line interface.

Exit-code contract: 0 success, 1 verification failure, 2 usage error,
3 internal error (with the pipeline stage named on stderr).
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from artifact import cli
from artifact import verify as checks
from artifact.modular_function_engine import UsageError
from artifact.theta_algebra import FourierElement
from word_forms import format_element

CHECK_LINE = re.compile(
    r"^CHECK [A-Za-z0-9_.-]+ \d\.\d{3}e[+-]\d{2,3} \d\.\d{3}e[+-]\d{2,3} (PASS|FAIL)$"
)


@pytest.fixture()
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def test_derive_text_contains_closed_form(runner):
    result = runner.invoke(cli.main, ["derive"])
    assert result.exit_code == 0
    assert "(-2*s + (s + 1)*log(s) + 2) / (2*(s - 1)^3)" in result.output


def test_derive_json_is_byte_identical_and_well_formed(runner):
    first = runner.invoke(cli.main, ["derive", "--format", "json"])
    second = runner.invoke(cli.main, ["derive", "--format", "json"])
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert list(payload) == [
        "dim",
        "operator",
        "normalization",
        "k_powers",
        "K",
        "G",
        "c_scalar",
        "notes",
    ]
    assert payload["dim"] == 2
    assert payload["operator"] == "kdelta"


def test_derive_rejects_csv_format(runner):
    result = runner.invoke(cli.main, ["derive", "--format", "csv"])
    assert result.exit_code == 2


def test_derive_rejects_odd_dimension(runner):
    result = runner.invoke(cli.main, ["derive", "--dim", "3"])
    assert result.exit_code == 2


def test_derive_rejects_operator_dimension_mismatch(runner):
    result = runner.invoke(cli.main, ["derive", "--operator", "nc4tori", "--dim", "2"])
    assert result.exit_code == 2


def test_derive_writes_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        cli.main, ["derive", "--format", "json", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["operator"] == "kdelta"


@pytest.mark.parametrize("args", [
    ["derive", "--format", "json"],
    ["table", "--which", "K", "--s-range", "1:2:3"],
], ids=["derive", "table"])
def test_out_in_a_missing_directory_is_a_usage_error(runner, tmp_path, args):
    out = tmp_path / "missing" / "x.out"
    result = runner.invoke(cli.main, args + ["--out", str(out)])
    assert result.exit_code == 2
    assert f"--out {out}: No such file or directory" in result.output
    assert "internal error" not in result.output


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_one_variable_point_value(runner):
    result = runner.invoke(cli.main, ["eval", "--which", "K", "--s", "2"])
    assert result.exit_code == 0
    want = (3.0 * math.log(2.0) - 2.0) / 2.0
    assert abs(float(result.output.strip()) - want) < 1e-9


def test_eval_one_variable_limit_value(runner):
    result = runner.invoke(cli.main, ["eval", "--which", "K", "--s", "1"])
    assert result.exit_code == 0
    assert abs(float(result.output.strip()) - 1.0 / 12.0) < 1e-6


def test_eval_two_variable_defaults_t_to_one(runner):
    result = runner.invoke(cli.main, ["eval", "--which", "G", "--s", "1"])
    assert result.exit_code == 0
    assert abs(float(result.output.strip()) + 1.0 / 12.0) < 1e-6


def test_eval_rejects_t_for_one_variable_function(runner):
    result = runner.invoke(
        cli.main, ["eval", "--which", "K", "--s", "2", "--t", "1"]
    )
    assert result.exit_code == 2


def test_eval_rejects_nonpositive_argument(runner):
    result = runner.invoke(cli.main, ["eval", "--which", "K", "--s", "-1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("args", [
    ["--which", "K", "--s", "{}"],
    ["--which", "G", "--s", "2", "--t", "{}"],
], ids=["s", "t"])
def test_eval_rejects_non_finite_argument(runner, args, value):
    result = runner.invoke(cli.main, ["eval"] + [a.format(value) for a in args])
    assert result.exit_code == 2
    assert "0 < s < inf and 0 < t < inf" in result.output


@pytest.mark.parametrize("args", [
    ["eval", "--dim", "6", "--which", "K", "--s", "1e-310"],
    ["table", "--dim", "6", "--which", "K", "--s-range", "1e-310:1e-100:2"],
], ids=["eval", "table"])
def test_value_outside_the_float64_range_is_a_usage_error(runner, args):
    # dim-6 K is about -1/(6 s^2): -1.7e619 at s = 1e-310
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "s = 1e-310, t = 1.0 lies outside the float64 range" in result.output
    assert "inf" not in result.output


def test_finite_extreme_value_is_printed(runner):
    want = -1 / (6 * 1e-100**2)
    result = runner.invoke(cli.main, ["eval", "--dim", "6", "--which", "K", "--s", "1e-100"])
    assert result.exit_code == 0
    assert math.isclose(float(result.output), want, rel_tol=1e-11)
    result = runner.invoke(cli.main, ["table", "--dim", "6", "--which", "K",
                                      "--s-range", "1e-100:1e-100:1"])
    assert result.exit_code == 0
    assert math.isclose(float(list(csv.reader(io.StringIO(result.output)))[1][2]), want,
                        rel_tol=1e-12)


@pytest.mark.parametrize("args", [
    ["eval", "--which", "K", "--s", "2"],
    ["table", "--which", "K", "--s-range", "1:2:3"],
], ids=["eval", "table"])
def test_odd_dimension_is_a_usage_error(runner, args):
    result = runner.invoke(cli.main, args + ["--dim", "3"])
    assert result.exit_code == 2
    assert "dimension must be an even integer >= 2" in result.output


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_one_variable_header_and_columns(runner):
    result = runner.invoke(
        cli.main, ["table", "--which", "K", "--s-range", "1:2:3"]
    )
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["s", "t", "K", "G"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert row[1] == "" and row[3] == ""
        float(row[0])
        float(row[2])


def test_table_two_variable_grid(runner):
    result = runner.invoke(
        cli.main,
        [
            "table",
            "--which",
            "G",
            "--s-range",
            "0.5:1.5:2",
            "--t-range",
            "0.5:1.5:2",
        ],
    )
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["s", "t", "K", "G"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert row[2] == ""
        float(row[1])
        float(row[3])


def test_table_range_ends_on_its_own_endpoint(runner):
    # a + (b - a)*9/9 is 0.9999999999999999 for 0.1:1:10, which took K's
    # 90-digit limit instead of the exact K(1) = 1/12
    result = runner.invoke(cli.main, ["table", "--which", "K", "--s-range", "0.1:1:10"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[-1] == ["1.0", "", "0.08333333333333333", ""]
    assert [float(r[0]) for r in rows[1:-1]] == [0.1 + 0.9 * i / 9 for i in range(9)]
    result = runner.invoke(cli.main, ["table", "--which", "G", "--s-range", "0.1:1:10",
                                      "--t-range", "0.1:1:10"])
    assert result.exit_code == 0
    assert list(csv.reader(io.StringIO(result.output)))[-1] == [
        "1.0", "1.0", "", "-0.08333333333333333"]


def test_table_two_variable_requires_t_range(runner):
    result = runner.invoke(
        cli.main, ["table", "--which", "G", "--s-range", "1:2:3"]
    )
    assert result.exit_code == 2


def test_table_rejects_bad_range_syntax(runner):
    result = runner.invoke(
        cli.main, ["table", "--which", "K", "--s-range", "1:2"]
    )
    assert result.exit_code == 2


def test_table_rejects_a_non_finite_point(runner):
    result = runner.invoke(
        cli.main, ["table", "--which", "K", "--s-range", "nan:2:3"]
    )
    assert result.exit_code == 2
    assert "nan" not in result.stdout


@pytest.mark.parametrize("endpoints", ["nan:2:3", "1:inf:3", "-inf:2:3"])
@pytest.mark.parametrize("flag", ["--s-range", "--t-range"])
def test_table_names_the_flag_of_a_non_finite_endpoint(runner, flag, endpoints):
    ranges = {"--s-range": "1:2:3", "--t-range": "1:2:3", flag: endpoints}
    result = runner.invoke(cli.main, ["table", "--which", "G"]
                           + [a for pair in ranges.items() for a in pair])
    assert result.exit_code == 2
    assert f"{flag} needs finite endpoints" in result.output
    assert "eval_function" not in result.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_symbols_suite_passes(runner):
    result = runner.invoke(cli.main, ["verify", "--suite", "symbols"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines
    for line in lines:
        assert CHECK_LINE.match(line), line
        assert line.endswith("PASS")


def test_verify_failure_exits_one(runner):
    result = runner.invoke(
        cli.main, ["verify", "--suite", "algebra", "--tol", "1e-30"]
    )
    assert result.exit_code == 1
    assert any(line.endswith("FAIL") for line in result.output.splitlines())


# name and default bound of every check of `verify --suite all`, in order
VERIFY_LAYOUT = [
    ("algebra-associativity-exact", 0.0),
    ("algebra-star-antihom-exact", 0.0),
    ("algebra-trace-cyclic-exact", 0.0),
    ("algebra-associativity-float", 1e-12),
    ("algebra-star-antihom-float", 1e-12),
    ("algebra-trace-cyclic-float", 1e-12),
    ("symbols-homogeneity-grading", 0.0),
    ("symbols-canonical-idempotent", 0.0),
    ("symbols-sphere-rule-constants", 0.0),
    ("integrals-dim2-K-vs-quadrature", 1e-10),
    ("integrals-dim2-G-vs-quadrature", 1e-9),
    ("integrals-radial-scaling-law", 1e-9),
    ("integrals-limit-value-K1", 1e-8),
    ("matrix-K21", 1e-6),
    ("matrix-K31", 1e-6),
    ("matrix-H311", 1e-6),
    ("matrix-H211", 1e-6),
    ("matrix-H221-shift", 1e-6),
    ("matrix-monotone-refinement", 0.0),
    ("gauss-bonnet-theta-zero", 1e-6),
    ("gauss-bonnet-theta-rational", 1e-6),
    ("gauss-bonnet-theta-irrational", 1e-6),
    ("gauss-bonnet-cross-theta-zero", 1e-6),
    ("gauss-bonnet-cross-theta-rational", 1e-6),
    ("gauss-bonnet-cross-theta-irrational", 1e-6),
    ("gauss-bonnet-ratio", 1.0),
]


def _check_rows(output):
    rows = []
    for line in output.strip().splitlines():
        assert CHECK_LINE.match(line), line
        _, name, _, bound, verdict = line.split()
        rows.append((name, float(bound), verdict))
    return rows


def test_verify_all_prints_every_check_in_order(runner):
    result = runner.invoke(cli.main, ["verify", "--suite", "all", "--seed", "0"])
    assert result.exit_code == 0, result.output
    rows = _check_rows(result.output)
    assert [(name, bound) for name, bound, _ in rows] == VERIFY_LAYOUT
    assert all(verdict == "PASS" for _, _, verdict in rows)


def test_verify_tol_replaces_exactly_the_float_bounds(runner, monkeypatch):
    # the bounds do not depend on the errors, so every check reports 0 here
    sizes = {suite: sum(c.suite == suite for c in checks.CHECKS) for suite in checks.SUITES}
    monkeypatch.setattr(checks, "_ERRORS",
                        {suite: (lambda seed, n=n: iter([0.0] * n)) for suite, n in sizes.items()})
    result = runner.invoke(cli.main, ["verify", "--seed", "0", "--tol", "1e-3"])
    assert result.exit_code == 0, result.output
    rows = _check_rows(result.output)
    changed = [name for (name, bound, _), (_, default) in zip(rows, VERIFY_LAYOUT)
               if bound != default]
    assert len(changed) == 18
    assert all(bound == 1e-3 for name, bound, _ in rows if name in changed)
    assert [name for name, _ in VERIFY_LAYOUT if name not in changed] == [
        "algebra-associativity-exact", "algebra-star-antihom-exact",
        "algebra-trace-cyclic-exact", "symbols-homogeneity-grading",
        "symbols-canonical-idempotent", "symbols-sphere-rule-constants",
        "matrix-monotone-refinement", "gauss-bonnet-ratio",
    ]


def test_verify_tol_help_names_the_bounds_it_keeps(runner):
    text = " ".join(runner.invoke(cli.main, ["verify", "--help"]).output.split())
    assert ("override the bound of every floating-point check in the suite; "
            "the exact checks and gauss-bonnet-ratio keep theirs") in text


@pytest.mark.parametrize("command", [["verify"], ["verify", "--suite", "matrix"],
                                     ["gauss-bonnet"]], ids=["verify", "verify-matrix",
                                                             "gauss-bonnet"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_tol_outside_finite_nonnegative_is_a_usage_error(runner, command, tol):
    result = runner.invoke(cli.main, command + ["--tol", tol])
    assert result.exit_code == 2
    assert f"--tol must be a finite number >= 0, not {float(tol)!r}" in result.output
    assert "CHECK" not in result.output


@pytest.mark.parametrize("command", [["verify"], ["verify", "--suite", "matrix"],
                                     ["verify", "--suite", "symbols"]],
                         ids=["verify", "verify-matrix", "verify-symbols"])
def test_negative_seed_is_a_usage_error(runner, command):
    result = runner.invoke(cli.main, command + ["--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed must be an integer >= 0, not -1" in result.output
    assert "CHECK" not in result.output


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-300])
def test_check_tables_reject_a_bound_before_running(tol):
    # the engine edge raises at the call, before any oracle runs
    with pytest.raises(UsageError, match="--tol must be a finite number >= 0"):
        checks.run("algebra", 0, tol)
    with pytest.raises(UsageError, match="--tol must be a finite number >= 0"):
        checks.gauss_bonnet_checks(None, tol)
    checks.run("algebra", 0, 0.0)
    checks.gauss_bonnet_checks(None, 0.0)


def test_cli_suites_are_the_check_table_suites():
    assert cli._SUITES == checks.SUITES


# modules no command computes with; `import artifact.cli` loads none of them
COLD_UNLOADED = ("numpy", "mpmath", "artifact.numeric_oracle", "artifact.theta_algebra",
                 "artifact.verify", "click", "dataclasses", "inspect", "json", "csv", "sympy")


def test_cli_import_loads_neither_numpy_nor_the_oracles():
    # counted against what the bare interpreter has loaded at startup; the
    # text report loads nothing more of the list and the JSON report json only
    code = ("import contextlib, io, sys\n"
            "startup = set(sys.modules)\n"
            "def loaded():\n"
            f"    return sorted(m for m in {COLD_UNLOADED!r}\n"
            "                  if m in sys.modules and m not in startup)\n"
            "import artifact.cli as cli\n"
            "print(loaded())\n"
            "for fmt in ('text', 'json'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(['derive', '--format', fmt]) == 0\n"
            "    print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]", "['json']"]


# every shipped report, in json and text
DERIVES = [["derive", "--dim", str(dim), "--operator", operator, "--format", fmt]
           for dim, operator in [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"),
                                 (8, "kdelta"), (4, "nc4tori")]
           for fmt in ("json", "text")]


def test_only_evaluating_commands_load_mpmath():
    # mpmath is imported at the first evaluation: with its import blocked the
    # commands that never evaluate print what they print with it present,
    # while eval and table reach it and stop with exit 3
    commands = DERIVES + [["gauss-bonnet"], ["verify", "--suite", "symbols"],
                          ["verify", "--suite", "gauss-bonnet"]]
    script = str(Path(__file__).resolve().parent.parent / "scripts" / "derive_all.py")
    code = ("import contextlib, io, json, runpy, sys\n"
            "{block}"
            "import artifact.cli as cli\n"
            "outputs = []\n"
            f"for argv in {commands!r} + [None]:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        if argv is None:\n"
            f"            sys.argv = [{script!r}, '--json']\n"
            "            runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "        else:\n"
            "            assert cli.run(argv) == 0, argv\n"
            "    outputs.append(buf.getvalue())\n"
            "outputs.append(sys.modules.get('mpmath') is None)  # never loaded\n"
            "print(json.dumps(outputs))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)

    block = "import sys\nsys.modules['mpmath'] = None  # import mpmath now fails\n"
    blocked = json.loads(run(code.format(block=block)).stdout)
    assert blocked == json.loads(run(code.format(block="")).stdout)
    assert all(blocked)
    for argv in (["eval", "--which", "G", "--s", "2.3", "--t", "0.7"],
                 ["table", "--which", "K", "--s-range", "0.5:1.5:2"]):
        stopped = run(block + f"import artifact.cli as cli\ncli.main({argv!r})\n")
        assert stopped.returncode == 3, stopped.stderr
        assert "internal error at stage" in stopped.stderr
        assert "mpmath" in stopped.stderr


def test_cold_commands_do_not_load_sympy():
    # computing and printing never need sympy: with its import blocked every
    # command runs, and derive_all.py prints what it prints with sympy present
    commands = DERIVES + [
        ["eval", "--which", "G", "--s", "2.3", "--t", "0.7"],
        ["eval", "--dim", "4", "--operator", "nc4tori", "--which", "K", "--s", "2"],
        ["table", "--which", "G", "--s-range", "0.5:1.5:3", "--t-range", "0.5:1.5:3"],
        ["gauss-bonnet"]]
    block = "import sys\nsys.modules['sympy'] = None  # import sympy now fails\n"
    code = (block + "import artifact.cli as cli\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.run(argv) == 0, argv\n"
            "print(repr(cli.derive_curvature(2, 'kdelta').G))\n"
            "print(sys.modules['sympy'] is None)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, check=True).stdout

    assert run("-c", code).splitlines()[-1] == "True"
    script = str(Path(__file__).resolve().parent.parent / "scripts" / "derive_all.py")
    blocked = run("-c", block + f"import runpy\nsys.argv = [{script!r}, '--json']\n"
                  "runpy.run_path(sys.argv[0], run_name='__main__')")
    assert blocked == run(script, "--json")


def test_gauss_bonnet_and_the_symbols_suite_never_load_numpy(tmp_path):
    # every twisted product of a line-mode residual runs in the pair loop, so
    # with numpy's import blocked these print what they print with it present
    hfile = tmp_path / "h.txt"
    hfile.write_text("1,0 : 0.04,0\n-1,0 : 0.04,0\n")
    commands = [["gauss-bonnet"], ["gauss-bonnet", str(hfile)],
                ["verify", "--suite", "symbols"]]
    code = ("import contextlib, io, json, sys\n"
            "{block}"
            "import artifact.cli as cli\n"
            "outputs = []\n"
            f"for argv in {commands!r}:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        assert cli.run(argv) == 0, argv\n"
            "    outputs.append(buf.getvalue())\n"
            "outputs.append(sys.modules.get('numpy') is None)  # never loaded\n"
            "print(json.dumps(outputs))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))

    def run(block):
        return json.loads(subprocess.run([sys.executable, "-c", code.format(block=block)],
                                         env=env, capture_output=True, text=True,
                                         check=True).stdout)

    blocked = run("sys.modules['numpy'] = None  # import numpy now fails\n")
    assert blocked == run("")
    assert all(blocked) and len(blocked) == 4


def test_the_engine_imports_numpy_where_an_array_pays():
    # the algebra, the oracles and the checks load numpy inside the functions
    # that use it; the first quadrature is one of them
    code = ("import sys\n"
            "import artifact.theta_algebra, artifact.numeric_oracle, artifact.verify\n"
            "print('numpy' in sys.modules)\n"
            "artifact.numeric_oracle.quad_r_integral((2, 1), 2.0)\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True"]


def test_internal_error_reports_stage_and_exits_three(runner, monkeypatch):
    def boom(dim, operator):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "derive_curvature", boom)
    result = runner.invoke(cli.main, ["derive"])
    assert result.exit_code == 3
    assert "internal error at stage curvature-derivation" in result.stderr


# ---------------------------------------------------------------------------
# gauss-bonnet
# ---------------------------------------------------------------------------


def test_gauss_bonnet_default_sweep_passes(runner):
    result = runner.invoke(cli.main, ["gauss-bonnet"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 3
    for name in ("zero", "rational", "irrational"):
        assert any(f"gauss-bonnet-theta-{name}" in line for line in lines)
    for line in lines:
        assert CHECK_LINE.match(line), line
        assert line.endswith("PASS")


def test_gauss_bonnet_reads_exponent_file_and_fails_tiny_tol(runner, tmp_path):
    h = FourierElement(
        2, {(1, 0): 0.05 + 0j, (-1, 0): 0.05 + 0j}, mode="float"
    )
    hfile = tmp_path / "h.txt"
    hfile.write_text(format_element(h))
    ok = runner.invoke(cli.main, ["gauss-bonnet", str(hfile)])
    assert ok.exit_code == 0
    strict = runner.invoke(
        cli.main, ["gauss-bonnet", str(hfile), "--tol", "1e-30"]
    )
    assert strict.exit_code == 1
    assert all(
        line.endswith("FAIL") for line in strict.output.strip().splitlines()
    )


AXIS_MODES = ((1, 0), (-1, 0), (0, 1), (0, -1))
DIAGONAL_MODES = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def _exponent_file(tmp_path, modes, amplitude):
    h = FourierElement(2, {idx: amplitude + 0j for idx in modes}, mode="float")
    hfile = tmp_path / "h.txt"
    hfile.write_text(format_element(h))
    return str(hfile)


def test_gauss_bonnet_runs_an_exponent_with_modes_on_both_axes(runner, tmp_path):
    # theta acts only on such exponents; their supports outgrow 40 modes
    hfile = _exponent_file(tmp_path, AXIS_MODES, 1e-4)
    result = runner.invoke(cli.main, ["gauss-bonnet", hfile])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 3
    assert all(CHECK_LINE.match(line) and line.endswith("PASS") for line in lines)


def test_gauss_bonnet_support_overflow_exits_3(runner, tmp_path):
    # eight modes at the norm limit |h|_1 = 0.2 outgrow the command's support
    # cap of 500 modes at theta = 0, the first row (540 modes); they fit at
    # the other two theta, and lifted, the cap would let theta = 0 run in 0.05 s
    hfile = _exponent_file(tmp_path, AXIS_MODES + DIAGONAL_MODES, 0.025)
    result = runner.invoke(cli.main, ["gauss-bonnet", hfile])
    assert result.exit_code == 3
    assert "internal error at stage gauss-bonnet-residual: support overflow" in result.stderr


@pytest.mark.parametrize("text, reason", [
    ("1,0 : abc,0", "line 1 is not `r1,...,rn : re,im`"),
    ("1,0 : 0.01", "line 1 is not `r1,...,rn : re,im`"),
    ("1,0,0 : 0.01,0", "multi-index length does not match torus rank"),
    ("1,0 : 0.01,0", "star(h) = h"),
    ("1,0 : 0.2,0\n-1,0 : 0.2,0", "norm precondition violated"),
    ("1,0 : nan,0\n-1,0 : nan,0", "line 1 is not `r1,...,rn : re,im`: coefficient nan is not finite"),
    ("1,0 : 0.01,0\n-1,0 : 0.01,-inf", "line 2 is not `r1,...,rn : re,im`: coefficient -inf is not finite"),
    ("1,0 : 1e-400,0", "line 1 is not `r1,...,rn : re,im`: coefficient 1e-400 underflows to 0.0"),
    ("1,0 : 0.05,0\n-1,0 : 0.05,0\n1,0 : 0.01,0", "line 3 repeats the mode 1,0 of line 1"),
], ids=["not-a-number", "no-imaginary-part", "wrong-rank", "not-self-adjoint",
        "norm-above-0.2", "nan", "infinite", "underflow", "repeated-mode"])
def test_gauss_bonnet_bad_exponent_file_is_a_usage_error(runner, tmp_path, text, reason):
    hfile = tmp_path / "h.txt"
    hfile.write_text(text + "\n")
    result = runner.invoke(cli.main, ["gauss-bonnet", str(hfile)])
    assert result.exit_code == 2
    assert reason in result.output
    assert "internal error" not in result.output


# ---------------------------------------------------------------------------
# parser contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args, names", [
    ([], "COMMAND"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["derive", "--operator", "bogus"], "argument --operator: invalid choice: 'bogus'"),
    (["eval", "--which", "H", "--s", "2"], "argument --which: invalid choice: 'H'"),
    (["derive", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["table", "--which", "K", "--s-range", "1:2:3", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["verify", "--suite", "none"], "argument --suite: invalid choice: 'none'"),
    (["eval", "--s", "2"], "required: --which"),
    (["eval", "--which", "K"], "required: --s"),
    (["table", "--which", "K"], "required: --s-range"),
    (["derive", "--dim", "two"], "argument --dim: invalid int value: 'two'"),
    (["eval", "--which", "K", "--s", "x"], "argument --s: invalid float value: 'x'"),
    (["verify", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["verify", "--tol", "x"], "argument --tol: invalid float value: 'x'"),
    (["gauss-bonnet", "--tol", "x"], "argument --tol: invalid float value: 'x'"),
    (["derive", "--op", "kdelta"], "artifact derive: error: unrecognized arguments: --op"),
    (["eval", "--which", "K", "--s", "2", "--dimension", "2"],
     "artifact eval: error: unrecognized arguments: --dimension"),
], ids=["no-command", "unknown-command", "operator", "which", "derive-format",
        "table-format", "suite", "missing-which", "missing-s", "missing-s-range",
        "dim-not-int", "s-not-float", "seed-not-int", "tol-not-float", "gb-tol-not-float",
        "abbreviated", "unknown-option"])
def test_parser_errors_exit_two_and_name_the_flag(runner, args, names):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert names in result.output
    assert "internal error" not in result.output


def test_missing_hfile_is_a_usage_error_naming_it(runner, tmp_path):
    hfile = tmp_path / "missing.txt"
    result = runner.invoke(cli.main, ["gauss-bonnet", str(hfile)])
    assert result.exit_code == 2
    assert f"HFILE {hfile}: No such file or directory" in result.output
    assert "CHECK" not in result.output


@pytest.mark.parametrize("args, flag", [
    (["gauss-bonnet", "{}"], "HFILE"),
    (["derive", "--out", "{}"], "--out"),
    (["table", "--which", "K", "--s-range", "1:2:3", "--out", "{}"], "--out"),
], ids=["hfile", "derive-out", "table-out"])
def test_a_directory_for_a_file_is_a_usage_error_naming_it(runner, tmp_path, monkeypatch,
                                                           args, flag):
    # checked as the arguments are parsed: the derivation never starts
    monkeypatch.setattr(cli, "derive_curvature", None)
    result = runner.invoke(cli.main, [a.format(tmp_path) for a in args])
    assert result.exit_code == 2
    assert f"argument {flag}: {tmp_path} is a directory" in result.output
    assert "internal error" not in result.output


@pytest.mark.parametrize("args, message", [
    (["eval", "--which", "K", "--s", "-1e-3"], "0 < s < inf and 0 < t < inf"),
    (["eval", "--which", "G", "--s", "2", "--t", "-1e-3"], "0 < s < inf and 0 < t < inf"),
    (["eval", "--which", "K", "--s", "-inf"], "0 < s < inf and 0 < t < inf"),
    (["table", "--which", "K", "--s-range", "-1e-3:2:3"],
     "--s-range needs n >= 1 and positive endpoints"),
    (["verify", "--suite", "algebra", "--tol", "-1e-3"],
     "--tol must be a finite number >= 0, not -0.001"),
    (["gauss-bonnet", "--tol=-inf"], "--tol must be a finite number >= 0, not -inf"),
], ids=["s", "t", "s-inf", "s-range", "verify-tol", "tol-joined"])
def test_a_dash_leading_value_reaches_the_engine_check(runner, args, message):
    # argparse alone would read -1e-3 or -inf as an option and report a
    # missing value instead of the engine's own message
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert message in result.output
    assert "expected one argument" not in result.output


HELP_OPTIONS = {
    "derive": ["--dim", "--operator", "--format", "--out"],
    "eval": ["--dim", "--operator", "--which", "--s", "--t"],
    "table": ["--dim", "--operator", "--which", "--format", "--s-range", "--t-range", "--out"],
    "verify": ["--suite", "--seed", "--tol"],
    "gauss-bonnet": ["HFILE", "--tol"],
}


@pytest.mark.parametrize("command", list(HELP_OPTIONS))
def test_command_help_exits_zero_and_lists_every_option(runner, command):
    result = runner.invoke(cli.main, [command, "--help"])
    assert result.exit_code == 0
    listed = set(re.findall(r"^  (?:-h, )?(--[a-z-]+|[A-Z]+)\b", result.output, re.MULTILINE))
    assert listed == set(HELP_OPTIONS[command]) | {"--help"}


def test_group_help_exits_zero_and_lists_every_command(runner):
    result = runner.invoke(cli.main, ["--help"])
    assert result.exit_code == 0
    listed = re.findall(r"^    ([a-z-]+)", result.output, re.MULTILINE)
    assert listed == list(HELP_OPTIONS)


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "all", "--seed", "0"],
    ["table", "--which", "K", "--s-range", "0.1:10:3000"],
], ids=["verify", "table"])
def test_closed_stdout_ends_the_command_quietly(args):
    # as `artifact verify | head -1`: verify prints each CHECK line as it
    # arrives and has about two seconds of checks left after the first; table
    # writes 120 kB at once, more than the pipe holds.  Unbuffered, stdout
    # once wrote through a raw file whose short write was ignored: exit 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({"PYTHONUNBUFFERED": "1"}, {}):
        proc = subprocess.Popen([sys.executable, "-m", "artifact.cli"] + args,
                                env=dict(env, **unbuffered),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, unbuffered
        assert first.startswith(b"CHECK algebra-" if args[0] == "verify" else b"s,t,K,G")
        assert stderr == b""
