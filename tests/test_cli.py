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

import pytest
from click.testing import CliRunner

from artifact import cli
from artifact import verify as checks
from artifact.modular_function_engine import UsageError
from artifact.theta_algebra import FourierElement, format_element

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


def test_cli_import_loads_neither_numpy_nor_the_oracles():
    code = ("import sys, artifact.cli; "
            "print(sorted(m for m in ('numpy', 'artifact.numeric_oracle', "
            "'artifact.theta_algebra', 'artifact.verify') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cold_commands_do_not_load_sympy():
    # sympy only hands out sympy objects and reads sympy input; computing and
    # printing never need it
    derives = [["derive", "--dim", str(dim), "--operator", operator, "--format", fmt]
               for dim, operator in [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"),
                                     (8, "kdelta"), (4, "nc4tori")]
               for fmt in ("json", "text")]
    commands = derives + [
        ["eval", "--which", "G", "--s", "2.3", "--t", "0.7"],
        ["eval", "--dim", "4", "--operator", "nc4tori", "--which", "K", "--s", "2"],
        ["table", "--which", "G", "--s-range", "0.5:1.5:3", "--t-range", "0.5:1.5:3"],
        ["gauss-bonnet"]]
    code = ("import sys, artifact.cli as cli\n"
            f"for argv in {commands!r}:\n"
            "    cli.main(argv, standalone_mode=False)\n"
            "print(repr(cli.derive_curvature(2, 'kdelta').G))\n"
            "print('sympy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


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
    # cap of 500 modes; lifted, the cap would let them run about 0.9 s per theta
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
], ids=["not-a-number", "no-imaginary-part", "wrong-rank", "not-self-adjoint",
        "norm-above-0.2", "nan", "infinite", "underflow"])
def test_gauss_bonnet_bad_exponent_file_is_a_usage_error(runner, tmp_path, text, reason):
    hfile = tmp_path / "h.txt"
    hfile.write_text(text + "\n")
    result = runner.invoke(cli.main, ["gauss-bonnet", str(hfile)])
    assert result.exit_code == 2
    assert reason in result.output
    assert "internal error" not in result.output
