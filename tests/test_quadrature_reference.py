"""The one-pass radial quadrature against the per-level loop it replaced.

``reference_quad_raw`` is the double-exponential trapezoid rule evaluated one
level at a time, with pi sinh(tau) and pi cosh(tau) computed afresh at every
level.  It is ``numeric_oracle._quad_raw`` as it was before the node tables
were cached and levels 0-4 were batched into one pass, with the overflow fix
applied: a row whose scales leave the float64 range, or a level whose value
overflows, raises instead of returning inf (or dying on int(NaN)).

``_quad_raw`` must reproduce it bit for bit (``np.array_equal``) on every
row, and where the reference raises it must raise the same exception type
with the same message.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from artifact import numeric_oracle as oracle
from artifact.numeric_oracle import QuadratureSpec, matrix_rearrangement_check, quad_r_integral
from artifact.verify import _MATRIX_FAMILIES

OUT_OF_RANGE = "quadrature integrand leaves the float64 range at these scales"


def reference_quad_raw(scales, exps, w, spec):
    used = [i for i, e in enumerate(exps) if e]
    rows = np.asarray(scales, dtype=float)[:, used]
    with np.errstate(divide="ignore", invalid="ignore"):
        centre = np.log(rows).mean(axis=1, keepdims=True)
        spread = np.abs(np.log(rows) - centre).max()
    if not math.isfinite(spread):  # the fix: a scale of 0 or inf
        raise ArithmeticError(OUT_OF_RANGE)
    tau_max = math.asinh((spread + oracle._TAIL_LOG_R) / math.pi)

    def node_sum(tau):
        r = np.exp(math.pi * np.sinh(tau) - centre)
        f = math.pi * np.cosh(tau) * r ** (w + 1)
        for col, i in enumerate(used):
            f = f / (rows[:, col:col + 1] * r + 1.0) ** exps[i]
        return f.sum(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        step = 1.0
        n = int(tau_max)
        total = node_sum(step * np.arange(-n, n + 1))
        value = step * total
        for _ in range(spec.max_depth):
            step /= 2
            n = int(tau_max / step)
            half = (n + 1) // 2
            total = total + node_sum(step * (2 * np.arange(-half, half) + 1))
            diff = np.abs(step * total - value)
            value = step * total
            if np.all(diff <= oracle._CONVERGED_REL * value):
                if np.all(np.isfinite(value)):  # the fix: inf never converges
                    return value
                break
    if not np.all(np.isfinite(value)):
        raise ArithmeticError(OUT_OF_RANGE)
    if np.any(diff > 10 * np.maximum(spec.abs_tol, 1e-15 * value)):
        raise ArithmeticError(
            f"quadrature refinement exhausted at depth {spec.max_depth} "
            f"(level difference {np.max(diff):.3g})"
        )
    return value


def outcome(quad, scales, exps, spec):
    """The result array, or the exception's type and message."""
    exps = tuple(exps)
    try:
        return quad(np.asarray(scales, dtype=float), exps, sum(exps) - 2, spec)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def assert_same(scales, exps, spec=QuadratureSpec()):
    got = outcome(oracle._quad_raw, scales, exps, spec)
    want = outcome(reference_quad_raw, scales, exps, spec)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    return want


# the families with entries 0-3 and total >= 2: 13 of K's and 60 of H's
FAMILIES = [exps for size in (2, 3) for exps in np.ndindex(*(4,) * size) if sum(exps) >= 2]


def single_row(exps, s, t):
    return [(1.0, s, s * t)[:len(exps)]]


def test_single_rows_match_the_per_level_loop_bit_for_bit():
    rng = np.random.default_rng(2025)
    for _ in range(1200):
        exps = FAMILIES[rng.integers(len(FAMILIES))]
        s, t = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        value = assert_same(single_row(exps, s, t), exps)
        assert np.isfinite(value).all()
        if len(exps) == 2:
            t = 1.0
        assert quad_r_integral(exps, s, t) == float(value[0])


def kappa_grid(dim, seed, size):
    """The scale rows of matrix_rearrangement_check(dim, seed, <family of size>)."""
    kappa = np.random.default_rng(seed).uniform(0.2, 5.0, size=dim)
    grid = np.meshgrid(*([kappa] * size), indexing="ij")
    return np.stack([axis.ravel() for axis in grid], axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, exps", [(name, exps) for name, exps, _ in _MATRIX_FAMILIES],
                         ids=[name for name, _, _ in _MATRIX_FAMILIES])
def test_matrix_grids_match_the_per_level_loop_bit_for_bit(name, exps, seed):
    assert_same(kappa_grid(6, seed, len(exps)), exps)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", [QuadratureSpec(abs_tol=1e-3, max_depth=2),
                                  QuadratureSpec(abs_tol=1e-12, max_depth=8)],
                         ids=["loose", "tight"])
def test_refinement_pair_grids_match_the_per_level_loop(spec, seed):
    assert_same(kappa_grid(4, seed, 2), (2, 1), spec)


def test_refinement_pair_checks_match_through_the_reference(monkeypatch):
    loose = QuadratureSpec(abs_tol=1e-3, max_depth=2)
    got = [matrix_rearrangement_check(4, 0, (2, 1), spec=spec) for spec in (loose, None)]
    monkeypatch.setattr(oracle, "_quad_raw", reference_quad_raw)
    want = [matrix_rearrangement_check(4, 0, (2, 1), spec=spec) for spec in (loose, None)]
    assert got == want


@pytest.mark.parametrize("max_depth", range(1, 9))
def test_every_depth_matches_the_per_level_loop(max_depth):
    # depths below the batch end it early; depths past it add levels singly
    spec = QuadratureSpec(abs_tol=1e-3, max_depth=max_depth)
    outcomes = [assert_same(single_row(exps, s, t), exps, spec)
                for exps, s, t in [((3, 1, 1), 0.5, 2.0), ((2, 1), 1e-6, 1.0),
                                   ((1, 2, 3), 1e3, 1e-3), ((2, 2), 37.0, 1.0)]]
    if max_depth == 1:
        assert any(isinstance(o, tuple) and "exhausted at depth 1" in o[1] for o in outcomes)


def test_extreme_scales_match_or_raise_as_the_reference_does():
    # s = 10^k across the float64 range: rows that converge past the batch,
    # rows that underflow to 0, and rows that overflow and must raise
    kinds = set()
    for exps in [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        for k in range(-300, 301, 12):
            want = assert_same(single_row(exps, 10.0 ** k, 1.0), exps)
            kinds.add("raises" if isinstance(want, tuple) else
                      "zero" if want[0] == 0.0 else "value")
    for s, t in [(1e200, 1e200), (1e-200, 1e-200)]:
        assert assert_same(single_row((2, 1, 1), s, t), (2, 1, 1)) == (ArithmeticError, OUT_OF_RANGE)
    assert kinds == {"raises", "zero", "value"}


def test_node_tables_are_built_at_the_first_call_not_at_import():
    # oracle-verify's set-up and the cold gauss-bonnet command import the module
    code = ("import artifact.numeric_oracle as o; "
            "print(o._level_nodes.cache_info().currsize, o._batch_nodes.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]


def test_cached_node_tables_are_read_only():
    # every caller shares them
    for table in oracle._level_nodes(1, 7) + oracle._batch_nodes((3, 7))[:2]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
