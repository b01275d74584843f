"""The scripts under scripts/, run as a user runs them: a fresh interpreter
with the package on the path."""

import os
import subprocess
import sys
from pathlib import Path

from artifact.numeric_oracle import GB_THETAS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_derive_all_json_prints_the_four_goldens_byte_for_byte():
    want = "".join((GOLDEN / f"{case}.json").read_text() + "\n"
                   for case in ("kdelta-2", "kdelta-4", "kdelta-6", "nc4tori-4"))
    assert _run_script("derive_all.py", "--json") == want


def test_gauss_bonnet_sweep_prints_a_header_and_one_row_per_theta():
    header, *rows = _run_script("gauss_bonnet_sweep.py", "--orders", "3",
                                "--amps", "0.05").splitlines()
    assert header.split() == ["theta", "amp", "order", "residual"]
    assert len(rows) == len(GB_THETAS)
    for row, (_, want_theta) in zip(rows, GB_THETAS):
        theta, amp, order, residual = row.split()
        assert (theta, float(amp), int(order)) == (f"{want_theta:.6f}", 0.05, 3)
        assert float(residual) < 1e-6, row


def test_gauss_bonnet_sweep_residual_collapses_with_the_order():
    _, *rows = _run_script("gauss_bonnet_sweep.py", "--orders", "3,12",
                           "--amps", "0.05").splitlines()
    by_theta = {}
    for row in rows:
        theta, _, order, residual = row.split()
        by_theta.setdefault(theta, {})[int(order)] = float(residual)
    assert list(by_theta) == [f"{theta:.6f}" for _, theta in GB_THETAS]
    for theta, residual in by_theta.items():
        assert residual[12] < residual[3], theta
