#!/usr/bin/env python3
"""Sweep the Gauss-Bonnet residual over theta, conformal amplitude, and
series order, printing one line per configuration.

The residual should sit at series-truncation scale for every theta; the
order column shows it collapsing as the functional-calculus order grows.
"""

import argparse

from artifact.theta_algebra import SkewMatrix
from artifact.numeric_oracle import GB_THETAS, cos_mode, gauss_bonnet_residual


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="3,5,8",
                        help="comma-separated series orders")
    parser.add_argument("--amps", default="0.025,0.05,0.1",
                        help="comma-separated mode amplitudes (l1 norm is twice this)")
    args = parser.parse_args()
    orders = [int(x) for x in args.orders.split(",")]
    amps = [float(x) for x in args.amps.split(",")]
    print(f"{'theta':>10} {'amp':>7} {'order':>5} {'residual':>12}")
    for _, theta in GB_THETAS:
        skew = SkewMatrix.standard_2d(theta)
        for amp in amps:
            h = cos_mode(amp)
            for order in orders:
                r = gauss_bonnet_residual(h, skew, series_order=order)
                print(f"{theta:>10.6f} {amp:>7.3f} {order:>5d} {r:>12.3e}")


if __name__ == "__main__":
    main()
