"""Every integer argument of an entry point is read one way: by
operator.index, so numpy integers pass, with bool refused.  Anything else is
an error naming the argument and the value, of the type the entry point
raises for its other bad values."""

import re

import numpy as np
import pytest

from artifact.cosphere_integrator import sphere_average
from artifact.modular_function_engine import (
    SignatureError,
    UsageError,
    derive_curvature,
    radial_integral,
)
from artifact.numeric_oracle import (
    QuadratureSpec,
    cos_mode,
    gauss_bonnet_residual,
    matrix_rearrangement_check,
)
from artifact.symbol_engine import resolvent_b, standard_p2
from artifact.theta_algebra import FourierElement, SkewMatrix, derivation, exp_element

H = FourierElement(2, {(1, 0): 0.05 + 0j, (-1, 0): 0.05 + 0j}, mode="float")
THETA = SkewMatrix.standard_2d(0.5)
KDELTA = {"p2": standard_p2()}

# name -> (call with the argument, a good value, error, message before ", got")
ENTRY_POINTS = {
    "exp_element-order": (lambda n: exp_element(H, THETA, n), 3,
                          ValueError, "order must be an int >= 1"),
    "gauss_bonnet_residual-series_order": (
        lambda n: gauss_bonnet_residual(cos_mode(0.05), THETA, series_order=n), 6,
        ValueError, "series_order must be an int >= 1"),
    "gauss_bonnet_residual-support_cap": (
        lambda n: gauss_bonnet_residual(cos_mode(0.05), THETA, support_cap=n), 40,
        ValueError, "support_cap must be an int >= 1"),
    "QuadratureSpec-max_depth": (lambda n: QuadratureSpec(max_depth=n), 4,
                                 ValueError, "max_depth must be an int >= 1"),
    "sphere_average-m": (lambda n: sphere_average(resolvent_b(2, KDELTA), n), 4,
                         ValueError, "dimension m must be an even integer >= 2"),
    "derivation-j": (lambda n: derivation(H, n), 1,
                     ValueError, "axis j must be an int from 1 to 2"),
    "FourierElement.generator-axis": (lambda n: FourierElement.generator(2, n), 1,
                                      ValueError, "axis must be an int from 1 to 2"),
    "resolvent_b-kappa": (lambda n: resolvent_b(n, KDELTA), 1,
                          ValueError, "kappa must be in {0, 1, 2}"),
    "matrix_rearrangement_check-dim": (
        lambda n: matrix_rearrangement_check(n, 0, (2, 1)), 2,
        ValueError, "dim must be between 1 and 12 (dense spectral scale)"),
    "matrix_rearrangement_check-seed": (
        lambda n: matrix_rearrangement_check(2, n, (2, 1)), 1,
        ValueError, "seed must be an int >= 0"),
    **{f"{name}-n": (call, 2, ValueError, "torus rank must be an int >= 1") for name, call in [
        ("FourierElement", lambda n: FourierElement(n, {(1, 0): 1})),
        ("FourierElement.zero", FourierElement.zero),
        ("FourierElement.unit", FourierElement.unit),
        ("FourierElement.generator", lambda n: FourierElement.generator(n, 1)),
        ("SkewMatrix", lambda n: SkewMatrix(n, THETA.entries)),
        ("SkewMatrix.zero", SkewMatrix.zero),
    ]},
    "radial_integral-exponents": (lambda n: radial_integral((n, 1), 2), 1,
                                  SignatureError, "family exponents must be integers"),
    "radial_integral-m": (lambda n: radial_integral((2, 1), n), 2,
                          UsageError, "the radial families need even m >= 2"),
    "derive_curvature-m": (lambda n: derive_curvature(n, "kdelta"), 2,
                           UsageError, "dimension must be an even integer >= 2"),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_numpy_integer_is_read_as_an_int(name):
    call, good, _, _ = ENTRY_POINTS[name]
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("kind", ["bool", "float", "str"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_bool_float_or_str_is_an_error_naming_it(name, kind):
    # derivation, generator and resolvent_b took True and 1.0; derivation
    # died on a tuple index for 1.5 and the matrix check inside numpy; the
    # torus rank True was taken, and 2.0 died inside range
    call, good, error, message = ENTRY_POINTS[name]
    bad = {"bool": True, "float": float(good), "str": str(good)}[kind]
    with pytest.raises(error, match=re.escape(f"{message}, got {bad!r}")):
        call(bad)


# the torus rank and the seed below their range; the seed died inside numpy
OUT_OF_RANGE = [(name, n) for name in ENTRY_POINTS if name.endswith("-n")
                for n in (0, -1)] + [("matrix_rearrangement_check-seed", -1)]


@pytest.mark.parametrize("name, bad", OUT_OF_RANGE)
def test_an_int_out_of_range_is_an_error_naming_it(name, bad):
    call, _, error, message = ENTRY_POINTS[name]
    with pytest.raises(error, match=re.escape(f"{message}, got {bad!r}")):
        call(bad)


def test_numpy_integer_exp_factors_are_read_as_ints():
    # the factors refused a numpy integer that the order took
    assert (exp_element(H, THETA, 3, factors=(np.int64(1), np.int32(-2)))
            == exp_element(H, THETA, 3, factors=(1, -2)))
