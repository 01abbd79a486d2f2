import math

import numpy as np
import pytest

from querybound.logspace import LN10, fmt_log10, log10_of, log_add, log_sub, to_float


def test_log_add_matches_direct_sums():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(1e-3, 1e3, size=2)
        np.testing.assert_allclose(log_add(math.log(a), math.log(b)),
                                   math.log(a + b), rtol=1e-13)


def test_log_sub_matches_direct_differences():
    rng = np.random.default_rng(12)
    for _ in range(200):
        b = rng.uniform(1e-3, 1e3)
        a = b + rng.uniform(1e-6, 1e3)
        np.testing.assert_allclose(log_sub(math.log(a), math.log(b)),
                                   math.log(a - b), rtol=1e-10)


def test_log_ops_handle_minus_infinity():
    assert log_add(-math.inf, 1.5) == 1.5
    assert log_add(2.5, -math.inf) == 2.5
    assert log_sub(3.0, -math.inf) == 3.0
    assert log_sub(-math.inf, -math.inf) == -math.inf


def test_log_ops_work_far_outside_float_range():
    # ln values near 1000 correspond to numbers ~1e434
    big = 1000.0
    np.testing.assert_allclose(log_add(big, big), big + math.log(2), rtol=1e-15)
    np.testing.assert_allclose(log_sub(big + math.log(2), big), big, rtol=1e-15)


def test_to_float_saturates():
    assert to_float(-math.inf) == 0.0
    assert to_float(0.0) == 1.0
    assert to_float(1e6) == math.inf
    np.testing.assert_allclose(to_float(math.log(42.0)), 42.0, rtol=1e-15)


def test_log10_of():
    np.testing.assert_allclose(log10_of(math.log(1000.0)), 3.0, rtol=1e-15)
    assert log10_of(-math.inf) == -math.inf
    np.testing.assert_allclose(LN10, math.log(10.0), rtol=0)


def test_fmt_log10_renders_mantissa_and_exponent():
    assert fmt_log10(math.log10(30341818.18)) == "3.03418e+07"
    assert fmt_log10(310.6888733921551) == "4.88510e+310"
    assert fmt_log10(-math.inf) == "0"
    assert fmt_log10(math.log10(2.0)) == "2.00000e+00"


def test_fmt_log10_rounds_at_the_decade_boundary():
    # a mantissa that rounds up to 10.0 must carry into the exponent
    assert fmt_log10(math.log10(9.9999999)) == "1.00000e+01"
    assert fmt_log10(math.log10(0.999999999)) == "1.00000e+00"
    # a mantissa in [9.99995, 9.999995) rounds within its own decade
    assert fmt_log10(math.log10(9.99996)) == "9.99996e+00"
    assert fmt_log10(math.log10(9.99999)) == "9.99999e+00"
