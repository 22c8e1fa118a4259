import math

import numpy as np
import pytest
from scipy.special import ndtr

from senserate.normal import (
    erfc,
    phi,
    q_function,
    q_reference,
)

# frozen reference values, produced by the fixed-step cross-check rule and
# confirmed against an independent high-precision evaluation
Q1 = 0.15865525393145705
Q3 = 0.0013498980316300945
ERFC1 = 0.15729920705028513


def test_phi_at_zero():
    assert abs(phi(0.0) - 0.3989422804014327) < 1e-15


def test_phi_is_even_and_positive():
    for t in (0.3, 1.7, 4.2, 7.9):
        assert phi(-t) == phi(t)
        assert phi(t) > 0.0


def test_phi_deep_argument():
    assert phi(10.0) < 1e-21


def test_phi_accepts_arrays():
    t = np.array([-1.0, 0.0, 1.0])
    vals = phi(t)
    assert vals.shape == (3,)
    assert vals[0] == vals[2]


def test_q_at_zero():
    assert abs(q_function(0.0) - 0.5) < 1e-13


def test_q_known_values():
    assert abs(q_function(1.0) - Q1) < 1e-12
    assert abs(q_function(3.0) - Q3) < 1e-12
    # cross-check against the independent fixed-step rule
    assert abs(q_function(3.0) - q_reference(3.0)) < 1e-10
    assert abs(q_function(3.0) - 1.3498980e-3) < 1e-9


def test_q_symmetry_band():
    xs = np.linspace(-8.0, 8.0, 101)
    worst = max(abs(q_function(float(x)) + q_function(float(-x)) - 1.0) for x in xs)
    assert worst <= 1e-12


def test_q_strictly_monotone():
    rng = np.random.default_rng(2)
    grid = np.unique(np.round(np.sort(rng.uniform(-8.0, 8.0, 300)), 2))
    values = q_function(grid)
    assert np.all(np.diff(values) < 0.0)
    tail_grid = np.linspace(8.0, 20.0, 40)
    tail_values = q_function(tail_grid)
    assert np.all(np.diff(tail_values) < 0.0)


def test_q_oracle_agreement_on_grid():
    xs = np.linspace(-8.0, 8.0, 100)
    worst = max(abs(q_function(float(x)) - q_reference(float(x))) for x in xs)
    assert worst <= 1e-10


def test_q_derivative_matches_density():
    h = 1e-5
    for x in np.linspace(-4.0, 4.0, 41):
        diff = (q_function(float(x - h)) - q_function(float(x + h))) / (2.0 * h)
        assert abs(diff - phi(float(x))) <= 1e-6


def test_q_deep_tail_relative_accuracy():
    # relative, not absolute: DRAM error rates live at 1e-12 to 1e-30
    for x in (4.0, 7.9, 8.0, 8.5, 10.0, 15.0, 20.0, 30.0, 37.0):
        mine = q_function(x)
        ref = float(ndtr(-x))
        assert mine > 0.0
        assert abs(mine / ref - 1.0) < 1e-12


def test_q_array_matches_scalar_bitwise():
    xs = np.array([-5.0, -1.0, 0.0, 0.5, 3.0, 9.0, 12.0, 37.0])
    for f in (q_function, erfc):
        batch = f(xs)
        singles = np.array([f(float(x)) for x in xs])
        assert np.array_equal(batch, singles)
        # a float, a 0-d array and a 1-element array take different paths
        for x in xs.tolist():
            scalar = f(x)
            assert type(scalar) is float
            assert scalar.hex() == f(np.array(x)).hex() == float(f(np.array([x]))[0]).hex()


def test_q_rejects_non_finite():
    for f in (q_function, erfc):
        for bad in (math.nan, math.inf, -math.inf):
            for arg in (bad, np.array(bad), np.array([1.0, bad])):
                with pytest.raises(ValueError, match="finite"):
                    f(arg)


def test_erfc_values():
    assert abs(erfc(0.0) - 1.0) < 1e-12
    assert abs(erfc(1.0) - ERFC1) < 1e-9
    assert abs(erfc(1.0) - 2.0 * q_reference(math.sqrt(2.0))) < 1e-10


def test_erfc_reflection():
    for x in (0.25, 0.5, 1.0, 2.0, 3.0):
        assert abs(erfc(x) + erfc(-x) - 2.0) < 1e-12


def test_erfc_consistency_with_q():
    xs = np.linspace(-8.0, 8.0, 81)
    for x in xs:
        assert abs(erfc(float(x)) - 2.0 * q_function(math.sqrt(2.0) * float(x))) <= 1e-12


def test_erfc_range():
    assert 0.0 < erfc(5.0) < 1.0 < erfc(-5.0) < 2.0


def test_scipy_cross_check_midrange():
    # third, fully independent route; not the in-repo oracle but a sanity net
    xs = np.linspace(-8.0, 8.0, 33)
    worst = float(np.max(np.abs(q_function(xs) - (1.0 - ndtr(xs)))))
    assert worst < 5e-13
