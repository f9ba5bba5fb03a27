import math

import numpy as np
import pytest

from vriwae.asymptotics import (expected_min_normal, fit_constant, iid_sum_curve,
                                lognormal_curve, one_over_n_curve, slope_fit)
from vriwae.rng import make_stream, standard_normal


def test_one_over_n_limit():
    for n in (10**6, 10**9):
        assert one_over_n_curve(n, -1.3, 5.0, 0.0) == pytest.approx(-1.3, abs=1e-5)


def test_one_over_n_alpha_zero_form():
    # zero error term: the curve is (c1 - gamma2/2)/N
    for n in (4, 64):
        assert one_over_n_curve(n, 0.0, 3.0, 0.7) == pytest.approx((0.7 - 1.5) / n)


def test_one_over_n_hand_value():
    gamma2 = 2.0 * (math.exp(2.5) - 1.0)
    assert one_over_n_curve(1024, -2.5, gamma2, 0.0) == pytest.approx(-2.5109, abs=2e-4)


def test_lognormal_curve_hand_value():
    # c2=0, alpha=0, B=sqrt(1000), N=512
    val = lognormal_curve(512, math.sqrt(1000.0), 0.0, 0.0)
    expected = -500.0 + math.sqrt(1000.0) * math.sqrt(2.0 * math.log(512.0)) - math.log(512.0)
    assert val == pytest.approx(expected, abs=1e-12)
    assert val == pytest.approx(-394.54, abs=0.01)


def test_lognormal_curve_increasing_for_large_b():
    b = math.sqrt(1000.0)
    values = [lognormal_curve(n, b, 0.0, 0.0) for n in (8, 32, 128, 512)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_lognormal_curve_decreasing_in_alpha():
    for n in (8, 512):
        lo = lognormal_curve(n, 5.0, 0.6, 0.0)
        hi = lognormal_curve(n, 5.0, 0.2, 0.0)
        assert lo < hi


def test_extreme_curves_domain():
    for fn in (lambda n: lognormal_curve(n, 1.0, 0.0, 0.0),
               lambda n: iid_sum_curve(n, 10, 0.02, 0.2, 0.0),
               lambda n: expected_min_normal(n)):
        with pytest.raises(ValueError):
            fn(2)
        assert math.isfinite(fn(3))


def test_iid_sum_curve_values():
    a = 1.0 / 6.0 + 0.5 * math.log(3.0 / 4.0)
    assert iid_sum_curve(8, 1000, a, 0.0, 0.0) == pytest.approx(-1000.0 * a)
    assert -1000.0 * a == pytest.approx(-22.8, abs=0.05)
    # sigma=0: constant in N
    assert iid_sum_curve(512, 1000, a, 0.0, 0.0) == iid_sum_curve(8, 1000, a, 0.0, 0.0)


def test_iid_sum_curve_alpha_free():
    # family has no alpha argument at all; document by construction
    import inspect
    assert "alpha" not in inspect.signature(iid_sum_curve).parameters


def test_expected_min_normal_values():
    assert expected_min_normal(10_000, refined=False) == pytest.approx(-4.29193, abs=1e-5)
    assert expected_min_normal(10_000, refined=True) == pytest.approx(-3.8729, abs=1e-4)


def test_expected_min_sampling_oracle():
    # refined constant against the empirical mean minimum at N = 10^4
    mins = standard_normal(make_stream(42, 0), (500, 10_000)).min(axis=1)
    assert abs(mins.mean() - expected_min_normal(10_000, refined=True)) < 0.05


def test_expected_min_n2_exact_value():
    # E[min of 2] = -1/sqrt(pi): calibrates the sampling oracle, the
    # asymptotic formula is not asserted at N=2
    x = standard_normal(make_stream(43, 0), (200_000, 2)).min(axis=1)
    assert abs(x.mean() + 1.0 / math.sqrt(math.pi)) < 0.005
    assert -1.0 / math.sqrt(math.pi) == pytest.approx(-0.56419, abs=1e-5)


def test_fit_constant_exact_recovery():
    base = np.array([1.0, 2.0, 3.0])
    shape = np.array([0.5, -1.0, 2.0])
    c, rms = fit_constant(base, shape, base + 2.0 * shape)
    assert c == pytest.approx(2.0, abs=1e-12)
    assert rms == pytest.approx(0.0, abs=1e-12)
    c, rms = fit_constant(base, shape, base)
    assert c == pytest.approx(0.0, abs=1e-12)


def test_fit_constant_hand_least_squares():
    # base 0, shape (1,1), observed (1,3): c = 2, residuals (-1, 1), rms 1
    c, rms = fit_constant([0.0, 0.0], [1.0, 1.0], [1.0, 3.0])
    assert c == pytest.approx(2.0)
    assert rms == pytest.approx(1.0)


def test_fit_constant_shift_invariance():
    rng = np.random.default_rng(0)
    base = rng.normal(size=6)
    shape = rng.normal(size=6)
    obs = rng.normal(size=6)
    c1, r1 = fit_constant(base, shape, obs)
    c2, r2 = fit_constant(base + 5.0, shape, obs + 5.0)
    assert c1 == pytest.approx(c2, abs=1e-10)
    assert r1 == pytest.approx(r2, abs=1e-10)


def test_fit_constant_errors():
    with pytest.raises(ValueError):
        fit_constant([1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        fit_constant([1.0, 2.0], [1.0], [1.0, 2.0])


def test_slope_fit_basics():
    x = np.linspace(0.0, 3.0, 7)
    fit = slope_fit(x, 0.5 * x + 1.0)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert slope_fit(x, np.zeros_like(x)).slope == pytest.approx(0.0, abs=1e-12)
    two = slope_fit([0.0, 1.0], [0.0, 1.0])
    assert two.slope == pytest.approx(1.0)
    assert two.slope_se == 0.0


def test_slope_fit_errors():
    with pytest.raises(ValueError):
        slope_fit([0.0], [1.0])
    with pytest.raises(ValueError):
        slope_fit([0.0, 0.0], [1.0, 2.0])


def test_max_term_agreement_lognormal():
    # for exactly log-normal weights, the empirical mean of
    # log wbar_max + log N/(alpha-1) matches -B^2/2 - B * mean(min S) + same
    # log N term, because log wbar = -B^2/2 - B*S holds exactly
    b = 2.0
    n = 64
    alpha = 0.3
    s = standard_normal(make_stream(44, 0), (10_000, n))
    lrw = -0.5 * b * b - b * s
    lhs = lrw.max(axis=1) + math.log(n) / (alpha - 1.0)
    rhs = -0.5 * b * b - b * s.min(axis=1) + math.log(n) / (alpha - 1.0)
    se = lhs.std(ddof=1) / math.sqrt(lhs.size)
    assert abs(lhs.mean() - rhs.mean()) <= 3.0 * se + 1e-12
