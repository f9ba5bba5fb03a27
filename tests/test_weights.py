import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from vriwae.rng import make_stream, standard_normal
from vriwae.weights import (LogWeights, _logsumexp, _t_stat, ess, log_weight_moments,
                            max_weight_share, qq_points, relative_log_weights, t_statistic)


def test_container_validation():
    with pytest.raises(ValueError):
        LogWeights(np.array([]))
    with pytest.raises(ValueError):
        LogWeights(np.array([0.0, np.inf]))


def test_relative_log_weights_shift():
    lw = LogWeights(np.array([1.0, 2.0]), log_marginal=1.0)
    assert np.allclose(relative_log_weights(lw), [0.0, 1.0])


def test_relative_log_weights_constant():
    lw = LogWeights(np.full(5, 3.7), log_marginal=3.7)
    assert np.allclose(relative_log_weights(lw), 0.0)


def test_relative_log_weights_requires_marginal():
    with pytest.raises(ValueError):
        relative_log_weights(LogWeights(np.array([0.0])))


def test_t_statistic_equal_weights():
    for n in (1, 2, 7):
        lw = LogWeights(np.full(n, -3.0))
        for alpha in (0.0, 0.3, 0.9):
            assert t_statistic(lw, alpha) == pytest.approx(n - 1)


def test_t_statistic_hand_values():
    # relative weights (0.7, 0.2, 0.1): T(0) = 3/7, T(0.5) = (sqrt(.2)+sqrt(.1))/sqrt(.7)
    lw = LogWeights(np.log([0.7, 0.2, 0.1]))
    assert t_statistic(lw, 0.0) == pytest.approx(3.0 / 7.0, abs=1e-12)
    expected = (math.sqrt(0.2) + math.sqrt(0.1)) / math.sqrt(0.7)
    assert t_statistic(lw, 0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.91249, abs=5e-6)


def test_t_statistic_alpha_domain():
    lw = LogWeights(np.array([0.0, 1.0]))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            t_statistic(lw, bad)


def test_t_statistic_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        lw = LogWeights(rng.uniform(-50, 50, n))
        t = t_statistic(lw, float(rng.uniform(0, 0.99)))
        assert 0.0 <= t <= n - 1 + 1e-12


def test_t_kernel_matches_loop_for_tiny_t():
    # the argmax term is left out of the sum, not subtracted from it: a T of
    # exp(-40) keeps full relative precision.  The per-batch loop over
    # np.delete is the reference
    rng = np.random.default_rng(3)
    v = 30.0 * rng.normal(size=(200, 16))
    v[:, 5] = v.max(axis=1) + rng.uniform(30.0, 45.0, size=200)
    for alpha in (0.0, 0.5):
        ref = np.array([np.sum(np.exp((1.0 - alpha) * (np.delete(row, np.argmax(row)) - row.max())))
                        for row in v])
        assert ref.min() < 1e-12
        np.testing.assert_allclose(_t_stat(v, alpha), ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(_t_stat(v.T, alpha, axis=0), ref, rtol=1e-13, atol=0.0)
    assert t_statistic(LogWeights(np.array([0.0, -40.0])), 0.0) == pytest.approx(
        math.exp(-40.0), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), n=st.integers(1, 300),
       offset=st.floats(-1e8, 1e8), scale=st.sampled_from([1e-3, 1.0, 30.0, 300.0]),
       axis=st.sampled_from([0, -1]))
def test_logsumexp_kernel_matches_scipy(seed, rows, n, offset, scale, axis):
    x = offset + scale * np.random.default_rng(seed).normal(size=(rows, n))
    if axis == 0:
        x = np.ascontiguousarray(x.T)
    np.testing.assert_allclose(_logsumexp(x, axis), logsumexp(x, axis=axis),
                               rtol=1e-13, atol=1e-13)


def test_logsumexp_kernel_edge_rows():
    inf, nan = math.inf, math.nan
    x = np.array([[-inf, -inf, -inf], [0.0, inf, 1.0], [1.0, nan, 2.0], [-inf, 3.0, -inf],
                  [-inf, inf, 0.0]])
    got = _logsumexp(x, -1)
    np.testing.assert_array_equal(got, [-inf, inf, nan, 3.0, inf])
    np.testing.assert_array_equal(got, logsumexp(x, axis=-1))
    np.testing.assert_array_equal(_logsumexp(np.ascontiguousarray(x.T), 0), got)
    assert _logsumexp(np.array([-2.5]), -1) == -2.5


def test_max_weight_share_uniform():
    assert max_weight_share(LogWeights(np.zeros(4))) == pytest.approx(0.25)


def test_max_weight_share_domination():
    v = np.zeros(10)
    v[3] = 100.0
    assert max_weight_share(LogWeights(v)) == pytest.approx(1.0, abs=1e-10)


def test_max_weight_share_hand_value():
    lw = LogWeights(np.log([0.7, 0.2, 0.1]))
    assert max_weight_share(lw) == pytest.approx(0.7, abs=1e-12)


def test_ess_uniform():
    assert ess(LogWeights(np.zeros(10))) == pytest.approx(10.0)


def test_ess_collapsed():
    v = np.zeros(8)
    v[0] = 200.0
    assert ess(LogWeights(v)) == pytest.approx(1.0, abs=1e-8)


def test_ess_hand_value():
    lw = LogWeights(np.log([0.7, 0.2, 0.1]))
    assert ess(lw) == pytest.approx(1.0 / 0.54, abs=1e-12)


def test_shift_invariance():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        v = rng.uniform(-50, 50, n)
        c = float(rng.uniform(-50, 50))
        a, b = LogWeights(v), LogWeights(v + c)
        for alpha in (0.0, 0.5, 0.9):
            assert abs(t_statistic(a, alpha) - t_statistic(b, alpha)) < 1e-10
        assert abs(max_weight_share(a) - max_weight_share(b)) < 1e-10
        assert abs(ess(a) - ess(b)) < 1e-10


def test_share_t_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lw = LogWeights(rng.uniform(-50, 50, int(rng.integers(1, 40))))
        assert abs(max_weight_share(lw) * (1.0 + t_statistic(lw, 0.0)) - 1.0) < 1e-10


def test_tie_permutation_invariance():
    # exact ties contribute ratio exactly 1 regardless of which is "the" max
    base = np.array([2.0, 2.0, -1.0, 0.5, 2.0])
    rng = np.random.default_rng(3)
    ref = t_statistic(LogWeights(base), 0.4)
    for _ in range(10):
        perm = rng.permutation(base.size)
        assert t_statistic(LogWeights(base[perm]), 0.4) == pytest.approx(ref, abs=1e-12)


def test_qq_exact_normal_scores():
    from scipy.special import ndtri
    n = 101
    sample = ndtri((np.arange(1, n + 1) - 0.5) / n)
    res = qq_points(sample)
    assert res.correlation == pytest.approx(1.0, abs=1e-12)


def test_qq_normal_sample_high_correlation():
    x = standard_normal(make_stream(2, 0), 100_000)
    assert qq_points(x).correlation > 0.999


def test_qq_lognormal_sample_low_correlation():
    x = np.exp(standard_normal(make_stream(2, 1), 100_000))
    assert qq_points(x).correlation < 0.95


def test_qq_errors():
    with pytest.raises(ValueError):
        qq_points(np.array([1.0]))
    with pytest.raises(ValueError):
        qq_points(np.full(10, 2.0))


def test_log_weight_moments():
    mean, std = log_weight_moments(np.array([0.0, 2.0]))
    assert mean == pytest.approx(1.0)
    assert std == pytest.approx(math.sqrt(2.0))
    mean, std = log_weight_moments(np.full(5, 4.2))
    assert (mean, std) == (pytest.approx(4.2), 0.0)


def test_log_weight_moments_toy_scaling():
    # toy model d=100, theta=0, phi=u: log wbar = -d/2 - sqrt(d) * S, std = 10
    from vriwae.models import GaussianToy
    d = 100
    model = GaussianToy(d=d, theta=np.zeros(d), phi=np.ones(d))
    eps = standard_normal(make_stream(5, 9), (1_000_000, d))
    lrw = model.log_relative_weight(model.reparam(eps))
    mean, std = log_weight_moments(lrw)
    assert abs(std - 10.0) < 0.1
    assert abs(mean + 50.0) < 3.0 * 10.0 / 1000.0
