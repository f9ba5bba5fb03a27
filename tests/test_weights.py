import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from vriwae import experiments
from vriwae.experiments import ExperimentSpec, run_weights_experiment
from vriwae.rng import make_stream, standard_normal
from vriwae.weights import (LogWeights, _logsumexp, ess, max_weight_share, qq_points,
                            relative_log_weights, t_statistic)


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
        lw = np.full(n, -3.0)
        for alpha in (0.0, 0.3, 0.9):
            assert t_statistic(lw, alpha) == pytest.approx(n - 1)


def test_t_statistic_hand_values():
    # relative weights (0.7, 0.2, 0.1): T(0) = 3/7, T(0.5) = (sqrt(.2)+sqrt(.1))/sqrt(.7)
    lw = np.log([0.7, 0.2, 0.1])
    assert t_statistic(lw, 0.0) == pytest.approx(3.0 / 7.0, abs=1e-12)
    expected = (math.sqrt(0.2) + math.sqrt(0.1)) / math.sqrt(0.7)
    assert t_statistic(lw, 0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.91249, abs=5e-6)


def test_t_statistic_alpha_domain():
    lw = np.array([0.0, 1.0])
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            t_statistic(lw, bad)


def test_t_statistic_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        lw = rng.uniform(-50, 50, n)
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
        np.testing.assert_allclose(t_statistic(v, alpha), ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(t_statistic(v.T, alpha, axis=0), ref, rtol=1e-13, atol=0.0)
    assert t_statistic(np.array([0.0, -40.0]), 0.0) == pytest.approx(
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
    assert max_weight_share(np.zeros(4)) == pytest.approx(0.25)


def test_max_weight_share_domination():
    v = np.zeros(10)
    v[3] = 100.0
    assert max_weight_share(v) == pytest.approx(1.0, abs=1e-10)


def test_max_weight_share_hand_value():
    lw = np.log([0.7, 0.2, 0.1])
    assert max_weight_share(lw) == pytest.approx(0.7, abs=1e-12)


def test_ess_uniform():
    assert ess(np.zeros(10)) == pytest.approx(10.0)


def test_ess_collapsed():
    v = np.zeros(8)
    v[0] = 200.0
    assert ess(v) == pytest.approx(1.0, abs=1e-8)


def test_ess_hand_value():
    lw = np.log([0.7, 0.2, 0.1])
    assert ess(lw) == pytest.approx(1.0 / 0.54, abs=1e-12)


def test_shift_invariance():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        v = rng.uniform(-50, 50, n)
        c = float(rng.uniform(-50, 50))
        a, b = v, v + c
        for alpha in (0.0, 0.5, 0.9):
            assert abs(t_statistic(a, alpha) - t_statistic(b, alpha)) < 1e-10
        assert abs(max_weight_share(a) - max_weight_share(b)) < 1e-10
        assert abs(ess(a) - ess(b)) < 1e-10


def test_share_t_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lw = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        assert abs(max_weight_share(lw) * (1.0 + t_statistic(lw, 0.0)) - 1.0) < 1e-10


def test_tie_permutation_invariance():
    # exact ties contribute ratio exactly 1 regardless of which is "the" max
    base = np.array([2.0, 2.0, -1.0, 0.5, 2.0])
    rng = np.random.default_rng(3)
    ref = t_statistic(base, 0.4)
    for _ in range(10):
        perm = rng.permutation(base.size)
        assert t_statistic(base[perm], 0.4) == pytest.approx(ref, abs=1e-12)


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


class _FixedLaw:
    """A model stub whose log-weight law returns fixed values."""

    TABLE_NAME = "toy"
    LAW_WORDS = 1

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def log_weight_law(self, u):
        assert u.shape == (self.values.size, 1)
        return self.values


def test_log_weight_moments(monkeypatch):
    # the weights runner reports the sample mean and the unbiased sample SD;
    # a constant sample has SD 0 and no QQ correlation
    for values, mean, std in (([0.0, 2.0], 1.0, math.sqrt(2.0)), ([4.2] * 5, 4.2, 0.0)):
        monkeypatch.setattr(experiments, "_variants",
                            lambda spec, d: [(None, _FixedLaw(values))])
        spec = ExperimentSpec(kind="weights", ds=(1,), weight_samples=len(values))
        row = run_weights_experiment(spec)[0]
        assert row["log_mean"] == pytest.approx(mean)
        assert row["log_std"] == pytest.approx(std, abs=0.0)
        assert (row["qq_corr"] is None) == (std == 0.0)


def test_log_weight_moments_toy_scaling():
    # toy model d=100, theta=0, phi=u: log wbar = -d/2 - sqrt(d) * S, std = 10
    spec = ExperimentSpec(kind="weights", model="toy", ds=(100,), weight_samples=1_000_000)
    row = run_weights_experiment(spec)[0]
    assert abs(row["log_std"] - 10.0) < 0.1
    assert abs(row["log_mean"] + 50.0) < 3.0 * 10.0 / 1000.0
