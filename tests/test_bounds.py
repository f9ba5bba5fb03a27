import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from vriwae import rng as vrng
from vriwae.bounds import bound_mc, decomposition_sample, gap_mc, vr_iwae_from_log_weights
from vriwae.experiments import make_linear_gaussian
from vriwae.models import GaussianToy, toy_analytics
from vriwae.rng import make_stream, uniform
from vriwae.weights import LogWeights


def lw(*values):
    return LogWeights(np.array(values, dtype=float), log_marginal=0.0)


def bound(batch: LogWeights, alpha: float) -> float:
    """The single-sample bound estimate of one batch; alpha = 1 is the ELBO."""
    return float(vr_iwae_from_log_weights(batch.values, alpha))


def test_constant_weights_any_alpha():
    for alpha in (0.0, 0.3, 0.7, 1.0):
        assert bound(lw(2.5, 2.5, 2.5), alpha) == pytest.approx(2.5, abs=1e-12)


def test_hand_values_two_weights():
    batch = lw(0.0, math.log(3.0))
    assert bound(batch, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # (1/(1-1/2)) log((1 + 3^(1/2))/2) = 2 log((1+sqrt 3)/2)
    assert bound(batch, 0.5) == pytest.approx(
        2.0 * math.log((1.0 + math.sqrt(3.0)) / 2.0), abs=1e-12)
    assert bound(batch, 1.0) == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
    assert 0.5 * math.log(3.0) == pytest.approx(0.549306, abs=1e-6)


def test_alpha_domain_and_empty():
    with pytest.raises(ValueError):
        bound(lw(0.0), -0.1)
    with pytest.raises(ValueError):
        bound(lw(0.0), 1.1)
    with pytest.raises(ValueError):
        vr_iwae_from_log_weights(np.empty((3, 0)), 0.0)


def test_vr_iwae_from_log_weights_matches_scipy():
    # scipy's logsumexp is the oracle of the bound's own kernel, along both axes
    x = 1e3 * np.random.default_rng(4).normal(size=(7, 33))
    n = x.shape[-1]
    for alpha in (0.0, 0.5, 1.0 - 1e-9, 1.0):
        if 1.0 - alpha < 1e-8:
            ref = x.mean(axis=-1)
        else:
            ref = (logsumexp((1.0 - alpha) * x, axis=-1) - math.log(n)) / (1.0 - alpha)
        np.testing.assert_allclose(vr_iwae_from_log_weights(x, alpha), ref, rtol=1e-13)
        np.testing.assert_allclose(vr_iwae_from_log_weights(np.ascontiguousarray(x.T), alpha,
                                                            axis=0), ref, rtol=1e-13)


def test_elbo_sample():
    assert bound(lw(4.0), 1.0) == 4.0
    assert bound(lw(0.0, math.log(3.0)), 1.0) == pytest.approx(0.549306, abs=1e-6)


def test_elbo_limit_continuity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        batch = LogWeights(rng.uniform(-50, 50, int(rng.integers(1, 40))))
        assert bound(batch, 1.0 - 1e-9) == pytest.approx(bound(batch, 1.0), abs=1e-6)


def test_iwae_recovery():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        expected = logsumexp(v) - math.log(v.size)
        assert bound(LogWeights(v), 0.0) == pytest.approx(expected, abs=1e-12)


def test_alpha_monotonicity():
    # larger alpha gives a smaller per-sample value; ELBO is the floor
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.uniform(-50, 50, int(rng.integers(2, 40)))
        batch = LogWeights(v)
        values = [bound(batch, a) for a in np.linspace(0.0, 0.9, 10)]
        assert all(hi >= lo - 1e-10 for hi, lo in zip(values, values[1:]))
        assert bound(batch, 1.0) <= values[-1] + 1e-10


def test_monotonicity_equality_iff_constant():
    batch = lw(1.0, 1.0, 1.0)
    assert bound(batch, 0.2) == pytest.approx(bound(batch, 0.8), abs=1e-12)
    batch2 = lw(0.0, 1.0)
    assert bound(batch2, 0.2) > bound(batch2, 0.8)


def test_high_dimensional_stability():
    # weights spanning hundreds of nats must not overflow
    v = np.array([-800.0, 0.0, 700.0])
    assert bound(LogWeights(v), 0.5) == pytest.approx(
        2.0 * (logsumexp(0.5 * v) - math.log(3.0)), abs=1e-9)


def test_decomposition_uniform():
    dm, rt, t = decomposition_sample(lw(0.0, 0.0, 0.0, 0.0), 0.0)
    assert dm == pytest.approx(-math.log(4.0), abs=1e-12)
    assert rt == pytest.approx(math.log(4.0), abs=1e-12)
    assert t == pytest.approx(3.0, abs=1e-12)


def test_decomposition_identity_and_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        batch = LogWeights(rng.uniform(-50, 50, int(rng.integers(1, 40))), log_marginal=0.0)
        for alpha in (0.0, 0.3, 0.9):
            dm, rt, t = decomposition_sample(batch, alpha)
            assert dm + rt == pytest.approx(bound(batch, alpha), abs=1e-10)
            assert 0.0 <= rt <= t / (1.0 - alpha) + 1e-12


def test_decomposition_alpha_domain():
    with pytest.raises(ValueError):
        decomposition_sample(lw(0.0), 1.0)


def test_bound_mc_constant_weights():
    model = GaussianToy(d=3, theta=np.ones(3), phi=np.ones(3))
    est = bound_mc(model, 0.0, 4, 100, make_stream(0, 0))
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_bound_mc_elbo_gap_value():
    # toy d=1, B=1, alpha=0, N=1: mean gap is the ELBO gap -B^2/2 = -0.5
    model = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    est = bound_mc(model, 0.0, 1, 100_000, make_stream(1, 0))
    assert abs(est.mean + 0.5) < 3.0 * est.std_error


def test_bound_mc_se_scaling():
    model = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    small = bound_mc(model, 0.0, 4, 500, make_stream(2, 0))
    large = bound_mc(model, 0.0, 4, 5000, make_stream(2, 0))
    ratio = small.std_error / large.std_error
    assert 0.7 * math.sqrt(10.0) < ratio < 1.3 * math.sqrt(10.0)


def test_gap_mc_zero_for_matched_params():
    model = GaussianToy(d=5, theta=np.ones(5), phi=np.ones(5))
    est = gap_mc(model, 0.3, 8, 50, make_stream(3, 0))
    assert est.mean == 0.0


def test_gap_mc_one_over_n_prediction():
    # toy d=10 (B^2=10), alpha=0.5, N=1024: gap ~ -2.5 - gamma2/(2*1024)
    model = GaussianToy(d=10, theta=np.zeros(10), phi=np.ones(10))
    vr_gap, gamma2 = toy_analytics(0.5, 10.0)
    assert vr_gap == -2.5
    assert gamma2 == pytest.approx(2.0 * (math.exp(2.5) - 1.0), abs=1e-9)
    predicted = vr_gap - gamma2 / (2.0 * 1024.0)
    assert predicted == pytest.approx(-2.5109, abs=2e-4)
    est = gap_mc(model, 0.5, 1024, 100_000, make_stream(4, 0))
    assert abs(est.mean - predicted) < 3.0 * est.std_error


def test_gap_statistically_nonpositive():
    model = GaussianToy(d=4, theta=np.zeros(4), phi=0.5 * np.ones(4))
    for alpha in (0.0, 0.5):
        est = gap_mc(model, alpha, 16, 2000, make_stream(5, 0))
        assert est.mean - 3.0 * est.std_error < 0.0


def test_statistical_monotonicity_in_n():
    # nested batches share draws: bound at N=8 dominates bound at N=4 on average
    model = GaussianToy(d=3, theta=np.zeros(3), phi=np.ones(3))
    from vriwae.rng import standard_normal
    stream = make_stream(6, 0)
    eps = standard_normal(stream, (4000, 8, 3))
    lrw = model.log_relative_weight(model.reparam(eps))
    small = vr_iwae_from_log_weights(lrw[:, :4], 0.3, axis=-1)
    big = vr_iwae_from_log_weights(lrw, 0.3, axis=-1)
    diff = big - small
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert diff.mean() > -3.0 * se


# --------------------------------------------------------------------------
# batched bound_mc / gap_mc against the per-replicate loop
# --------------------------------------------------------------------------

_ORACLE_MODELS = {"toy": GaussianToy(d=3, theta=np.zeros(3), phi=0.4 * np.ones(3)),
                  "lingauss": make_linear_gaussian(3, 0.3, seed=2)[0]}
_ORACLE_REPLICATES = 60


def _per_replicate_oracle(model, alpha, n, stream, relative):
    """Mean and SE of the bound samples, one replicate at a time: replicate r
    maps block r of uniform(stream at the key of `stream`, (R, N, k)) through
    the law and reduces with scipy's logsumexp."""
    shift = 0.0 if relative else model.log_marginal()
    words = uniform(make_stream(stream.seed, stream.stream_id),
                    (_ORACLE_REPLICATES, n, model.LAW_WORDS))
    samples = []
    for r in range(_ORACLE_REPLICATES):
        v = model.log_weight_law(words[r]) + shift
        samples.append((logsumexp((1.0 - alpha) * v) - math.log(n)) / (1.0 - alpha))
    samples = np.array(samples)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


@settings(max_examples=12, deadline=None)
@given(target=st.integers(min_value=1, max_value=400))
def test_batched_mc_matches_per_replicate_oracle(target):
    for name, model in _ORACLE_MODELS.items():
        for n in (1, 16):
            for fn, relative in ((bound_mc, False), (gap_mc, True)):
                stream = make_stream(8, 1000)
                with mock.patch.object(vrng, "_CHUNK_TARGET", target):
                    est = fn(model, 0.5, n, _ORACLE_REPLICATES, stream)
                unchunked = fn(model, 0.5, n, _ORACLE_REPLICATES, stream)
                mean, se = _per_replicate_oracle(model, 0.5, n, stream, relative)
                assert est.mean == pytest.approx(mean, rel=1e-12, abs=1e-12), (name, n, fn)
                assert est.std_error == pytest.approx(se, rel=1e-12), (name, n, fn)
                assert (est.mean, est.std_error) == (unchunked.mean, unchunked.std_error)
