import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from vriwae import rng as vrng
from vriwae.bounds import _law_samples, _split, gap_mc, vr_iwae_from_log_weights
from vriwae.experiments import make_linear_gaussian
from vriwae.models import GaussianToy, closed_forms
from vriwae.rng import make_stream, uniform


def lw(*values):
    return np.array(values, dtype=float)


def bound(batch: np.ndarray, alpha: float) -> float:
    """The single-sample bound estimate of one batch; alpha = 1 is the ELBO."""
    return float(vr_iwae_from_log_weights(batch, alpha))


def split(batch: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """(delta_max, r_term, T) of one batch at one alpha below 1, as the gap
    runner's `_split` gives them."""
    delta_max, (r_term,), (t,) = _split(batch, [1.0 - alpha], -1)
    return float(delta_max), float(r_term), float(t)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), n=st.integers(1, 300),
       offset=st.floats(-1e8, 1e8), scale=st.sampled_from([1e-3, 1.0, 30.0, 300.0]),
       axis=st.sampled_from([0, -1]))
def test_iwae_bound_matches_scipy_logsumexp(seed, rows, n, offset, scale, axis):
    # at alpha = 0 the bound is logsumexp - log N: scipy is the oracle of the
    # one kernel's max shift and tail sum, along both axes
    x = offset + scale * np.random.default_rng(seed).normal(size=(rows, n))
    if axis == 0:
        x = np.ascontiguousarray(x.T)
    np.testing.assert_allclose(vr_iwae_from_log_weights(x, 0.0, axis),
                               logsumexp(x, axis=axis) - math.log(n), rtol=1e-13, atol=1e-13)


def test_iwae_bound_edge_rows():
    # rows of only -inf, +inf, NaN, one finite weight, and tied maxima (+inf
    # twice, a finite pair) read as scipy's logsumexp - log N does
    inf, nan = math.inf, math.nan
    x = np.array([[-inf, -inf, -inf], [0.0, inf, 1.0], [1.0, nan, 2.0], [-inf, 3.0, -inf],
                  [-inf, inf, 0.0], [inf, inf, 0.0]])
    got = vr_iwae_from_log_weights(x, 0.0)
    np.testing.assert_array_equal(got, [-inf, inf, nan, 3.0 - math.log(3), inf, inf])
    np.testing.assert_array_equal(got, logsumexp(x, axis=-1) - math.log(3))
    np.testing.assert_array_equal(vr_iwae_from_log_weights(np.ascontiguousarray(x.T), 0.0, 0),
                                  got)
    assert vr_iwae_from_log_weights(np.array([-2.5]), 0.0) == -2.5
    tied = np.array([2.0, -1.0, 2.0, 0.5])
    assert vr_iwae_from_log_weights(tied, 0.0) == pytest.approx(
        logsumexp(tied) - math.log(4), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 300.0]), alpha=st.floats(0.0, 0.999999))
def test_bound_is_its_split_bit_for_bit(seed, n, scale, alpha):
    # the bound is evaluated as the paper's split of a gap sample: the
    # dominant weight's term plus the remainder, exactly
    batch = scale * np.random.default_rng(seed).normal(size=n)
    delta_max, r_term, _ = split(batch, alpha)
    assert bound(batch, alpha) == delta_max + r_term


_ALPHA_SEQ = (0.0, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0)


def _scipy_bound(x, alpha, axis):
    n = x.shape[axis]
    if 1.0 - alpha < 1e-8:
        return x.mean(axis=axis)
    with np.errstate(invalid="ignore"):
        return (logsumexp((1.0 - alpha) * x, axis=axis) - math.log(n)) / (1.0 - alpha)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_alpha_sequence_is_the_per_alpha_bound(n):
    # one row shift serves every alpha: the sequence form stacks the per-alpha
    # calls on a new last axis, bit for bit, and scipy is their oracle on rows
    # with distinct maxima, +inf, only -inf, NaN and tied maxima, along both
    # axes; neither form writes to its input
    rng = np.random.default_rng(7)
    rows = [200.0 * rng.normal(size=n) + 1e3 * k for k in range(-3, 4)]
    rows += [np.full(n, v) for v in (np.inf, -np.inf, np.nan, 3.25)]
    if n > 1:
        rows += [np.r_[np.inf, np.zeros(n - 1)], np.r_[np.nan, np.ones(n - 1)],
                 np.r_[5.0, 5.0, np.zeros(n - 2)], np.r_[-np.inf, rng.normal(size=n - 1)]]
    x = np.array(rows)
    for arr, axis in ((x, -1), (np.ascontiguousarray(x.T), 0)):
        before = arr.copy()
        seq = vr_iwae_from_log_weights(arr, _ALPHA_SEQ, axis=axis)
        assert seq.shape == (len(rows), len(_ALPHA_SEQ))
        for i, alpha in enumerate(_ALPHA_SEQ):
            one = vr_iwae_from_log_weights(arr, alpha, axis=axis)
            np.testing.assert_array_equal(seq[:, i], one)
            np.testing.assert_allclose(one, _scipy_bound(arr, alpha, axis), rtol=1e-13)
        np.testing.assert_array_equal(arr, before)
    np.testing.assert_array_equal(vr_iwae_from_log_weights(x[0], [0.5]),
                                  [vr_iwae_from_log_weights(x[0], 0.5)])
    with pytest.raises(ValueError):
        vr_iwae_from_log_weights(x, [0.0, 1.5])
    with pytest.raises(ValueError):
        vr_iwae_from_log_weights(x, [[0.0, 0.5]])


def test_elbo_sample():
    assert bound(lw(4.0), 1.0) == 4.0
    assert bound(lw(0.0, math.log(3.0)), 1.0) == pytest.approx(0.549306, abs=1e-6)


def test_elbo_limit_continuity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        batch = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        assert bound(batch, 1.0 - 1e-9) == pytest.approx(bound(batch, 1.0), abs=1e-6)


def test_iwae_recovery():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        expected = logsumexp(v) - math.log(v.size)
        assert bound(v, 0.0) == pytest.approx(expected, abs=1e-12)


def test_alpha_monotonicity():
    # larger alpha gives a smaller per-sample value; ELBO is the floor
    rng = np.random.default_rng(2)
    for _ in range(100):
        batch = rng.uniform(-50, 50, int(rng.integers(2, 40)))
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
    assert bound(v, 0.5) == pytest.approx(
        2.0 * (logsumexp(0.5 * v) - math.log(3.0)), abs=1e-9)


def test_decomposition_uniform():
    dm, rt, t = split(lw(0.0, 0.0, 0.0, 0.0), 0.0)
    assert dm == pytest.approx(-math.log(4.0), abs=1e-12)
    assert rt == pytest.approx(math.log(4.0), abs=1e-12)
    assert t == pytest.approx(3.0, abs=1e-12)


def test_decomposition_identity_and_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        batch = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        for alpha in (0.0, 0.3, 0.9):
            dm, rt, t = split(batch, alpha)
            assert dm + rt == pytest.approx(bound(batch, alpha), abs=1e-10)
            assert 0.0 <= rt <= t / (1.0 - alpha) + 1e-12


# a bound is the gap's mean plus the model's log marginal (0 for the toy)

def test_bound_mc_constant_weights():
    model = GaussianToy(d=3, theta=np.ones(3), phi=np.ones(3))
    est = gap_mc(model, 0.0, 4, 100, make_stream(0, 0))
    assert est.mean + model.log_marginal() == 0.0
    assert est.std_error == 0.0


def test_bound_mc_elbo_gap_value():
    # toy d=1, B=1, alpha=0, N=1: mean gap is the ELBO gap -B^2/2 = -0.5
    model = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    est = gap_mc(model, 0.0, 1, 100_000, make_stream(1, 0))
    assert abs(est.mean + model.log_marginal() + 0.5) < 3.0 * est.std_error


def test_bound_mc_se_scaling():
    model = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    small = gap_mc(model, 0.0, 4, 500, make_stream(2, 0))
    large = gap_mc(model, 0.0, 4, 5000, make_stream(2, 0))
    ratio = small.std_error / large.std_error
    assert 0.7 * math.sqrt(10.0) < ratio < 1.3 * math.sqrt(10.0)


def test_gap_mc_zero_for_matched_params():
    model = GaussianToy(d=5, theta=np.ones(5), phi=np.ones(5))
    est = gap_mc(model, 0.3, 8, 50, make_stream(3, 0))
    assert est.mean == 0.0


def test_gap_mc_one_over_n_prediction():
    # toy d=10 (B^2=10), alpha=0.5, N=1024: gap ~ -2.5 - gamma2/(2*1024)
    model = GaussianToy(d=10, theta=np.zeros(10), phi=np.ones(10))
    vr_gap, gamma2, *_ = closed_forms(model, 0.5)
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
# batched gap_mc, and the bound from it, against the per-replicate loop
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
        s = model.law_scalars()
        v = model.law_log_weights(model.law_variates(words[r], s), s) + shift
        samples.append((logsumexp((1.0 - alpha) * v) - math.log(n)) / (1.0 - alpha))
    samples = np.array(samples)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)


@settings(max_examples=12, deadline=None)
@given(target=st.integers(min_value=1, max_value=400))
def test_batched_mc_matches_per_replicate_oracle(target):
    for name, model in _ORACLE_MODELS.items():
        for n in (1, 16):
            stream = make_stream(8, 1000)
            with mock.patch.object(vrng, "_CHUNK_TARGET", target):
                est = gap_mc(model, 0.5, n, _ORACLE_REPLICATES, stream)
            unchunked = gap_mc(model, 0.5, n, _ORACLE_REPLICATES, stream)
            assert (est.mean, est.std_error) == (unchunked.mean, unchunked.std_error)
            for relative, shift in ((False, model.log_marginal()), (True, 0.0)):
                mean, se = _per_replicate_oracle(model, 0.5, n, stream, relative)
                assert est.mean + shift == pytest.approx(mean, rel=1e-12, abs=1e-12), (name, n)
                assert est.std_error == pytest.approx(se, rel=1e-12), (name, n, relative)


# --------------------------------------------------------------------------
# the variants of one d share their law variates
# --------------------------------------------------------------------------

# two variants per model, which differ in B or delta but share d
_VARIANTS = {"toy": [GaussianToy(d=4, theta=np.zeros(4), phi=p * np.ones(4)) for p in (0.2, 0.7)],
             "lingauss": [make_linear_gaussian(4, sp, seed=2)[0] for sp in (0.0, 0.3)]}
_CELLS = [(77, 3), (78, 16)]


@pytest.mark.parametrize("target", [1, 40, 2**16])
@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_law_samples_give_each_variant_its_own_law(name, target):
    # one set of variates per chunk, mapped through each variant into one
    # block (or over Z, for a variant drawn alone), is each variant's
    # law_log_weights of law_variates of the cell's uniforms, bit for bit
    models = _VARIANTS[name]
    k = models[0].LAW_WORDS
    with mock.patch.object(vrng, "_CHUNK_TARGET", target):
        got = _law_samples(models[0], [m.law_scalars() for m in models], 9, _CELLS, 25,
                           lambda lrw: np.moveaxis(lrw, 0, 1))
        alone = [_law_samples(m, [m.law_scalars()], 9, _CELLS, 25, lambda lrw: lrw[0])
                 for m in models]
    for c, ((stream_id, n), cell) in enumerate(zip(_CELLS, got)):
        u = uniform(make_stream(9, stream_id), (25, n, k))
        for v, model in enumerate(models):
            s = model.law_scalars()
            want = model.law_log_weights(model.law_variates(u, s), s)
            assert np.array_equal(cell[:, v], want), (stream_id, v)
            assert np.array_equal(alone[v][c], want), (stream_id, v)


@pytest.mark.parametrize("variants", [1, 2, 3])
def test_law_samples_draw_chi2_once_per_chunk(monkeypatch, variants):
    # a chi^2 draw reads 3 words and runs a gamma sampler: the sigma variants
    # of one d share it, so it runs once per chunk whatever their number
    calls = []
    real = vrng.chi_square

    def counted(u, k):
        calls.append(u[..., 0].size)
        return real(u, k)

    monkeypatch.setattr(vrng, "chi_square", counted)
    monkeypatch.setattr(vrng, "_WORKERS", 1)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 128)
    models = [make_linear_gaussian(5, sp, seed=2)[0] for sp in (0.0, 0.1, 0.3)[:variants]]
    _law_samples(models[0], [m.law_scalars() for m in models], 3, [(5, 8)], 40,
                 lambda lrw: lrw[0, :, 0])
    chunks = list(vrng._replicate_chunks(40, 8 * models[0].LAW_WORDS))
    assert len(chunks) == 10
    assert calls == [(stop - start) * 8 for start, stop in chunks]
