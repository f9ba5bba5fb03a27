import math

import numpy as np
import pytest
from scipy.special import logsumexp

from vriwae import experiments
from vriwae.experiments import ExperimentSpec, run_weights_experiment
from vriwae.rng import make_stream, standard_normal
from vriwae.weights import _Unrepresentable, _diagnostics, _mean_se, _tail_sums, qq_points

# the columns of `_diagnostics`, the collapse runner's one call for all three
T, SHARE, ESS = range(3)


def _gathered_tail_sums(x, betas, axis):
    """The kernel's sums by a sparse `np.indices` gather and scatter of the
    maxima, with one array per beta, stacked."""
    at_max = [*np.indices(x.shape, sparse=True)]
    at_max[axis] = np.argmax(x, axis=axis, keepdims=True)
    m = x[tuple(at_max)]
    e = np.subtract(x, np.where(np.isfinite(m), m, 0.0))
    t = []
    for b in betas:
        buf = np.exp(e * b if b != 1.0 else e)
        buf[tuple(at_max)] = 0.0
        t.append(np.sum(buf, axis=axis))
    return np.squeeze(m, axis), np.stack(t)


@pytest.mark.parametrize("shape", [(7,), (16, 100), (4, 1), (3, 40, 64), (2, 0, 5)])
def test_tail_sums_match_the_gather(shape):
    # the flat index gives the sums of the sparse gather bit for bit, on rows
    # with ties, -inf, +inf and NaN too; a batch of any other axis or layout,
    # moved to the last axis, is summed as its C-order copy
    x = np.random.default_rng(4).normal(scale=20.0, size=shape)
    if x.ndim > 1 and x.shape[-2] > 3 and x.shape[-1] > 3:
        rows = x.reshape(-1, x.shape[-1])
        rows[0, 2] = rows[0, 3] = rows[0].max() + 1.0
        rows[1] = -np.inf
        rows[2, 1], rows[3, 0] = np.inf, np.nan
    betas = [1.0, 0.8, 0.3, 2.0]
    with np.errstate(invalid="ignore"):
        for y, axis in [(x, -1), (x, x.ndim - 1), (np.asfortranarray(x), -1),
                        *[(x, a) for a in range(x.ndim - 1) if x.shape[a]]]:
            m, t = _tail_sums(np.moveaxis(y, axis, -1), betas)
            want_m, want_t = _gathered_tail_sums(np.ascontiguousarray(np.moveaxis(y, axis, -1)),
                                                 betas, -1)
            assert m.tobytes() == want_m.tobytes() and t.tobytes() == want_t.tobytes()
            assert t.shape == (len(betas), *want_m.shape)


def test_t_statistic_equal_weights():
    for n in (1, 2, 7):
        lw = np.full(n, -3.0)
        for alpha in (0.0, 0.3, 0.9):
            assert _diagnostics(lw, [alpha])[0, T] == pytest.approx(n - 1)


def test_t_statistic_hand_values():
    # relative weights (0.7, 0.2, 0.1): T(0) = 3/7, T(0.5) = (sqrt(.2)+sqrt(.1))/sqrt(.7)
    lw = np.log([0.7, 0.2, 0.1])
    assert _diagnostics(lw, [0.0])[0, T] == pytest.approx(3.0 / 7.0, abs=1e-12)
    expected = (math.sqrt(0.2) + math.sqrt(0.1)) / math.sqrt(0.7)
    assert _diagnostics(lw, [0.5])[0, T] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.91249, abs=5e-6)


def test_t_statistic_alpha_domain():
    lw = np.array([0.0, 1.0])
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            _diagnostics(lw, [bad])


def test_t_statistic_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        lw = rng.uniform(-50, 50, n)
        t = _diagnostics(lw, [float(rng.uniform(0, 0.99))])[0, T]
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
        np.testing.assert_allclose(_diagnostics(v, [alpha])[:, 0, T], ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(_diagnostics(np.asfortranarray(v), [alpha])[:, 0, T], ref,
                                   rtol=1e-13, atol=0.0)
    assert _diagnostics(np.array([0.0, -40.0]), [0.0])[0, T] == pytest.approx(
        math.exp(-40.0), rel=1e-15)


def test_max_weight_share_uniform():
    assert _diagnostics(np.zeros(4), [0.0])[0, SHARE] == pytest.approx(0.25)


def test_max_weight_share_domination():
    v = np.zeros(10)
    v[3] = 100.0
    assert _diagnostics(v, [0.0])[0, SHARE] == pytest.approx(1.0, abs=1e-10)


def test_max_weight_share_hand_value():
    lw = np.log([0.7, 0.2, 0.1])
    assert _diagnostics(lw, [0.0])[0, SHARE] == pytest.approx(0.7, abs=1e-12)


def test_ess_uniform():
    assert _diagnostics(np.zeros(10), [0.0])[0, ESS] == pytest.approx(10.0)


def test_ess_collapsed():
    v = np.zeros(8)
    v[0] = 200.0
    assert _diagnostics(v, [0.0])[0, ESS] == pytest.approx(1.0, abs=1e-8)


def test_ess_hand_value():
    lw = np.log([0.7, 0.2, 0.1])
    assert _diagnostics(lw, [0.0])[0, ESS] == pytest.approx(1.0 / 0.54, abs=1e-12)


def test_shift_invariance():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        v = rng.uniform(-50, 50, n)
        c = float(rng.uniform(-50, 50))
        a, b = _diagnostics(v, [0.0, 0.5, 0.9]), _diagnostics(v + c, [0.0, 0.5, 0.9])
        for k in range(3):
            assert abs(a[k, T] - b[k, T]) < 1e-10
        assert abs(a[0, SHARE] - b[0, SHARE]) < 1e-10
        assert abs(a[0, ESS] - b[0, ESS]) < 1e-10


def test_share_t_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lw = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        t, share, _ = _diagnostics(lw, [0.0])[0]
        assert abs(share * (1.0 + t) - 1.0) < 1e-10


def test_tie_permutation_invariance():
    # exact ties contribute ratio exactly 1 regardless of which is "the" max
    base = np.array([2.0, 2.0, -1.0, 0.5, 2.0])
    rng = np.random.default_rng(3)
    ref = _diagnostics(base, [0.4])[0, T]
    for _ in range(10):
        perm = rng.permutation(base.size)
        assert _diagnostics(base[perm], [0.4])[0, T] == pytest.approx(ref, abs=1e-12)


def test_diagnostics_nan_where_the_max_is_not_finite():
    # rows holding +inf, rows of only -inf and rows holding NaN anywhere read
    # NaN in all three columns at every alpha, in either layout; a finite
    # row in the same batch that holds a -inf entry reads the plain
    # definitions: T over the batch with its argmax deleted, the max share
    # and the ESS by scipy's logsumexp
    alphas = [0.0, 0.3, 0.9]
    finite = np.array([0.5, -np.inf, 2.0, -1.0])
    x = np.array([[1.0, np.inf, 0.0, -2.0], [np.inf] * 4, [-np.inf] * 4,
                  [np.nan, 1.0, 2.0, 3.0], [1.0, 2.0, np.nan, -np.inf],
                  [-np.inf, np.nan, -np.inf, -np.inf], finite])
    kept = np.delete(finite, np.argmax(finite))
    share = np.exp(finite.max() - logsumexp(finite))
    ess = np.exp(2.0 * logsumexp(finite) - logsumexp(2.0 * finite))
    with np.errstate(invalid="ignore"):
        for arr in (x, np.asfortranarray(x)):
            d = _diagnostics(arr, alphas)
            assert d.shape == (len(x), len(alphas), 3)
            assert np.isnan(d[:-1]).all()
            for k, alpha in enumerate(alphas):
                t = np.sum(np.exp((1.0 - alpha) * (kept - finite.max())))
                assert d[-1, k, T] == pytest.approx(t, rel=1e-14)
                assert d[-1, k, SHARE] == pytest.approx(share, rel=1e-14)
                assert d[-1, k, ESS] == pytest.approx(ess, rel=1e-14)


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
    """A model stub whose log-weight law returns fixed values: the weights
    runner draws its sample as one law-grid cell of N = 1, so the uniforms
    of its one chunk come as (samples, 1, 1, LAW_WORDS), and the c and
    ||v||^2 of its one state as (1, 1) columns."""

    TABLE_NAME = "toy"
    LAW_WORDS = 1
    SCALARS = (-1.5, 4.0, 0.0, 1)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def law_scalars(self):
        return self.SCALARS

    def _check(self, scalars):
        c, v2, *rest = scalars
        assert c.shape == v2.shape == (1, 1) and (c[0, 0], v2[0, 0], *rest) == self.SCALARS

    def law_variates(self, u, scalars):
        assert u.shape == (self.values.size, 1, 1, 1)
        self._check(scalars)
        return (self.values[:, None, None].copy(),)

    def law_log_weights(self, variates, scalars, out):
        self._check(scalars)
        out[...] = variates[0]
        return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_se_refuses_a_sample_whose_moments_overflow():
    # finite samples whose sum, or whose summed squares, overflow would read
    # an inf mean or SE: the reducer refuses them as an invalid spec
    for values in ([1e308, 1e308], [1e308, -1e308]):
        with pytest.raises(_Unrepresentable, match=r"^the mean or SE of 2 samples overflows$"):
            _mean_se(np.array(values))
    # a sample whose sum and squares stay finite keeps its moments
    assert _mean_se(np.array([1e307, 1e307])) == (1e307, 0.0)
    assert _mean_se(np.array([1e150, 3e150])) == pytest.approx((2e150, 1e150), rel=1e-15)


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
