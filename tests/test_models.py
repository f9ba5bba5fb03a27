import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from vriwae.models import (GaussianToy, LinearGaussian, closed_forms, lingauss_gamma2_quadrature,
                           lingauss_gap_quadrature, lingauss_marginal_quadrature,
                           optimal_params, perturb_params)
from vriwae.experiments import make_linear_gaussian
from vriwae.rng import make_stream, standard_normal


def toy(d=2, theta=0.0, phi=1.0):
    return GaussianToy(d=d, theta=np.full(d, theta), phi=np.full(d, phi))


def lingauss(d=2, seed=0):
    rng = np.random.default_rng(seed)
    return LinearGaussian(d=d, theta=rng.normal(size=d), a_tilde=rng.normal(size=d),
                          b=rng.normal(size=d), x=rng.normal(size=d))


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_reparam_at_zero_noise():
    m = toy(3)
    assert np.allclose(m.reparam(np.zeros(3)), m.phi)
    lg = lingauss(3)
    assert np.allclose(lg.reparam(np.zeros(3)), lg.q_mean)


def test_toy_sample_covariance():
    m = toy(2)
    eps = standard_normal(make_stream(0, 0), (1_000_000, 2))
    z = m.reparam(eps)
    cov = np.cov(z.T)
    assert np.allclose(cov, np.eye(2), atol=0.01)
    assert np.allclose(z.mean(axis=0), m.phi, atol=0.01)


def test_lingauss_sample_covariance():
    lg = lingauss(2)
    eps = standard_normal(make_stream(0, 1), (1_000_000, 2))
    z = lg.reparam(eps)
    cov = np.cov(z.T)
    assert np.allclose(cov, (2.0 / 3.0) * np.eye(2), atol=0.01)


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------

def test_toy_weight_matched_params():
    m = toy(4, theta=1.0, phi=1.0)
    z = np.random.default_rng(0).normal(size=(10, 4))
    assert np.allclose(m.log_relative_weight(z), 0.0)


def test_toy_weight_hand_value():
    m = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    assert m.log_relative_weight(np.array([1.0])) == pytest.approx(-0.5, abs=1e-12)


def test_toy_weight_lognormal_form():
    # log wbar = -B^2/2 - B*S with S standard normal
    m = toy(5, theta=0.0, phi=1.0)
    b = float(np.linalg.norm(m.theta - m.phi))
    eps = standard_normal(make_stream(1, 0), (200_000, 5))
    lrw = m.log_relative_weight(m.reparam(eps))
    assert abs(lrw.mean() + 0.5 * b * b) < 3.0 * b / math.sqrt(lrw.size) + 0.01
    assert abs(lrw.std(ddof=1) - b) < 0.01 * b


def test_lingauss_weight_hand_value():
    # at the proposal mean equal to the posterior mean, z = that mean, d=1:
    # log wbar = (1/2) log(4/3)
    lg = LinearGaussian(d=1, theta=np.array([0.4]), a_tilde=np.array([0.5]),
                        b=np.array([0.2]), x=np.array([0.0]))
    m = lg.posterior_mean
    assert np.allclose(lg.q_mean, m)  # 0.5*0 + 0.2 = 0.2 = (0.4+0)/2
    assert lg.log_relative_weight(m) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert lg.log_relative_weight(m) == pytest.approx(0.14384, abs=5e-6)


def test_relative_weights_unit_mean():
    # E(wbar) = 1, checked at moderate dimension for both models
    m = toy(10, theta=0.0, phi=0.3)
    eps = standard_normal(make_stream(2, 0), (1_000_000, 10))
    w = np.exp(m.log_relative_weight(m.reparam(eps)))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 3.0 * se

    lg0, _ = make_linear_gaussian(10, 0.1, seed=3, t=64)
    eps = standard_normal(make_stream(2, 1), (1_000_000, 10))
    w = np.exp(lg0.log_relative_weight(lg0.reparam(eps)))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 3.0 * se


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        toy(3).log_relative_weight(np.zeros(4))
    with pytest.raises(ValueError):
        lingauss(3).log_relative_weight(np.zeros(2))


# --------------------------------------------------------------------------
# marginals
# --------------------------------------------------------------------------

def test_toy_marginal_zero():
    assert toy().log_marginal() == 0.0


def test_lingauss_marginal_hand_value():
    lg = LinearGaussian(d=1, theta=np.array([0.7]), a_tilde=np.array([0.5]),
                        b=np.array([0.35]), x=np.array([0.7]))
    assert lg.log_marginal() == pytest.approx(-0.5 * math.log(4.0 * math.pi), abs=1e-12)
    assert lg.log_marginal() == pytest.approx(-1.26551, abs=5e-6)


def test_lingauss_marginal_vs_quadrature():
    lg = lingauss(1, seed=5)
    assert lg.log_marginal() == pytest.approx(lingauss_marginal_quadrature(lg), abs=1e-6)


# --------------------------------------------------------------------------
# scores
# --------------------------------------------------------------------------

def test_toy_score_hand_values():
    m = GaussianToy(d=1, theta=np.zeros(1), phi=np.ones(1))
    eps = np.zeros(1)
    z = m.reparam(eps)
    d_theta, d_total, d_stopped = m.score_grads(eps, z)
    assert d_total[0] == pytest.approx(-1.0, abs=1e-12)
    assert d_stopped[0] == pytest.approx(-1.0, abs=1e-12)
    assert d_theta[0] == pytest.approx(1.0, abs=1e-12)


def test_scores_match_finite_differences():
    # total scores against central differences of the unnormalized log-weight
    rng = np.random.default_rng(11)
    step = 1e-5
    for _ in range(100):
        d = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            model = GaussianToy(d=d, theta=rng.normal(size=d), phi=rng.normal(size=d))
        else:
            model = LinearGaussian(d=d, theta=rng.normal(size=d), a_tilde=rng.normal(size=d),
                                   b=rng.normal(size=d), x=rng.normal(size=d))
        eps = rng.normal(size=(1, d))
        z = model.reparam(eps)
        d_theta, d_total, d_stopped = model.score_grads(eps, z)
        theta, phi = model.theta_vec.copy(), model.phi_vec.copy()
        for k in range(model.theta_vec.size):
            e = np.zeros_like(theta)
            e[k] = step
            fd = (model.with_theta(theta + e).log_unnormalized_weight(z)
                  - model.with_theta(theta - e).log_unnormalized_weight(z)) / (2 * step)
            assert abs(fd[0] - d_theta[0, k]) < 1e-6 * (1.0 + abs(fd[0]))
        for k in range(model.phi_vec.size):
            e = np.zeros_like(phi)
            e[k] = step
            mp, mm = model.with_phi(phi + e), model.with_phi(phi - e)
            fd = (mp.log_unnormalized_weight(mp.reparam(eps))
                  - mm.log_unnormalized_weight(mm.reparam(eps))) / (2 * step)
            assert abs(fd[0] - d_total[0, k]) < 1e-6 * (1.0 + abs(fd[0]))
            # stopped score: freeze the explicit proposal term at the base phi
            hi = _stopped_eval(model, mp, eps)
            lo = _stopped_eval(model, mm, eps)
            fd_stop = (hi - lo) / (2 * step)
            assert abs(fd_stop[0] - d_stopped[0, k]) < 1e-6 * (1.0 + abs(fd_stop[0]))


def _stopped_eval(base, shifted, eps):
    """log w_{theta, phi'}(f(eps, phi_shifted)) at phi' = base phi: the sample
    path moves, the explicit proposal density stays at the base parameters."""
    z = shifted.reparam(eps)
    return base.log_unnormalized_weight(z)


def test_matched_params_total_score_is_minus_eps():
    m = toy(3, theta=0.7, phi=0.7)
    eps = np.random.default_rng(1).normal(size=(5, 3))
    _, d_total, _ = m.score_grads(eps, m.reparam(eps))
    assert np.allclose(d_total, -eps, atol=1e-12)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

# the toy at theta = 0, phi = 1 has B^2 = ||v||^2 = d exactly

def test_toy_analytics_values():
    assert closed_forms(toy(7), 0.0)[:2] == (0.0, pytest.approx(math.expm1(7.0)))
    vr_gap, gamma2, *_ = closed_forms(toy(10), 0.5)
    assert vr_gap == -2.5
    assert gamma2 == pytest.approx(2.0 * (math.exp(2.5) - 1.0))
    assert gamma2 == pytest.approx(22.365, abs=5e-3)


def test_toy_analytics_gamma_vanishes_at_one():
    _, gamma2, *_ = closed_forms(toy(2), 1.0 - 1e-6)
    assert gamma2 < 1e-4 * 2.0 * 2.0


def test_toy_analytics_domain():
    with pytest.raises(ValueError):
        closed_forms(toy(1), 1.0)


def test_lingauss_analytics_at_optimum():
    lg, _ = make_linear_gaussian(1, 0.0, seed=9, t=32)
    vr_gap, gamma2, _, sigma2, a_const = closed_forms(lg, 0.0)
    assert lg.progress == pytest.approx(0.0, abs=1e-12)     # lambda
    assert vr_gap == pytest.approx(0.0, abs=1e-12)
    assert gamma2 == pytest.approx(4.0 / math.sqrt(15.0) - 1.0, abs=1e-12)
    assert gamma2 == pytest.approx(0.032796, abs=1e-6)
    assert sigma2 == pytest.approx(1.0 / 18.0)
    assert a_const == pytest.approx(1.0 / 6.0 + 0.5 * math.log(3.0 / 4.0))
    assert a_const == pytest.approx(0.0228, abs=5e-5)


def test_lingauss_analytics_vs_quadrature():
    rng = np.random.default_rng(13)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        lg = LinearGaussian(d=d, theta=rng.normal(size=d), a_tilde=rng.normal(size=d),
                            b=rng.normal(size=d), x=rng.normal(size=d))
        for alpha in (0.0, 0.3, 0.7):
            vr_gap, gamma2, *_ = closed_forms(lg, alpha)
            assert vr_gap == pytest.approx(lingauss_gap_quadrature(lg, alpha),
                                           rel=1e-6, abs=1e-9)
            assert gamma2 == pytest.approx(lingauss_gamma2_quadrature(lg, alpha),
                                           rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("sigma_perturb", [0.0, 0.01])
def test_lingauss_oracle_at_d1000(sigma_perturb):
    # the model of the benchmark's highdim gap_lingauss op: a product of 1000
    # factors, so each factor's integral must hold about 1e-12 relative
    lg, _ = make_linear_gaussian(1000, sigma_perturb, 0)
    assert lg.log_marginal() == pytest.approx(lingauss_marginal_quadrature(lg), abs=1e-9)
    for alpha in (0.0, 0.5):
        vr_gap, gamma2, *_ = closed_forms(lg, alpha)
        assert vr_gap == pytest.approx(lingauss_gap_quadrature(lg, alpha), rel=1e-9, abs=1e-9)
        assert gamma2 == pytest.approx(lingauss_gamma2_quadrature(lg, alpha), rel=1e-9)


def test_elbo_gap_is_minus_da():
    lg, _ = make_linear_gaussian(8, 0.3, seed=17, t=64)
    *_, a_const = closed_forms(lg, 0.0)
    eps = standard_normal(make_stream(17, 2), (400_000, 8))
    lrw = lg.log_relative_weight(lg.reparam(eps))
    se = lrw.std(ddof=1) / math.sqrt(lrw.size)
    assert abs(lrw.mean() + 8.0 * a_const) < 3.0 * se


def test_lingauss_log_std_matches_sigma():
    lg, _ = make_linear_gaussian(12, 0.3, seed=19, t=64)
    *_, sigma2, _ = closed_forms(lg, 0.0)
    eps = standard_normal(make_stream(19, 2), (400_000, 12))
    lrw = lg.log_relative_weight(lg.reparam(eps))
    assert abs(lrw.std(ddof=1) / math.sqrt(12.0) - math.sqrt(sigma2)) < 0.02 * math.sqrt(sigma2)


_ALPHAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6)


@pytest.mark.parametrize("d", [1, 10, 1000, 60_000])
def test_closed_forms_order_the_gaps(d):
    # log E[wbar^t] is convex in t, 0 at t = 0 (and at t = 1: relative weights
    # have unit mean) with slope E[log wbar] there, so vr_gap, its chord slope
    # at t = 1 - alpha, is 0 at alpha = 0, falls with alpha, stays in
    # [elbo_gap, 0], and nears elbo_gap as t var(log wbar)/2 when t -> 0
    models = [toy(d)] + [make_linear_gaussian(d, sp, seed=5)[0] for sp in (0.0, 0.3)]
    for model in models:
        forms = [closed_forms(model, alpha) for alpha in _ALPHAS]
        gaps = [f[0] for f in forms]
        _, _, elbo_gap, sigma2, _ = forms[0]
        tol = 1e-14 * (d + abs(elbo_gap))       # rounding of the O(d) terms
        label = (type(model).__name__, gaps, elbo_gap)
        assert abs(gaps[0]) <= tol, label
        assert all(b <= a + tol for a, b in zip(gaps, gaps[1:])), label
        assert all(elbo_gap - tol <= g <= tol for g in gaps), label
        assert gaps[-1] - elbo_gap <= 1e-6 * d * sigma2 + tol, label
        assert all(f[1] >= 0.0 for f in forms), label     # +inf where it overflows


# --------------------------------------------------------------------------
# linear Gaussian instances and parameter helpers
# --------------------------------------------------------------------------

def test_optimal_params_single_point():
    x = np.array([1.0, -2.0])
    theta, a, b = optimal_params(x, np.zeros(2), 1)
    assert np.allclose(theta, x)
    assert np.allclose(b, x / 2.0)
    assert np.allclose(a, 0.5)


def test_optimal_params_symmetry():
    theta, a, b = optimal_params(np.array([1.0, 2.0]), np.array([-1.0, -2.0]), 2)
    assert np.allclose(theta, 0.0)
    assert np.allclose(b, 0.0)
    assert np.allclose(a, 0.5)


def test_optimal_params_empty():
    with pytest.raises(ValueError):
        optimal_params(np.zeros(3), np.zeros(3), 0)


def test_lingauss_statistics_moments():
    # the datapoints of 1024 instances are i.i.d. N(0, 2I) rows, like a
    # dataset's; one instance's theta* is the mean of 1024 such rows
    data = np.stack([make_linear_gaussian(20, 0.0, seed)[1][0] for seed in range(1024)])
    assert data.shape == (1024, 20)
    assert np.all(np.abs(data.var(axis=0, ddof=1) - 2.0) < 0.3)
    theta = make_linear_gaussian(20, 0.0, 23)[0].theta
    assert np.all(np.abs(theta) < 3.0 * math.sqrt(2.0 / 1024.0) + 0.05)


@pytest.mark.parametrize("t", [2, 1024])
def test_lingauss_statistics_match_dataset_path(t):
    # an instance sees its dataset only through x and theta* = mean, drawn
    # from their exact joint law; check that law coordinate by coordinate
    # against the dataset path: T i.i.d. N(0, 2I) rows, their mean and a row
    r, d = 2000, 3
    models = [make_linear_gaussian(d, 0.0, seed, t=t)[0] for seed in range(r)]
    x = np.stack([m.x for m in models])
    theta = np.stack([m.theta for m in models])
    v = 2.0 / t
    for k in range(d):
        var_x, var_theta = x[:, k].var(ddof=1), theta[:, k].var(ddof=1)
        cov = np.cov(x[:, k], theta[:, k])[0, 1]
        assert abs(var_x - 2.0) < 4.0 * 2.0 * math.sqrt(2.0 / (r - 1))
        assert abs(var_theta - v) < 4.0 * v * math.sqrt(2.0 / (r - 1))
        assert abs(cov - v) < 4.0 * math.sqrt((2.0 * v + v * v) / r)
    stream = make_stream(41, 0)
    for k in range(d):
        data = math.sqrt(2.0) * standard_normal(stream, (r, t))
        assert ks_2samp(theta[:, k], data.mean(axis=1)).pvalue > 1e-3
        assert ks_2samp(x[:, k], data[:, 0]).pvalue > 1e-3


def test_lingauss_single_datapoint_is_optimum():
    model, (x, _) = make_linear_gaussian(5, 0.0, seed=3, t=1)
    assert np.array_equal(model.theta, x)
    assert np.array_equal(model.x, x)
    assert np.array_equal(model.b, 0.5 * x)


def test_lingauss_instance_memory_is_linear_in_d():
    # d = 6e4 is the dimension the iid-sum regime of A5 needs; a T x d
    # dataset there would take 1024 * 6e4 * 8 B = 491 MB
    tracemalloc.start()
    try:
        make_linear_gaussian(60_000, 0.01, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_perturb_identity_at_zero():
    p = np.arange(5.0)
    out, = perturb_params((p,), 0.0, make_stream(0, 0))
    assert np.array_equal(out, p)
    tup = perturb_params((p, p + 1), 0.0, make_stream(0, 0))
    assert np.array_equal(tup[0], p) and np.array_equal(tup[1], p + 1)


def test_perturb_scales():
    p = np.zeros(2000)
    for sp in (0.01, 0.5):
        out, = perturb_params((p,), sp, make_stream(31, 0))
        assert abs(out.std() - sp) < 0.1 * sp
